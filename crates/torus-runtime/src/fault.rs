//! Deterministic, seedable fault injection for the runtime.
//!
//! A [`FaultPlan`] decides, for every wire transmission `(step, src, dst,
//! attempt)` and every worker step `(step, node)`, whether a fault fires
//! and which kind. Decisions come from two sources:
//!
//! * **explicit faults** pinned to exact coordinates with
//!   [`with_message_fault`](FaultPlan::with_message_fault) /
//!   [`with_worker_fault`](FaultPlan::with_worker_fault) — the unit-test
//!   and chaos-matrix interface;
//! * **background rates** (e.g. "drop 1% of messages") sampled by hashing
//!   the coordinates with the plan's seed through splitmix64 — *stateless*
//!   sampling, so the same seed yields the same faults regardless of
//!   thread interleaving, worker count, or evaluation order. That is what
//!   makes seeded chaos runs exactly reproducible.
//!
//! The plan only *describes* faults; the runtime injects them at the send
//! path (attempt 0) and at the resend path (attempts ≥ 1, modelling a
//! faulty retransmission), and kills or stalls workers at step entry.

use std::collections::HashMap;

use torus_topology::NodeId;

use crate::payload::splitmix64;

/// What to do to one wire transmission.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// The frame never arrives (receiver must time out and recover).
    Drop,
    /// The frame arrives late by this many microseconds. Delays shorter
    /// than the receive deadline are absorbed; longer ones behave like a
    /// drop followed by a stale duplicate.
    DelayMicros(u64),
    /// The frame arrives twice (receiver must discard the duplicate).
    Duplicate,
    /// One byte of the frame is flipped (CRC32 must detect it).
    CorruptByte,
    /// Only a prefix of the frame arrives (framing must detect it).
    Truncate,
}

impl std::fmt::Display for FaultKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultKind::Drop => write!(f, "drop"),
            FaultKind::DelayMicros(us) => write!(f, "delay({us}us)"),
            FaultKind::Duplicate => write!(f, "duplicate"),
            FaultKind::CorruptByte => write!(f, "corrupt"),
            FaultKind::Truncate => write!(f, "truncate"),
        }
    }
}

/// What to do to one worker at step entry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WorkerFaultKind {
    /// The worker hosting the node dies: it stops sending and receiving
    /// for the rest of the run (it still crosses barriers, modelling a
    /// crashed rank whose host keeps the clock). Unrecoverable.
    Kill,
    /// The worker sleeps this long before the step's sends — long stalls
    /// push peers past their deadlines and exercise the retry path.
    StallMicros(u64),
}

/// One injected fault occurrence, recorded for the report.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultEvent {
    /// Global step of the transmission.
    pub step: usize,
    /// Sending node (canonical id), or the faulted node for worker faults.
    pub src: NodeId,
    /// Receiving node (canonical id); `== src` for worker faults.
    pub dst: NodeId,
    /// Transmission attempt the fault applied to (0 = first send).
    pub attempt: u32,
    /// The fault injected.
    pub kind: FaultEventKind,
}

/// Discriminates message from worker faults in the event log.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultEventKind {
    /// A wire-transmission fault.
    Message(FaultKind),
    /// A worker kill/stall fault.
    Worker(WorkerFaultKind),
}

impl std::fmt::Display for FaultEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.kind {
            FaultEventKind::Message(k) => write!(
                f,
                "step {} {}->{} attempt {}: {k}",
                self.step, self.src, self.dst, self.attempt
            ),
            FaultEventKind::Worker(WorkerFaultKind::Kill) => {
                write!(f, "step {} node {}: killed", self.step, self.src)
            }
            FaultEventKind::Worker(WorkerFaultKind::StallMicros(us)) => {
                write!(f, "step {} node {}: stalled {us}us", self.step, self.src)
            }
        }
    }
}

/// Background fault rates, applied to first-attempt transmissions.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
struct Rates {
    drop: f64,
    corrupt: f64,
    truncate: f64,
    duplicate: f64,
    delay: f64,
    delay_micros: u64,
}

/// A deterministic, seedable fault schedule.
///
/// Cloning is cheap relative to a run; an empty plan (the default) makes
/// every query return "no fault" and is skipped by the runtime's fast
/// path.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    rates: Rates,
    message: HashMap<(usize, NodeId, NodeId, u32), Vec<FaultKind>>,
    worker: HashMap<(usize, NodeId), WorkerFaultKind>,
}

// Distinct salts so each rate samples an independent hash stream.
const SALT_DROP: u64 = 0xD809_0000_0000_0001;
const SALT_CORRUPT: u64 = 0xD809_0000_0000_0002;
const SALT_TRUNCATE: u64 = 0xD809_0000_0000_0003;
const SALT_DUPLICATE: u64 = 0xD809_0000_0000_0004;
const SALT_DELAY: u64 = 0xD809_0000_0000_0005;
const SALT_OFFSET: u64 = 0xD809_0000_0000_0006;

impl FaultPlan {
    /// An empty plan with the given seed for background sampling.
    pub fn seeded(seed: u64) -> Self {
        Self {
            seed,
            ..Self::default()
        }
    }

    /// True if no fault can ever fire (the runtime then skips all
    /// injection bookkeeping on the send path).
    pub(crate) fn is_empty(&self) -> bool {
        self.message.is_empty() && self.worker.is_empty() && self.rates == Rates::default()
    }

    /// Drops this fraction of first-attempt transmissions.
    pub fn with_drop_rate(mut self, rate: f64) -> Self {
        self.rates.drop = rate;
        self
    }

    /// Corrupts one byte of this fraction of first-attempt transmissions.
    pub fn with_corrupt_rate(mut self, rate: f64) -> Self {
        self.rates.corrupt = rate;
        self
    }

    /// Truncates this fraction of first-attempt transmissions.
    pub fn with_truncate_rate(mut self, rate: f64) -> Self {
        self.rates.truncate = rate;
        self
    }

    /// Duplicates this fraction of first-attempt transmissions.
    pub fn with_duplicate_rate(mut self, rate: f64) -> Self {
        self.rates.duplicate = rate;
        self
    }

    /// Pins a fault to one exact transmission. `attempt` 0 is the
    /// original send; `attempt` ≥ 1 fault the corresponding resend, which
    /// is how retry-budget exhaustion is provoked deterministically.
    pub fn with_message_fault(
        mut self,
        step: usize,
        src: NodeId,
        dst: NodeId,
        attempt: u32,
        kind: FaultKind,
    ) -> Self {
        self.message
            .entry((step, src, dst, attempt))
            .or_default()
            .push(kind);
        self
    }

    /// Kills or stalls the worker hosting `node` when it reaches `step`.
    pub fn with_worker_fault(mut self, step: usize, node: NodeId, kind: WorkerFaultKind) -> Self {
        self.worker.insert((step, node), kind);
        self
    }

    /// Uniform hash in `[0, 1)` for one (salt, coordinates) tuple.
    fn roll(&self, salt: u64, step: usize, src: NodeId, dst: NodeId) -> f64 {
        let key = self
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(salt)
            .wrapping_add((step as u64) << 40)
            .wrapping_add((src as u64) << 20)
            .wrapping_add(dst as u64);
        (splitmix64(key) >> 11) as f64 / (1u64 << 53) as f64
    }

    /// All faults applying to transmission `(step, src, dst, attempt)`,
    /// in deterministic order. Background rates only fire on attempt 0;
    /// resends can only be faulted explicitly.
    pub fn message_faults(
        &self,
        step: usize,
        src: NodeId,
        dst: NodeId,
        attempt: u32,
    ) -> Vec<FaultKind> {
        let mut out = self
            .message
            .get(&(step, src, dst, attempt))
            .cloned()
            .unwrap_or_default();
        if attempt == 0 {
            let r = &self.rates;
            if r.drop > 0.0 && self.roll(SALT_DROP, step, src, dst) < r.drop {
                out.push(FaultKind::Drop);
            }
            if r.corrupt > 0.0 && self.roll(SALT_CORRUPT, step, src, dst) < r.corrupt {
                out.push(FaultKind::CorruptByte);
            }
            if r.truncate > 0.0 && self.roll(SALT_TRUNCATE, step, src, dst) < r.truncate {
                out.push(FaultKind::Truncate);
            }
            if r.duplicate > 0.0 && self.roll(SALT_DUPLICATE, step, src, dst) < r.duplicate {
                out.push(FaultKind::Duplicate);
            }
            if r.delay > 0.0 && self.roll(SALT_DELAY, step, src, dst) < r.delay {
                out.push(FaultKind::DelayMicros(r.delay_micros));
            }
        }
        out
    }

    /// The worker fault (if any) for `node` at `step`.
    pub(crate) fn worker_fault(&self, step: usize, node: NodeId) -> Option<WorkerFaultKind> {
        self.worker.get(&(step, node)).copied()
    }

    /// All pinned kill faults as `(step, node)` pairs, sorted. Kills are
    /// never rate-sampled, so this is the complete statically-known dead
    /// set — what degraded-mode execution pre-seeds its quarantine from.
    pub(crate) fn kills(&self) -> Vec<(usize, NodeId)> {
        let mut out: Vec<(usize, NodeId)> = self
            .worker
            .iter()
            .filter(|(_, kind)| matches!(kind, WorkerFaultKind::Kill))
            .map(|(&(step, node), _)| (step, node))
            .collect();
        out.sort_unstable();
        out
    }

    /// Deterministic byte offset for a [`FaultKind::CorruptByte`] on a
    /// frame of `len` bytes.
    pub(crate) fn corrupt_offset(
        &self,
        step: usize,
        src: NodeId,
        dst: NodeId,
        len: usize,
    ) -> usize {
        if len == 0 {
            return 0;
        }
        let key = self
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(SALT_OFFSET)
            .wrapping_add((step as u64) << 40)
            .wrapping_add((src as u64) << 20)
            .wrapping_add(dst as u64);
        (splitmix64(key) % len as u64) as usize
    }

    /// Parses a CLI-style profile spec: comma-separated `key=value` pairs
    /// with keys `seed`, `drop`, `corrupt`, `truncate`, `duplicate`,
    /// `delay` (rates in `[0, 1]`), `delay-us` (delay length), and
    /// `kill=STEP:NODE` / `stall=STEP:NODE:MICROS` for pinned worker
    /// faults. Example: `"drop=0.01,corrupt=0.005,seed=42"`.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let mut plan = FaultPlan::default();
        let mut delay_rate = 0.0f64;
        let mut delay_us = 1_000u64;
        for part in spec.split(',').filter(|p| !p.trim().is_empty()) {
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("bad fault spec '{part}': expected key=value"))?;
            let key = key.trim();
            let value = value.trim();
            let rate = |v: &str| -> Result<f64, String> {
                let r: f64 = v.parse().map_err(|e| format!("{key}: {e}"))?;
                if !(0.0..=1.0).contains(&r) {
                    return Err(format!("{key}: rate {r} outside [0, 1]"));
                }
                Ok(r)
            };
            match key {
                "seed" => plan.seed = value.parse().map_err(|e| format!("seed: {e}"))?,
                "drop" => plan.rates.drop = rate(value)?,
                "corrupt" => plan.rates.corrupt = rate(value)?,
                "truncate" => plan.rates.truncate = rate(value)?,
                "duplicate" => plan.rates.duplicate = rate(value)?,
                "delay" => delay_rate = rate(value)?,
                "delay-us" => delay_us = value.parse().map_err(|e| format!("delay-us: {e}"))?,
                "kill" => {
                    let (step, node) = value
                        .split_once(':')
                        .ok_or_else(|| format!("kill: expected STEP:NODE, got '{value}'"))?;
                    let step: usize = step.parse().map_err(|e| format!("kill step: {e}"))?;
                    let node: NodeId = node.parse().map_err(|e| format!("kill node: {e}"))?;
                    plan.worker.insert((step, node), WorkerFaultKind::Kill);
                }
                "stall" => {
                    let mut it = value.split(':');
                    let step: usize = it
                        .next()
                        .ok_or("stall: missing step")?
                        .parse()
                        .map_err(|e| format!("stall step: {e}"))?;
                    let node: NodeId = it
                        .next()
                        .ok_or("stall: missing node")?
                        .parse()
                        .map_err(|e| format!("stall node: {e}"))?;
                    let us: u64 = it
                        .next()
                        .ok_or("stall: missing micros")?
                        .parse()
                        .map_err(|e| format!("stall micros: {e}"))?;
                    plan.worker
                        .insert((step, node), WorkerFaultKind::StallMicros(us));
                }
                other => {
                    return Err(format!(
                        "unknown fault key '{other}' \
                         (known: seed, drop, corrupt, truncate, duplicate, delay, delay-us, kill, stall)"
                    ))
                }
            }
        }
        if delay_rate > 0.0 {
            plan.rates.delay = delay_rate;
            plan.rates.delay_micros = delay_us;
        }
        Ok(plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_is_empty() {
        let p = FaultPlan::default();
        assert!(p.is_empty());
        assert!(p.message_faults(3, 1, 2, 0).is_empty());
        assert!(p.worker_fault(3, 1).is_none());
        assert!(!FaultPlan::default().with_drop_rate(0.5).is_empty());
        assert!(!FaultPlan::default()
            .with_worker_fault(0, 0, WorkerFaultKind::Kill)
            .is_empty());
    }

    #[test]
    fn explicit_faults_hit_exact_coordinates() {
        let p = FaultPlan::default()
            .with_message_fault(2, 4, 5, 0, FaultKind::Drop)
            .with_message_fault(2, 4, 5, 1, FaultKind::CorruptByte)
            .with_worker_fault(3, 9, WorkerFaultKind::Kill);
        assert_eq!(p.message_faults(2, 4, 5, 0), vec![FaultKind::Drop]);
        assert_eq!(p.message_faults(2, 4, 5, 1), vec![FaultKind::CorruptByte]);
        assert!(p.message_faults(2, 4, 5, 2).is_empty());
        assert!(p.message_faults(2, 5, 4, 0).is_empty());
        assert!(p.message_faults(1, 4, 5, 0).is_empty());
        assert_eq!(p.worker_fault(3, 9), Some(WorkerFaultKind::Kill));
        assert_eq!(p.worker_fault(3, 8), None);
    }

    #[test]
    fn sampling_is_deterministic_and_seed_sensitive() {
        let a = FaultPlan::seeded(7).with_drop_rate(0.3);
        let b = FaultPlan::seeded(7).with_drop_rate(0.3);
        let c = FaultPlan::seeded(8).with_drop_rate(0.3);
        let sample = |p: &FaultPlan| -> Vec<bool> {
            let mut v = Vec::new();
            for step in 0..6 {
                for src in 0..8u32 {
                    for dst in 0..8u32 {
                        v.push(!p.message_faults(step, src, dst, 0).is_empty());
                    }
                }
            }
            v
        };
        assert_eq!(sample(&a), sample(&b), "same seed, same faults");
        assert_ne!(sample(&a), sample(&c), "different seed, different faults");
        let hits = sample(&a).iter().filter(|&&x| x).count();
        // 384 trials at rate 0.3: expect ~115, demand a sane band.
        assert!((50..200).contains(&hits), "hit count {hits} implausible");
    }

    #[test]
    fn rates_do_not_apply_to_resends() {
        let p = FaultPlan::seeded(1).with_drop_rate(1.0);
        assert_eq!(p.message_faults(0, 0, 1, 0), vec![FaultKind::Drop]);
        assert!(p.message_faults(0, 0, 1, 1).is_empty());
    }

    #[test]
    fn corrupt_offset_is_in_range_and_deterministic() {
        let p = FaultPlan::seeded(3);
        for len in [1usize, 2, 12, 100] {
            let off = p.corrupt_offset(5, 1, 2, len);
            assert!(off < len);
            assert_eq!(off, p.corrupt_offset(5, 1, 2, len));
        }
        assert_eq!(p.corrupt_offset(0, 0, 0, 0), 0);
    }

    #[test]
    fn parse_roundtrips_rates_and_pinned_faults() {
        let p = FaultPlan::parse("drop=0.01, corrupt=0.5,seed=42,delay=0.2,delay-us=300").unwrap();
        assert_eq!(p.seed, 42);
        assert_eq!(p.rates.drop, 0.01);
        assert_eq!(p.rates.corrupt, 0.5);
        assert_eq!(p.rates.delay, 0.2);
        assert_eq!(p.rates.delay_micros, 300);

        let p = FaultPlan::parse("kill=3:7,stall=1:2:500").unwrap();
        assert_eq!(p.worker_fault(3, 7), Some(WorkerFaultKind::Kill));
        assert_eq!(
            p.worker_fault(1, 2),
            Some(WorkerFaultKind::StallMicros(500))
        );

        assert!(FaultPlan::parse("drop=2.0").is_err());
        assert!(FaultPlan::parse("bogus=1").is_err());
        assert!(FaultPlan::parse("drop").is_err());
        assert!(FaultPlan::parse("kill=x").is_err());
        assert!(FaultPlan::parse("").unwrap().is_empty());
    }

    #[test]
    fn kills_lists_only_pinned_kills_sorted() {
        let p = FaultPlan::seeded(1)
            .with_drop_rate(1.0)
            .with_worker_fault(5, 2, WorkerFaultKind::Kill)
            .with_worker_fault(1, 9, WorkerFaultKind::Kill)
            .with_worker_fault(2, 4, WorkerFaultKind::StallMicros(10));
        assert_eq!(p.kills(), vec![(1, 9), (5, 2)]);
        assert!(FaultPlan::default().kills().is_empty());
    }

    #[test]
    fn fault_kinds_display() {
        assert_eq!(FaultKind::Drop.to_string(), "drop");
        assert_eq!(FaultKind::DelayMicros(50).to_string(), "delay(50us)");
        let ev = FaultEvent {
            step: 2,
            src: 1,
            dst: 3,
            attempt: 0,
            kind: FaultEventKind::Message(FaultKind::Truncate),
        };
        assert_eq!(ev.to_string(), "step 2 1->3 attempt 0: truncate");
        let kill = FaultEvent {
            step: 4,
            src: 6,
            dst: 6,
            attempt: 0,
            kind: FaultEventKind::Worker(WorkerFaultKind::Kill),
        };
        assert_eq!(kill.to_string(), "step 4 node 6: killed");
    }
}
