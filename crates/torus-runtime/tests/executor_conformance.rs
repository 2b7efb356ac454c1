//! Conformance matrix: every fault/recovery/cancel behaviour of
//! the byte executor, held for every kind of schedule it runs.
//!
//! The executor is one worker loop fed by three step sources, so each
//! scenario below runs once per [`Lane`]: the all-to-all base plan, an
//! all-to-all repaired plan (degrade policy with a pinned kill, so the
//! repaired source executes), a non-combining collective (broadcast) and
//! a combining one (allreduce). A behaviour that holds in one lane and
//! not another means the lanes no longer share the loop.

use std::collections::BTreeMap;
use std::time::Duration;

use alltoall_core::RepairedSchedule;
use torus_runtime::{
    CancelToken, CollectiveOp, CollectiveRuntime, Dtype, FailureReason, FaultEvent, FaultEventKind,
    FaultKind, FaultPlan, OnFailure, RecoveryStats, ReduceOp, RetryPolicy, Runtime, RuntimeConfig,
    RuntimeError, RuntimeReport, WorkerFaultKind,
};
use torus_topology::{NodeId, TorusShape};

mod support;
use support::with_watchdog;
#[cfg(target_os = "linux")]
use support::{assert_threads_settle, thread_count};

const DIMS: [u32; 2] = [4, 4];
const NODES: usize = 16;
/// The repaired lane's pinned kill: `(global step, node)`.
const KILL: (usize, NodeId) = (1, 3);

#[derive(Clone, Copy, Debug)]
enum Lane {
    Base,
    Repaired,
    Broadcast,
    Allreduce,
}

const LANES: [Lane; 4] = [Lane::Base, Lane::Repaired, Lane::Broadcast, Lane::Allreduce];

/// One scheduled transmission: `(global step, src, dst)`.
type Transmission = (usize, NodeId, NodeId);

impl Lane {
    fn collective_op(self) -> CollectiveOp {
        match self {
            Lane::Broadcast => CollectiveOp::Broadcast { root: 5 },
            _ => CollectiveOp::Allreduce {
                op: ReduceOp::Sum,
                dtype: Dtype::U64,
            },
        }
    }

    /// The lane's configuration carrying `faults`: the repaired lane adds
    /// its kill and the degrade policy on top.
    fn config(self, faults: FaultPlan, retry: RetryPolicy, workers: usize) -> RuntimeConfig {
        let cfg = RuntimeConfig::default()
            .with_workers(workers)
            .with_retry(retry);
        match self {
            Lane::Repaired => cfg
                .with_faults(faults.with_worker_fault(KILL.0, KILL.1, WorkerFaultKind::Kill))
                .with_on_failure(OnFailure::Degrade),
            _ => cfg.with_faults(faults),
        }
    }

    /// Runs the lane under `cfg`, inside the suite's watchdog.
    fn run(self, cfg: RuntimeConfig) -> Result<RuntimeReport, RuntimeError> {
        let shape = TorusShape::new(&DIMS).unwrap();
        with_watchdog(60, move || match self {
            Lane::Base | Lane::Repaired => Runtime::new(&shape, cfg).unwrap().run(),
            Lane::Broadcast | Lane::Allreduce => {
                CollectiveRuntime::new(&shape, self.collective_op(), cfg)
                    .unwrap()
                    .run()
                    .map(|(report, _)| report)
            }
        })
    }

    /// Every transmission of the schedule the lane actually executes.
    fn transmissions(self) -> Vec<Transmission> {
        let shape = TorusShape::new(&DIMS).unwrap();
        let mut out = Vec::new();
        match self {
            Lane::Base | Lane::Repaired => {
                let rt = Runtime::new(&shape, RuntimeConfig::default()).unwrap();
                let quarantine: BTreeMap<NodeId, usize> = match self {
                    Lane::Repaired => [(KILL.1, KILL.0)].into(),
                    _ => BTreeMap::new(),
                };
                let schedule =
                    RepairedSchedule::plan(rt.plan(), rt.prepared().seeded_blocks(), &quarantine)
                        .unwrap();
                let steps = schedule.phases.iter().flat_map(|ph| &ph.steps);
                for (g, step) in steps.enumerate() {
                    for (src, send) in step.sends.iter().enumerate() {
                        if let Some(send) = send {
                            out.push((g, src as NodeId, send.dst));
                        }
                    }
                }
            }
            Lane::Broadcast | Lane::Allreduce => {
                let rt =
                    CollectiveRuntime::new(&shape, self.collective_op(), RuntimeConfig::default())
                        .unwrap();
                for (g, step) in rt.plan().steps().iter().enumerate() {
                    out.extend(step.sends.iter().map(|s| (g, s.src, s.dst)));
                }
            }
        }
        out
    }

    /// A transmission past the first step between nodes the lane keeps
    /// alive — where recoverable faults are pinned.
    fn live_transmission(self) -> Transmission {
        self.transmissions()
            .into_iter()
            .find(|&(g, src, dst)| g >= 1 && src != KILL.1 && dst != KILL.1)
            .expect("schedule has a transmission past step 0")
    }

    /// A transmission whose permanent silence aborts the run. Under the
    /// degrade policy an exhausted budget normally quarantines the
    /// silent sender and restarts; a sender that is *already* quarantined
    /// (here: silenced before its pinned kill fires) is a repeat offender
    /// and aborts for real.
    fn fatal_transmission(self) -> Transmission {
        match self {
            Lane::Repaired => self
                .transmissions()
                .into_iter()
                .find(|&(g, src, _)| g < KILL.0 && src == KILL.1)
                .expect("the doomed node sends before it is quarantined"),
            _ => self.live_transmission(),
        }
    }

    fn assert_completed(self, report: &RuntimeReport) {
        assert!(report.failure.is_none(), "{self:?}: {:?}", report.failure);
        match self {
            Lane::Repaired => {
                let d = report.degraded.as_ref().expect("degraded report populated");
                assert!(d.verified_degraded, "{self:?}: survivors must verify");
                assert_eq!(d.restarts, 0, "{self:?}: no mid-flight quarantine");
            }
            _ => assert!(report.verified, "{self:?}: must verify bit-exactly"),
        }
    }
}

/// Deadlines long enough that only injected faults time out, short
/// enough that a matrix row costs tens of milliseconds.
fn retry() -> RetryPolicy {
    RetryPolicy::default()
        .with_deadline(Duration::from_millis(60))
        .with_backoff(Duration::from_micros(200))
}

fn pinned(t: Transmission, attempt: u32, kind: FaultKind) -> FaultPlan {
    FaultPlan::default().with_message_fault(t.0, t.1, t.2, attempt, kind)
}

fn message_events(report: &RuntimeReport) -> Vec<&FaultEvent> {
    report
        .fault_events
        .iter()
        .filter(|e| matches!(e.kind, FaultEventKind::Message(_)))
        .collect()
}

fn expect_abort(lane: Lane, result: Result<RuntimeReport, RuntimeError>) -> RuntimeReport {
    match result {
        Err(RuntimeError::Aborted { failure, report }) => {
            assert!(!report.verified, "{lane:?}: partial report is unverified");
            assert_eq!(report.failure.as_ref(), Some(&failure), "{lane:?}");
            *report
        }
        Err(other) => panic!("{lane:?}: expected Aborted, got {other}"),
        Ok(_) => panic!("{lane:?}: expected Aborted, run completed"),
    }
}

#[test]
fn truncated_frame_is_detected_and_recovered() {
    for lane in LANES {
        let t = lane.live_transmission();
        let cfg = lane.config(pinned(t, 0, FaultKind::Truncate), retry(), 3);
        let r = lane.run(cfg).unwrap();
        lane.assert_completed(&r);
        assert_eq!(r.faults.injected_truncations, 1, "{lane:?}");
        // The cut lands in framing or in the CRC; either detector must
        // refuse the frame, and the refusal costs one retry cycle.
        assert_eq!(
            r.faults.decode_failures + r.faults.crc_failures,
            1,
            "{lane:?}"
        );
        assert_eq!(r.faults.retries, 1, "{lane:?}");
        assert_eq!(r.faults.recovered, 1, "{lane:?}");
    }
}

#[test]
fn over_deadline_delay_is_healed_from_the_retained_frame() {
    for lane in LANES {
        let t = lane.live_transmission();
        // One node per worker, so the delayed sender and its receiver
        // are never the same thread. The sender retains its pristine
        // frame *before* the delay: the receiver times out once and
        // heals immediately; the straggler is rejected as stale or never
        // read.
        let cfg = lane.config(
            pinned(t, 0, FaultKind::DelayMicros(60_000)),
            retry()
                .with_deadline(Duration::from_millis(5))
                .with_max_retries(50),
            NODES,
        );
        let r = lane.run(cfg).unwrap();
        lane.assert_completed(&r);
        assert_eq!(r.faults.injected_delays, 1, "{lane:?}");
        assert!(r.faults.timeouts >= 1, "{lane:?}");
        assert!(r.faults.resends >= 1, "{lane:?}");
        assert!(r.faults.recovered >= 1, "{lane:?}");
    }
}

#[test]
fn single_drop_heals_without_charging_the_budget() {
    for lane in LANES {
        let t = lane.live_transmission();
        let cfg = lane.config(pinned(t, 0, FaultKind::Drop), retry(), 2);
        let r = lane.run(cfg).unwrap();
        lane.assert_completed(&r);
        assert_eq!(r.faults.injected_drops, 1, "{lane:?}");
        assert_eq!(r.faults.timeouts, 1, "{lane:?}");
        assert_eq!(r.faults.resends, 1, "{lane:?}");
        assert_eq!(r.faults.recovered, 1, "{lane:?}");
        // The first resend succeeded, so no retry cycle was charged.
        assert_eq!(r.faults.retries, 0, "{lane:?}");
        let events = message_events(&r);
        assert_eq!(events.len(), 1, "{lane:?}");
        assert_eq!((events[0].step, events[0].src, events[0].dst), t);
    }
}

#[test]
fn retry_exhaustion_aborts_typed_with_a_partial_report() {
    for lane in LANES {
        let (g, src, dst) = lane.fatal_transmission();
        // Drop the original send and every resend the budget allows.
        let mut plan = FaultPlan::default();
        for attempt in 0..=3 {
            plan = plan.with_message_fault(g, src, dst, attempt, FaultKind::Drop);
        }
        let cfg = lane.config(plan, retry().with_max_retries(1), 2);
        let report = expect_abort(lane, lane.run(cfg));
        let failure = report.failure.as_ref().unwrap();
        assert_eq!(
            failure.reason,
            FailureReason::RetryExhausted { src },
            "{lane:?}"
        );
        assert_eq!(failure.node, dst, "{lane:?}");
        assert_eq!(failure.global_step, g, "{lane:?}");
        assert!(!failure.phase.is_empty() && failure.step >= 1, "{lane:?}");
        assert!(report.faults.retries > 0, "{lane:?}");
        assert!(report.degraded.is_none(), "{lane:?}");
    }
}

#[test]
fn expired_token_reports_deadline_exceeded() {
    for lane in LANES {
        let token = CancelToken::new();
        token.expire();
        let cfg = lane
            .config(FaultPlan::default(), retry(), 2)
            .with_cancel_token(token);
        let report = expect_abort(lane, lane.run(cfg));
        assert_eq!(
            report.failure.unwrap().reason,
            FailureReason::DeadlineExceeded,
            "{lane:?}"
        );
    }
}

#[test]
fn same_seed_same_counters_and_events_across_reruns_and_worker_counts() {
    for lane in LANES {
        let run = |workers: usize| {
            let faults = FaultPlan::seeded(42)
                .with_drop_rate(0.15)
                .with_corrupt_rate(0.15);
            let cfg = lane.config(
                faults,
                retry().with_deadline(Duration::from_millis(30)),
                workers,
            );
            let r = lane.run(cfg).unwrap();
            lane.assert_completed(&r);
            (r.faults, r.fault_events)
        };
        let baseline = run(3);
        assert!(
            baseline.0.total_injected() > 0,
            "{lane:?}: plan must actually fire"
        );
        let (events, counters) = pinned_seed_42(lane);
        let log: Vec<_> = baseline
            .1
            .iter()
            .map(|e| (e.step, e.src, e.dst, e.attempt, e.kind))
            .collect();
        assert_eq!(log, events, "{lane:?}: pinned fault log");
        assert_eq!(
            counters_row(&baseline.0),
            counters,
            "{lane:?}: pinned recovery counters"
        );
        for workers in [3, 1, NODES] {
            assert_eq!(
                run(workers),
                baseline,
                "{lane:?} diverged at {workers} workers"
            );
        }
    }
}

#[cfg(target_os = "linux")]
#[test]
fn aborts_leak_no_threads() {
    for lane in LANES {
        let before = thread_count();
        let (g, src, dst) = lane.fatal_transmission();
        let mut plan = FaultPlan::default();
        for attempt in 0..=3 {
            plan = plan.with_message_fault(g, src, dst, attempt, FaultKind::Drop);
        }
        expect_abort(
            lane,
            lane.run(lane.config(plan, retry().with_max_retries(1), 4)),
        );
        assert_threads_settle(before, &format!("{lane:?}"));
    }
}

/// One lane's pinned fault-event log, as `(step, src, dst, attempt,
/// kind)`, and recovery counters (see [`counters_row`]).
type Pin = (
    &'static [(usize, NodeId, NodeId, u32, FaultEventKind)],
    [u64; 13],
);

/// The seed-42 drop + corrupt plan of
/// `same_seed_same_counters_and_events_across_reruns_and_worker_counts`,
/// pinned per lane at 3 workers: the full fault-event log and the
/// recovery counters. Fixed by the seed and the schedule alone, so a
/// change to the data plane that moves any of it changed what the fault
/// layer does.
fn pinned_seed_42(lane: Lane) -> Pin {
    const D: FaultEventKind = FaultEventKind::Message(FaultKind::Drop);
    const C: FaultEventKind = FaultEventKind::Message(FaultKind::CorruptByte);
    const K: FaultEventKind = FaultEventKind::Worker(WorkerFaultKind::Kill);
    const BASE: Pin = (
        &[
            (0, 5, 13, 0, C),
            (0, 6, 4, 0, D),
            (0, 7, 15, 0, D),
            (0, 7, 15, 0, C),
            (0, 13, 5, 0, C),
            (1, 7, 5, 0, C),
            (1, 8, 10, 0, C),
            (2, 2, 6, 0, D),
            (2, 3, 7, 0, D),
            (2, 4, 0, 0, C),
            (2, 5, 1, 0, D),
            (2, 8, 12, 0, D),
            (2, 11, 15, 0, C),
            (2, 13, 9, 0, D),
            (3, 3, 2, 0, C),
            (3, 6, 7, 0, D),
            (3, 15, 14, 0, C),
        ],
        [8, 9, 0, 0, 0, 0, 0, 8, 16, 8, 16, 0, 16],
    );
    const REPAIRED: Pin = (
        &[
            (0, 5, 13, 0, C),
            (0, 6, 4, 0, D),
            (0, 7, 15, 0, D),
            (0, 7, 15, 0, C),
            (0, 13, 5, 0, C),
            (1, 3, 3, 0, K),
            (1, 7, 5, 0, C),
            (1, 8, 10, 0, C),
            (2, 2, 6, 0, D),
            (2, 4, 0, 0, C),
            (2, 5, 1, 0, D),
            (2, 8, 12, 0, D),
            (2, 11, 15, 0, C),
            (2, 13, 9, 0, D),
            (3, 6, 7, 0, D),
            (3, 15, 14, 0, C),
            (4, 11, 6, 0, C),
            (5, 3, 6, 0, C),
            (5, 7, 2, 0, D),
            (5, 11, 7, 0, C),
            (6, 3, 7, 0, D),
            (8, 3, 11, 0, D),
            (8, 3, 11, 0, C),
            (10, 3, 15, 0, D),
        ],
        [11, 12, 0, 0, 0, 0, 1, 10, 21, 10, 21, 0, 21],
    );
    const BROADCAST: Pin = (
        &[(1, 5, 1, 0, C), (3, 6, 7, 0, D)],
        [1, 1, 0, 0, 0, 0, 0, 1, 2, 1, 2, 0, 2],
    );
    const ALLREDUCE: Pin = (
        &[
            (0, 1, 0, 0, D),
            (0, 6, 5, 0, C),
            (0, 9, 8, 0, C),
            (0, 10, 9, 0, C),
            (0, 13, 12, 0, D),
            (0, 14, 13, 0, C),
            (1, 1, 0, 0, C),
            (1, 9, 8, 0, D),
            (1, 10, 9, 0, C),
            (8, 0, 1, 0, D),
            (8, 0, 1, 0, C),
            (9, 0, 3, 0, D),
            (9, 1, 2, 0, D),
            (9, 8, 11, 0, D),
        ],
        [7, 7, 0, 0, 0, 0, 0, 6, 13, 6, 13, 0, 13],
    );
    match lane {
        Lane::Base => BASE,
        Lane::Repaired => REPAIRED,
        Lane::Broadcast => BROADCAST,
        Lane::Allreduce => ALLREDUCE,
    }
}

/// The recovery counters in a pin's order — drops, corruptions,
/// truncations, duplicates, delays, stalls, kills, crc + decode
/// failures, timeouts, retries, resends, stale discarded, recovered —
/// with `crc_failures + decode_failures` as one sum: a corruption that lands in a length or
/// count field may be refused by a structural check before the CRC is
/// read, and either way it is refused once.
fn counters_row(f: &RecoveryStats) -> [u64; 13] {
    [
        f.injected_drops,
        f.injected_corruptions,
        f.injected_truncations,
        f.injected_duplicates,
        f.injected_delays,
        f.injected_stalls,
        f.injected_kills,
        f.crc_failures + f.decode_failures,
        f.timeouts,
        f.retries,
        f.resends,
        f.stale_discarded,
        f.recovered,
    ]
}
