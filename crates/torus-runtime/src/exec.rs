//! The one byte executor: how a schedule step moves real bytes.
//!
//! A schedule says **what moves** — which blocks a node sends where in
//! each step, and what the receiver does with them. This module owns
//! **how it moves**, once, for every schedule the crate can run. The
//! three schedule kinds (the paper's base plan, a repaired degraded-mode
//! plan, a lowered collective plan) are three small [`StepSource`]s; the
//! worker loop is generic over the source and statically dispatched, so
//! it never asks which kind it is running.
//!
//! # Execution model
//!
//! The `N` nodes are multiplexed onto `W` worker threads in contiguous
//! chunks. Each worker *owns* its nodes' state outright — node state is
//! never behind a lock — and every node has an unbounded channel as its
//! inbox (the vendored `crossbeam` channel: a mutex-guarded queue plus a
//! condition variable, so a send or receive takes that inbox's lock once).
//! Each global step executes as:
//!
//! 1. **assemble** — for every owned node scheduled to send, the source
//!    [`emit`](StepSource::emit)s the step's blocks and the executor
//!    frames them into one combined wire message (sequence-numbered and
//!    CRC32-protected). Fault-free, the frame is **scatter-gather**
//!    ([`WireFrame::Gathered`]): only the headers are written (into a
//!    pooled buffer — see [`FramePool`]), the payloads travel as shared
//!    [`Bytes`] handles, so combining never copies a payload byte;
//! 2. **transport** — push the message into the destination's inbox
//!    (never blocks), then receive exactly the messages the static
//!    schedule says each owned node is due (possibly empty ones — the
//!    paper's idle senders), split them zero-copy, hand the blocks to the
//!    source's [`absorb`](StepSource::absorb), and return the frame's
//!    buffers to the receiving worker's pool;
//! 3. **synchronize** — a two-phase [`Barrier`] rendezvous with the
//!    driving thread. The first crossing marks "all step traffic
//!    delivered" (the driver timestamps the step and snapshots node state
//!    for the observer hook); the second releases everyone into the next
//!    step, so messages from step `s + 1` never interleave with step `s`.
//!
//! After a phase whose [`PhaseMeta::rearrange_after`] is set, workers run
//! the source's [`rearrange`](StepSource::rearrange) pass, again bracketed
//! by the two-barrier rendezvous.
//!
//! # Fault tolerance
//!
//! When the configured [`FaultPlan`] is non-empty the send path switches
//! to the canonical contiguous encoding (injected corruption and
//! truncation need well-defined frame bytes to mutate, and the retained
//! resend copy must be immutable) and the receive path from a blocking
//! wait to a deadline + bounded-retry loop: every sender retains its
//! pristine frame for the step, a receiver whose deadline expires (or
//! whose frame fails the CRC/framing/sequence checks) pulls the retained
//! copy — a modeled NACK + retransmission — with exponential backoff
//! between attempts. A receiver hands the source exactly one valid frame
//! per step: duplicates and stragglers carry an earlier sequence number
//! and are drained and discarded, which is what keeps a combining
//! receive exactly-once under recovery. Exhausting the retry budget,
//! losing a channel endpoint, an injected worker kill, or an external
//! [`CancelToken`] trigger flips a shared abort flag (first failure
//! wins); every worker then falls through its remaining barriers doing no
//! work, so an aborted run still joins cleanly, leaks no threads, and
//! yields a partial report inside [`RuntimeError::Aborted`] naming the
//! faulty node, phase, and step.
//!
//! Fault-free runs never block on a send and match every receive to a
//! scheduled send, so the protocol is deadlock-free by construction;
//! determinism across worker counts follows from the per-step barriers
//! plus the fixed ownership partition.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

use alltoall_core::Block;
use bytes::Bytes;
use cost_model::CompletionTime;
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use torus_sim::{StepStat, Trace};
use torus_topology::NodeId;

use crate::cancel::{CancelKind, CancelToken};
use crate::fault::{FaultEvent, FaultEventKind, FaultKind, FaultPlan, WorkerFaultKind};
use crate::message::{
    decode_gathered, decode_message, encode_gathered, encode_message, WireError, WireFrame,
    BLOCK_HEADER_BYTES, MESSAGE_HEADER_BYTES,
};
use crate::pool::{FramePool, PoolBank};
use crate::recovery::{merge_events, FailureReason, NodeFailure, RecoveryStats, RetryPolicy};
use crate::report::{PhaseReport, RuntimeReport};
use crate::runtime::RuntimeConfig;
use crate::workers::{lk, panic_message, WorkerPool};
use crate::RuntimeError;

/// One phase of a schedule, as far as the executor needs to know it.
pub(crate) struct PhaseMeta {
    /// Phase label, reported in traces, phase reports and failures.
    pub(crate) name: String,
    /// Nominal hop count of each step; the length is the step count.
    pub(crate) hops: Vec<u32>,
    /// Whether [`StepSource::rearrange`] runs after the phase's last step.
    pub(crate) rearrange_after: bool,
}

/// A schedule the executor can run: what each node sends in each global
/// step, and what a receiver does with what arrives.
///
/// The executor guarantees a source that, per global step `g` and in this
/// order, it calls [`enter_step`](Self::enter_step) for every node, then
/// [`emit`](Self::emit) for every node with a destination, then
/// [`absorb`](Self::absorb) **at most once** per node with exactly the
/// blocks its scheduled sender emitted in step `g` — never a duplicate, a
/// straggler, or a corrupted frame. Steps are barrier-ordered, so these
/// calls see the same node state at any worker count.
pub(crate) trait StepSource: Send + Sync + 'static {
    /// One node's resident state.
    type Node: Clone + Default + Send + 'static;

    /// Whether an injected worker kill is already accounted for by the
    /// schedule (the node is quarantined in it) instead of aborting.
    const ABSORBS_KILLS: bool = false;

    /// The phase grid: labels, per-step hops, rearrangement points.
    fn phases(&self) -> &[PhaseMeta];

    /// Where `node` sends in global step `g`; `None` if it idles. At most
    /// one node may name any given destination per step.
    fn dst(&self, g: usize, node: NodeId) -> Option<NodeId>;

    /// Step-entry housekeeping on `node`'s state, before any send.
    fn enter_step(&self, _g: usize, _node: NodeId, _state: &mut Self::Node) {}

    /// Moves (or copies) the blocks `node` ships in step `g` into `out`.
    /// Called only when [`dst`](Self::dst) is `Some`.
    fn emit(&self, g: usize, node: NodeId, state: &mut Self::Node, out: &mut Vec<Block<Bytes>>);

    /// Takes delivery of one step's blocks, draining `incoming`.
    fn absorb(&self, state: &mut Self::Node, incoming: &mut Vec<Block<Bytes>>);

    /// Payload bytes resident in `state` (for peak-residency tracking).
    fn resident(&self, state: &Self::Node) -> u64;

    /// The inter-phase pass on one node, accounted into `side`.
    /// `contiguous_frames` is the executor's own knowledge of the frame
    /// shape this run receives: `true` under a fault plan, where absorbed
    /// payloads are slices of whole received frames; `false` on the
    /// gathered path, where every payload is an individually owned
    /// handle.
    fn rearrange(&self, _state: &mut Self::Node, _contiguous_frames: bool, _side: &mut PhaseSide) {}
}

/// Per-worker, per-global-step measurement.
#[derive(Clone, Copy, Default)]
struct StepSide {
    messages: u64,
    blocks: u64,
    max_blocks: u64,
    retries: u64,
}

/// Per-worker, per-phase measurement.
#[derive(Clone, Copy, Default)]
pub(crate) struct PhaseSide {
    assembly_send: Duration,
    assembly_recv: Duration,
    transport: Duration,
    wire_bytes: u64,
    bytes_copied: u64,
    messages: u64,
    pub(crate) rearrange: Duration,
    pub(crate) rearranged_bytes: u64,
    pub(crate) allocations: u64,
    pub(crate) rearr_blocks_max: u64,
}

/// Everything one worker measured, returned at join.
struct WorkerStats {
    phase: Vec<PhaseSide>,
    steps: Vec<StepSide>,
    peak_bytes: u64,
    faults: RecoveryStats,
    events: Vec<FaultEvent>,
}

/// How a run executes its worker tasks.
#[derive(Clone, Copy)]
pub(crate) enum ExecBackend<'p> {
    /// Spawn fresh threads and join them at run end — the classic
    /// one-shot measurement path.
    Spawn,
    /// Reserve a gang of persistent threads from a [`WorkerPool`],
    /// optionally recycling warm [`FramePool`]s through a [`PoolBank`] —
    /// the service path, where threads park between jobs instead of
    /// being respawned.
    Pool(&'p WorkerPool, Option<&'p PoolBank>),
}

/// A step or rearrangement boundary reported to the observer hook
/// (`phase` is an index into [`StepSource::phases`], `step` is 1-based).
pub(crate) enum Boundary {
    Step { phase: usize, step: usize },
    Rearranged { phase: usize },
}

/// Called by the driving thread at every boundary with a snapshot of
/// every node's state, node-indexed.
pub(crate) type Hook<'h, N> = &'h mut dyn FnMut(Boundary, Vec<N>);

/// The worker count `config` resolves to for `nn` nodes on the spawn
/// path; pooled runs additionally clamp to the pool's size.
pub(crate) fn effective_workers(config: &RuntimeConfig, nn: usize) -> usize {
    config
        .workers
        .unwrap_or_else(torus_sim::default_threads)
        .clamp(1, nn)
}

/// One flipped byte at a deterministic offset — the payload of
/// [`FaultKind::CorruptByte`].
fn corrupt_frame(frame: &Bytes, offset: usize) -> Bytes {
    let mut v = frame.to_vec();
    if !v.is_empty() {
        let at = offset % v.len();
        v[at] ^= 0x01;
    }
    Bytes::from(v)
}

/// Keeps only the first half of the frame — [`FaultKind::Truncate`].
fn truncate_frame(frame: &Bytes) -> Bytes {
    frame.slice(..frame.len() / 2)
}

/// The per-run state every worker task shares.
///
/// Owned or reference-counted (`'static`) rather than scope-borrowed, so
/// the same worker body runs both on freshly spawned threads and on a
/// persistent [`WorkerPool`] whose tasks outlive any stack frame. One
/// `RunShared` exists per run: its abort flag, failure slot, retained
/// frames, and channels are born and die with the job, which is what
/// isolates one job's abort or quarantine from every other job sharing
/// the pool.
struct RunShared<S: StepSource> {
    source: Arc<S>,
    faults: FaultPlan,
    retry: RetryPolicy,
    /// `expect_from[g][node]`: who `node` receives from in global step `g`.
    expect_from: Vec<Vec<Option<NodeId>>>,
    /// Failure context: global step -> (phase label, 1-based step).
    step_ctx: Vec<(String, usize)>,
    /// Per-node inbox senders (any worker may deliver to any node).
    senders: Vec<Sender<WireFrame>>,
    /// Per-destination retained resend frame for the current step.
    retained: Vec<Mutex<Option<Bytes>>>,
    abort: AtomicBool,
    /// External cancellation trigger, observed cooperatively by workers.
    cancel: Option<CancelToken>,
    failure_slot: Mutex<Option<NodeFailure>>,
    barrier: Barrier,
    /// Node-state snapshots for the observer hook, one per node; empty
    /// when nobody observes, and then never written.
    snapshots: Vec<Mutex<S::Node>>,
}

impl<S: StepSource> RunShared<S> {
    /// Records the first unrecoverable failure and raises the abort flag.
    fn fail(&self, node: NodeId, g: usize, reason: FailureReason) {
        let mut slot = lk(&self.failure_slot);
        if slot.is_none() {
            let (phase, step) = self.step_ctx[g].clone();
            *slot = Some(NodeFailure {
                node,
                phase,
                step,
                global_step: g,
                reason,
            });
        }
        self.abort.store(true, Ordering::SeqCst);
    }

    /// Polls the external cancellation token (if any) and converts a
    /// trigger into the run's first-failure-wins abort, attributed to
    /// `node` at global step `g`. Returns `true` when the run is (now)
    /// aborting for any reason, so call sites can fold this into their
    /// existing skip checks.
    fn observe_cancel(&self, node: NodeId, g: usize) -> bool {
        if let Some(token) = &self.cancel {
            if let Some(kind) = token.kind() {
                let reason = match kind {
                    CancelKind::Cancelled => FailureReason::Cancelled,
                    CancelKind::DeadlineExceeded => FailureReason::DeadlineExceeded,
                };
                self.fail(node, g, reason);
                return true;
            }
        }
        self.abort.load(Ordering::Acquire)
    }

    /// Applies the fault plan to one transmission of `frame` (`attempt`
    /// 0 is the original send, `>= 1` a retained-frame fetch), recording
    /// every injected fault. Returns what actually reaches the receiver:
    /// nothing if dropped, two copies if duplicated, possibly mutated.
    #[allow(clippy::too_many_arguments)]
    fn inject(
        &self,
        g: usize,
        src: NodeId,
        dst: NodeId,
        attempt: u32,
        frame: Bytes,
        counters: &mut RecoveryStats,
        events: &mut Vec<FaultEvent>,
    ) -> Vec<Bytes> {
        let faults = &self.faults;
        let mut deliver = vec![frame];
        for kind in faults.message_faults(g, src, dst, attempt) {
            events.push(FaultEvent {
                step: g,
                src,
                dst,
                attempt,
                kind: FaultEventKind::Message(kind),
            });
            match kind {
                FaultKind::Drop => {
                    counters.injected_drops += 1;
                    deliver.clear();
                }
                FaultKind::DelayMicros(us) => {
                    counters.injected_delays += 1;
                    std::thread::sleep(Duration::from_micros(us));
                }
                FaultKind::Duplicate => {
                    counters.injected_duplicates += 1;
                    if let Some(f) = deliver.first().cloned() {
                        deliver.push(f);
                    }
                }
                FaultKind::CorruptByte => {
                    counters.injected_corruptions += 1;
                    let len = deliver.first().map_or(0, Bytes::len);
                    let off = faults.corrupt_offset(g, src, dst, len);
                    deliver = deliver.iter().map(|f| corrupt_frame(f, off)).collect();
                }
                FaultKind::Truncate => {
                    counters.injected_truncations += 1;
                    deliver = deliver.iter().map(truncate_frame).collect();
                }
            }
        }
        deliver
    }

    /// The deadline + bounded-retry receive loop (fault plans only).
    ///
    /// Waits on the inbox with a deadline; on timeout, CRC/framing
    /// failure, or a stale sequence from a resend, pulls the sender's
    /// retained pristine frame (a modeled NACK + retransmission) with
    /// exponential backoff. Returns the step's blocks, or `None` if the
    /// run aborted (this receive's own budget exhausting is one way that
    /// happens).
    #[allow(clippy::too_many_arguments)]
    fn recover_recv(
        &self,
        rx: &Receiver<WireFrame>,
        me: NodeId,
        src: NodeId,
        g: usize,
        counters: &mut RecoveryStats,
        events: &mut Vec<FaultEvent>,
        step_retries: &mut u64,
    ) -> Option<Vec<Block<Bytes>>> {
        let policy = self.retry;
        // `cycles` counts *failed* recovery cycles: it charges the retry
        // budget only when a recovery attempt itself came up empty or
        // invalid, so a single drop healed by the first resend costs
        // nothing. `fetches` numbers retained-buffer fetches 1-based —
        // the "attempt" coordinate resend faults are pinned to.
        let mut cycles = 0u32;
        let mut fetches = 0u32;
        let mut needed_recovery = false;
        let blocks = loop {
            if self.observe_cancel(me, g) {
                break None;
            }
            if cycles > policy.max_retries {
                self.fail(me, g, FailureReason::RetryExhausted { src });
                break None;
            }
            let wait = if cycles == 0 {
                policy.deadline
            } else {
                policy.backoff_for(cycles)
            };
            let mut via_resend = false;
            let raw = match self.recv_sliced(rx, wait) {
                // Under a fault plan senders always transmit contiguous
                // frames; normalize defensively so validation below
                // always sees canonical bytes.
                Ok(frame) => Some(frame.to_bytes()),
                Err(RecvTimeoutError::Disconnected) => {
                    self.fail(me, g, FailureReason::ChannelClosed);
                    break None;
                }
                Err(RecvTimeoutError::Timeout) => {
                    counters.timeouts += 1;
                    needed_recovery = true;
                    via_resend = true;
                    // The sender may not have retained this step's frame
                    // yet (stalled peer); then retry after backoff. The
                    // retransmission itself can be faulted (explicitly
                    // pinned attempts >= 1 — how the tests provoke budget
                    // exhaustion); a duplicated resend is still one fetch.
                    let frame = lk(&self.retained[me as usize]).clone();
                    frame.and_then(|frame| {
                        fetches += 1;
                        counters.resends += 1;
                        self.inject(g, src, me, fetches, frame, counters, events)
                            .into_iter()
                            .next()
                    })
                }
            };
            let charged = match raw.map(|raw| decode_message(&raw)) {
                // Nothing arrived and nothing could be fetched.
                None => true,
                Some(Ok((seq, blocks))) if seq as usize == g => break Some(blocks),
                Some(Ok(_)) => {
                    // Wrong sequence number: a duplicate or over-deadline
                    // straggler from an earlier step (drain it free — the
                    // inbox backlog is finite), or a stale retained frame
                    // from a dead sender (charge the budget, or this
                    // could spin forever). Only the matching sequence is
                    // ever handed to the source.
                    counters.stale_discarded += 1;
                    via_resend
                }
                Some(Err(e)) => {
                    match e {
                        WireError::Crc { .. } => counters.crc_failures += 1,
                        _ => counters.decode_failures += 1,
                    }
                    needed_recovery = true;
                    true
                }
            };
            if charged {
                cycles += 1;
                counters.retries += 1;
                *step_retries += 1;
            }
        };
        if blocks.is_some() && needed_recovery {
            counters.recovered += 1;
        }
        blocks
    }

    /// `recv_timeout(wait)`, but sliced into bounded chunks when a
    /// cancellation token is installed, so a worker parked on a long
    /// retry deadline still notices an external cancel within ~20 ms.
    /// An observed trigger surfaces as a timeout; the caller's loop head
    /// converts it into the typed abort.
    fn recv_sliced(
        &self,
        rx: &Receiver<WireFrame>,
        wait: Duration,
    ) -> Result<WireFrame, RecvTimeoutError> {
        let Some(token) = &self.cancel else {
            return rx.recv_timeout(wait);
        };
        let deadline = Instant::now() + wait;
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Err(RecvTimeoutError::Timeout);
            }
            match rx.recv_timeout(left.min(Duration::from_millis(20))) {
                Err(RecvTimeoutError::Timeout) => {
                    if token.is_triggered() || self.abort.load(Ordering::Acquire) {
                        return Err(RecvTimeoutError::Timeout);
                    }
                }
                other => return other,
            }
        }
    }

    /// The fault-free receive: a scheduled frame is always sent, so a
    /// blocking receive cannot deadlock. With a cancel token installed a
    /// peer may observe the trigger at step entry and skip its sends, so
    /// the receive must poll the abort state instead of blocking forever
    /// on a frame that will never come.
    fn recv_scheduled(&self, rx: &Receiver<WireFrame>, me: NodeId, g: usize) -> Option<WireFrame> {
        let closed = || {
            self.fail(me, g, FailureReason::ChannelClosed);
            None
        };
        if self.cancel.is_none() {
            return rx.recv().ok().or_else(closed);
        }
        loop {
            match rx.recv_timeout(Duration::from_millis(20)) {
                Ok(frame) => return Some(frame),
                Err(RecvTimeoutError::Timeout) => {
                    if self.observe_cancel(me, g) {
                        return None;
                    }
                }
                Err(RecvTimeoutError::Disconnected) => return closed(),
            }
        }
    }

    /// Fires the worker faults pinned to global step `g` on the nodes
    /// `base .. base + len`. Returns `true` if the worker was killed.
    fn worker_faults(&self, g: usize, base: usize, len: usize, stats: &mut WorkerStats) -> bool {
        let mut killed = false;
        for node in (base..base + len).map(|n| n as NodeId) {
            let Some(wf) = self.faults.worker_fault(g, node) else {
                continue;
            };
            stats.events.push(FaultEvent {
                step: g,
                src: node,
                dst: node,
                attempt: 0,
                kind: FaultEventKind::Worker(wf),
            });
            match wf {
                WorkerFaultKind::Kill => {
                    stats.faults.injected_kills += 1;
                    // A schedule that already quarantined the node (its
                    // sends and receives are gone) absorbs the kill: the
                    // worker must stay alive to route salvaged survivor
                    // blocks out.
                    if !S::ABSORBS_KILLS {
                        self.fail(node, g, FailureReason::WorkerKilled { node });
                        killed = true;
                    }
                }
                WorkerFaultKind::StallMicros(us) => {
                    stats.faults.injected_stalls += 1;
                    // Sleep in bounded slices, polling the abort flag and
                    // the cancellation token, so an externally stopped
                    // run is not pinned for the stall's full duration.
                    let stall_until = Instant::now() + Duration::from_micros(us);
                    while !self.observe_cancel(node, g) {
                        let left = stall_until.saturating_duration_since(Instant::now());
                        if left.is_zero() {
                            break;
                        }
                        std::thread::sleep(left.min(Duration::from_millis(1)));
                    }
                }
            }
        }
        killed
    }
}

/// One worker task: executes every step of the schedule for its
/// contiguous chunk of nodes (`base ..`), returning its measurements, its
/// frame pool (warm, for recycling through a [`PoolBank`]) and its nodes'
/// final state.
///
/// Runs identically on a spawned thread ([`ExecBackend::Spawn`]) or a
/// persistent pool thread ([`ExecBackend::Pool`]); everything it touches
/// lives in [`RunShared`] or is moved in.
fn worker_body<S: StepSource>(
    shared: &RunShared<S>,
    base: usize,
    mut nodes: Vec<S::Node>,
    rxs: Vec<Receiver<WireFrame>>,
    mut pool: FramePool,
) -> (WorkerStats, FramePool, Vec<S::Node>) {
    let source = &*shared.source;
    let phases = source.phases();
    let no_faults = shared.faults.is_empty();
    let senders = &shared.senders[..];
    let retained = &shared.retained[..];
    let barrier = &shared.barrier;
    let snapshot = |nodes: &[S::Node]| {
        if !shared.snapshots.is_empty() {
            for (li, state) in nodes.iter().enumerate() {
                *lk(&shared.snapshots[base + li]) = state.clone();
            }
        }
    };

    let mut stats = WorkerStats {
        phase: vec![PhaseSide::default(); phases.len()],
        steps: vec![StepSide::default(); shared.step_ctx.len()],
        peak_bytes: 0,
        faults: RecoveryStats::default(),
        events: Vec::new(),
    };
    // Recycled scratch: with the frame pool these reach steady state
    // after the first step or two and stop allocating.
    let mut outgoing: Vec<Block<Bytes>> = Vec::new();
    let mut incoming: Vec<Block<Bytes>> = Vec::new();
    // A killed worker turns into a zombie: it does no work but keeps
    // crossing barriers so nothing deadlocks.
    let mut dead = false;
    let mut g = 0usize;
    for (pi, ph) in phases.iter().enumerate() {
        for _ in &ph.hops {
            if !no_faults && !dead {
                dead = shared.worker_faults(g, base, nodes.len(), &mut stats);
            }
            if !(dead || shared.observe_cancel(base as NodeId, g)) {
                let pstats = &mut stats.phase[pi];
                let sstats = &mut stats.steps[g];

                for (li, state) in nodes.iter_mut().enumerate() {
                    source.enter_step(g, (base + li) as NodeId, state);
                }

                // Assemble and send for every owned scheduled sender.
                for (li, state) in nodes.iter_mut().enumerate() {
                    let node = (base + li) as NodeId;
                    let Some(dst) = source.dst(g, node) else {
                        continue;
                    };
                    let t0 = Instant::now();
                    outgoing.clear();
                    source.emit(g, node, state, &mut outgoing);
                    let msg = if no_faults {
                        // Zero-copy: headers into a pooled buffer,
                        // payloads shared by handle.
                        let framing_len =
                            MESSAGE_HEADER_BYTES + outgoing.len() * BLOCK_HEADER_BYTES;
                        let allocs = pool.allocations();
                        let frame = encode_gathered(
                            g as u32,
                            &outgoing,
                            pool.take_buf(framing_len),
                            pool.take_vec(),
                        );
                        pstats.allocations += pool.allocations() - allocs;
                        pstats.bytes_copied += framing_len as u64;
                        frame
                    } else {
                        // Fault plans need mutable frame bytes (and an
                        // immutable retained copy), so materialize the
                        // canonical layout.
                        let bytes = encode_message(g as u32, &outgoing);
                        pstats.allocations += 1;
                        pstats.bytes_copied += bytes.len() as u64;
                        WireFrame::Contiguous(bytes)
                    };
                    let assembled = Instant::now();
                    pstats.assembly_send += assembled - t0;
                    sstats.messages += 1;
                    sstats.blocks += outgoing.len() as u64;
                    sstats.max_blocks = sstats.max_blocks.max(outgoing.len() as u64);
                    // Wire accounting is for the pristine frame; injected
                    // mutations don't change the schedule's cost.
                    pstats.wire_bytes += msg.wire_len() as u64;
                    pstats.messages += 1;
                    let delivered = if no_faults {
                        senders[dst as usize].send(msg).is_ok()
                    } else {
                        let msg = msg.to_bytes();
                        // Retain the pristine frame so the receiver can
                        // recover it; then mutate what actually goes on
                        // the wire.
                        *lk(&retained[dst as usize]) = Some(msg.clone());
                        shared
                            .inject(g, node, dst, 0, msg, &mut stats.faults, &mut stats.events)
                            .into_iter()
                            .all(|f| senders[dst as usize].send(WireFrame::Contiguous(f)).is_ok())
                    };
                    if !delivered {
                        shared.fail(node, g, FailureReason::ChannelClosed);
                    }
                    pstats.transport += assembled.elapsed();
                }

                // Receive exactly the scheduled traffic, split it
                // zero-copy, and track residency.
                for (li, state) in nodes.iter_mut().enumerate() {
                    let me = (base + li) as NodeId;
                    if let Some(src) = shared.expect_from[g][base + li] {
                        let t0 = Instant::now();
                        if no_faults {
                            let frame = shared.recv_scheduled(&rxs[li], me, g);
                            let received = Instant::now();
                            pstats.transport += received - t0;
                            // Self-produced frames never fail to decode;
                            // without a fault plan there is no retained
                            // copy to retry from, so a wire error here is
                            // unrecoverable and named exactly.
                            let decoded = frame.map(|frame| match frame {
                                WireFrame::Gathered {
                                    framing,
                                    mut payloads,
                                } => decode_gathered(&framing, &mut payloads, &mut incoming).map(
                                    |_| {
                                        // Keep the pools warm: the
                                        // receiver recycles the sender's
                                        // buffers.
                                        pool.put_buf(framing);
                                        pool.put_vec(payloads);
                                    },
                                ),
                                WireFrame::Contiguous(raw) => decode_message(&raw)
                                    .map(|(_, mut blocks)| incoming.append(&mut blocks)),
                            });
                            match decoded {
                                None => {}
                                Some(Ok(())) => {
                                    source.absorb(state, &mut incoming);
                                    pstats.assembly_recv += received.elapsed();
                                }
                                Some(Err(e)) => {
                                    match e {
                                        WireError::Crc { .. } => stats.faults.crc_failures += 1,
                                        _ => stats.faults.decode_failures += 1,
                                    }
                                    shared.fail(me, g, FailureReason::Integrity { src, error: e });
                                }
                            }
                        } else {
                            let blocks = shared.recover_recv(
                                &rxs[li],
                                me,
                                src,
                                g,
                                &mut stats.faults,
                                &mut stats.events,
                                &mut sstats.retries,
                            );
                            let received = Instant::now();
                            pstats.transport += received - t0;
                            if let Some(mut blocks) = blocks {
                                source.absorb(state, &mut blocks);
                                pstats.assembly_recv += received.elapsed();
                            }
                        }
                    }
                    let mut resident = source.resident(state);
                    if !no_faults {
                        // The frame retained for this node's recovery is
                        // resident memory too (the fault-free path
                        // retains nothing and skips this lock).
                        resident += lk(&retained[base + li])
                            .as_ref()
                            .map_or(0, |f| f.len() as u64);
                    }
                    stats.peak_bytes = stats.peak_bytes.max(resident);
                }

                snapshot(&nodes);
            }
            g += 1;
            barrier.wait(); // step traffic complete
            barrier.wait(); // released into the next step
        }

        if ph.rearrange_after {
            if !(dead || shared.abort.load(Ordering::Acquire)) {
                for state in nodes.iter_mut() {
                    source.rearrange(state, !no_faults, &mut stats.phase[pi]);
                }
                snapshot(&nodes);
            }
            barrier.wait(); // rearrangement complete
            barrier.wait();
        }
    }
    (stats, pool, nodes)
}

/// The driving thread's half of the run: mirror every barrier the
/// workers cross, timestamping steps and phases and feeding the observer
/// hook. Crosses every barrier unconditionally, so it never hangs even
/// when workers are skipping an aborted run.
fn drive_barriers<S: StepSource>(
    shared: &RunShared<S>,
    mut hook: Option<Hook<'_, S::Node>>,
) -> (Vec<Duration>, Vec<Duration>, Duration) {
    let mut observe = |at: Boundary| {
        if let Some(hook) = hook.as_mut() {
            hook(at, shared.snapshots.iter().map(|m| lk(m).clone()).collect());
        }
    };
    let t_run = Instant::now();
    let phases = shared.source.phases();
    let mut phase_walls = Vec::with_capacity(phases.len());
    let mut step_walls = Vec::with_capacity(shared.step_ctx.len());
    for (phase, ph) in phases.iter().enumerate() {
        let t_phase = Instant::now();
        for si in 0..ph.hops.len() {
            let t_step = Instant::now();
            shared.barrier.wait();
            step_walls.push(t_step.elapsed());
            observe(Boundary::Step {
                phase,
                step: si + 1,
            });
            shared.barrier.wait();
        }
        if ph.rearrange_after {
            shared.barrier.wait();
            observe(Boundary::Rearranged { phase });
            shared.barrier.wait();
        }
        phase_walls.push(t_phase.elapsed());
    }
    (phase_walls, step_walls, t_run.elapsed())
}

/// What a run measured and left behind, before a front-end stamps its
/// identity on it.
pub(crate) struct Outcome<N> {
    /// Per-step trace (step walls in `time_us`).
    pub(crate) trace: Trace,
    /// Every node's final state, node-indexed. Meaningful only when the
    /// run did not fail.
    finals: Vec<N>,
    workers: usize,
    wall: Duration,
    phases: Vec<PhaseReport>,
    peak_node_bytes: u64,
    faults: RecoveryStats,
    fault_events: Vec<FaultEvent>,
    failure: Option<NodeFailure>,
}

/// The front-end's half of a [`RuntimeReport`]: what was asked for, as
/// opposed to what the executor measured.
pub(crate) struct ReportIdent {
    pub(crate) dims: Vec<u32>,
    pub(crate) executed_dims: Vec<u32>,
    pub(crate) padded: bool,
    pub(crate) nodes: u32,
    pub(crate) block_bytes: usize,
    pub(crate) analytic: CompletionTime,
}

impl<N> Outcome<N> {
    /// Assembles the report (`verified` and `degraded` are left for the
    /// front-end's verification to fill in). An unrecoverable failure
    /// becomes the typed error carrying the partial report measured up to
    /// the abort; otherwise the report comes back with the final node
    /// states.
    pub(crate) fn into_report(
        self,
        ident: ReportIdent,
    ) -> Result<(RuntimeReport, Vec<N>), RuntimeError> {
        let total = |f: fn(&PhaseReport) -> u64| self.phases.iter().map(f).sum();
        let report = RuntimeReport {
            dims: ident.dims,
            executed_dims: ident.executed_dims,
            padded: ident.padded,
            nodes: ident.nodes,
            block_bytes: ident.block_bytes,
            workers: self.workers,
            wall: self.wall,
            wire_bytes: total(|p| p.wire_bytes),
            rearranged_bytes: total(|p| p.rearranged_bytes),
            bytes_copied: total(|p| p.bytes_copied),
            allocations: total(|p| p.allocations),
            peak_node_bytes: self.peak_node_bytes,
            messages: total(|p| p.messages),
            phases: self.phases,
            verified: false,
            faults: self.faults,
            fault_events: self.fault_events,
            failure: self.failure.clone(),
            degraded: None,
            analytic: ident.analytic,
            trace: self.trace,
        };
        match self.failure {
            None => Ok((report, self.finals)),
            Some(fi) => Err(match fi.reason {
                FailureReason::ChannelClosed => RuntimeError::ChannelClosed {
                    node: fi.node,
                    phase: fi.phase,
                    step: fi.step,
                },
                _ => RuntimeError::Aborted {
                    failure: fi,
                    report: Box::new(report),
                },
            }),
        }
    }
}

/// Runs `source` to completion (or abort) over `nodes`, one entry per
/// node, under `config`'s worker count, fault plan, retry policy and
/// cancel token. `hook`, when present, sees every step and rearrangement
/// boundary. Errors only if a worker panicked; an injected or external
/// failure is reported through [`Outcome::into_report`].
pub(crate) fn execute<S: StepSource>(
    source: Arc<S>,
    config: &RuntimeConfig,
    backend: ExecBackend<'_>,
    nodes: Vec<S::Node>,
    hook: Option<Hook<'_, S::Node>>,
) -> Result<Outcome<S::Node>, RuntimeError> {
    let nn = nodes.len();
    // A pooled run can use at most the pool's threads: a gang larger
    // than the pool could never be scheduled.
    let workers = match backend {
        ExecBackend::Spawn => effective_workers(config, nn),
        ExecBackend::Pool(pool, _) => effective_workers(config, nn).min(pool.size()),
    };
    let chunk = nn.div_ceil(workers);
    let n_chunks = nn.div_ceil(chunk);

    // Static receive expectations: in global step `g`, node `d` receives
    // from `expect_from[g][d]` (the schedule has at most one sender per
    // destination per step).
    let mut expect_from: Vec<Vec<Option<NodeId>>> = Vec::new();
    let mut step_ctx: Vec<(String, usize)> = Vec::new();
    for ph in source.phases() {
        for si in 0..ph.hops.len() {
            let g = step_ctx.len();
            let mut from = vec![None; nn];
            for node in 0..nn as NodeId {
                if let Some(dst) = source.dst(g, node) {
                    from[dst as usize] = Some(node);
                }
            }
            expect_from.push(from);
            step_ctx.push((ph.name.clone(), si + 1));
        }
    }

    // Per-node inboxes. Senders are shared (any worker may deliver to
    // any node); each receiver is owned by the node's worker.
    let (senders, receivers): (Vec<_>, Vec<_>) = (0..nn).map(|_| unbounded::<WireFrame>()).unzip();

    // The per-run shared context: owned/reference-counted so worker
    // tasks are `'static` and can execute on persistent pool threads as
    // well as spawned ones. Dropped at the end of the run, taking the
    // abort flag, retained frames, failure record, and channels with it
    // — one job's failure state cannot leak into the next job on a
    // shared pool.
    let shared = Arc::new(RunShared {
        source,
        faults: config.faults.clone(),
        retry: config.retry,
        expect_from,
        step_ctx,
        senders,
        retained: (0..nn).map(|_| Mutex::new(None)).collect(),
        abort: AtomicBool::new(false),
        cancel: config.cancel.clone(),
        failure_slot: Mutex::new(None),
        barrier: Barrier::new(n_chunks + 1),
        snapshots: (0..if hook.is_some() { nn } else { 0 })
            .map(|_| Mutex::new(S::Node::default()))
            .collect(),
    });

    // Execute: workers run the schedule, the driving thread mirrors the
    // barrier sequence to measure walls and feed the hook.
    let mut nodes = nodes.into_iter();
    let mut receivers = receivers.into_iter();
    let tasks = (0..n_chunks).map(|ci| {
        let base = ci * chunk;
        let take = chunk.min(nn - base);
        let nodes: Vec<S::Node> = nodes.by_ref().take(take).collect();
        let rxs: Vec<_> = receivers.by_ref().take(take).collect();
        let shared = Arc::clone(&shared);
        move |fp| worker_body(&shared, base, nodes, rxs, fp)
    });
    let walls;
    let results: Vec<Result<_, String>> = match backend {
        ExecBackend::Spawn => {
            let handles: Vec<_> = tasks
                .map(|task| std::thread::spawn(move || task(FramePool::new())))
                .collect();
            walls = drive_barriers(&shared, hook);
            handles
                .into_iter()
                .map(|h| h.join().map_err(|p| panic_message(&*p)))
                .collect()
        }
        ExecBackend::Pool(pool, bank) => {
            // Atomically reserve all n_chunks threads (gang scheduling):
            // the run's tasks share a barrier, so a partial schedule
            // would deadlock.
            let mut gang = pool.gang(n_chunks);
            for task in tasks {
                let fp = bank.map(PoolBank::take).unwrap_or_default();
                gang.spawn(move || task(fp));
            }
            walls = drive_barriers(&shared, hook);
            gang.join()
        }
    };
    let (phase_walls, step_walls, wall) = walls;
    let mut stats: Vec<WorkerStats> = Vec::with_capacity(n_chunks);
    let mut finals: Vec<S::Node> = Vec::with_capacity(nn);
    for result in results {
        let (ws, fp, nodes) = result.map_err(RuntimeError::WorkerPanicked)?;
        // Check the warm frame pool back in for the next job on the bank.
        if let ExecBackend::Pool(_, Some(bank)) = backend {
            bank.put(fp);
        }
        stats.push(ws);
        finals.extend(nodes);
    }

    // Aggregate worker measurements into the phase reports and trace.
    let mut trace = Trace::default();
    let mut phase_reports = Vec::new();
    let mut g = 0usize;
    for (pi, ph) in shared.source.phases().iter().enumerate() {
        trace.begin_phase(&ph.name);
        for &hops in &ph.hops {
            let mut step = StepStat {
                max_hops: hops,
                time_us: step_walls[g].as_secs_f64() * 1e6,
                ..Default::default()
            };
            for w in &stats {
                step.messages += w.steps[g].messages as u32;
                step.total_blocks += w.steps[g].blocks;
                step.max_blocks = step.max_blocks.max(w.steps[g].max_blocks);
                step.retries += w.steps[g].retries;
            }
            trace.record_step(step);
            g += 1;
        }
        let mut pr = PhaseReport {
            name: ph.name.clone(),
            steps: ph.hops.len(),
            wall: phase_walls[pi],
            ..Default::default()
        };
        let mut rearr_max = 0u64;
        for w in &stats {
            let side = &w.phase[pi];
            pr.assembly_send += side.assembly_send;
            pr.assembly_recv += side.assembly_recv;
            pr.transport += side.transport;
            pr.rearrange += side.rearrange;
            pr.wire_bytes += side.wire_bytes;
            pr.rearranged_bytes += side.rearranged_bytes;
            pr.bytes_copied += side.bytes_copied;
            pr.allocations += side.allocations;
            pr.messages += side.messages;
            rearr_max = rearr_max.max(side.rearr_blocks_max);
        }
        if ph.rearrange_after {
            trace.record_rearrangement(rearr_max);
        }
        phase_reports.push(pr);
    }

    let mut faults = RecoveryStats::default();
    for w in &stats {
        faults.merge(&w.faults);
    }
    let failure = lk(&shared.failure_slot).take();
    Ok(Outcome {
        trace,
        finals,
        workers,
        wall,
        phases: phase_reports,
        peak_node_bytes: stats.iter().map(|w| w.peak_bytes).max().unwrap_or(0),
        faults,
        fault_events: merge_events(stats.into_iter().map(|w| w.events).collect()),
        failure,
    })
}
