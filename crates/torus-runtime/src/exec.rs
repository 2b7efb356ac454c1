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
//!    CRC32-protected). The frame is **scatter-gather**
//!    ([`WireFrame::Gathered`]): only the headers are written (into a
//!    pooled buffer — see [`FramePool`]), the payloads travel as shared
//!    [`Bytes`] handles, so combining never copies a payload byte;
//! 2. **transport** — push the message into the destination's inbox
//!    (never blocks), then receive exactly the messages the static
//!    schedule says each owned node is due (possibly empty ones — the
//!    paper's idle senders), split them zero-copy, hand the blocks to the
//!    source's [`absorb`](StepSource::absorb), and return the frame's
//!    buffers to the receiving worker's pool;
//! 3. **synchronize** — a two-phase [`Barrier`] rendezvous of the
//!    run's parties. The first crossing marks "all step traffic
//!    delivered" (the thread that called [`execute`] timestamps the step
//!    right after it); the second releases everyone into the next step,
//!    so messages from step `s + 1` never interleave with step `s`.
//!
//! The calling thread is always a party and the one that records the
//! step and phase walls. On [`ExecBackend::Spawn`] it is worker 0: it
//! runs the first chunk itself and spawns the other `W − 1`, so a
//! one-worker run starts no thread and every barrier has one party. On
//! [`ExecBackend::Pool`] it owns no nodes: it only crosses the barriers
//! beside the pooled gang.
//!
//! After a phase whose [`PhaseMeta::rearrange_after`] is set, workers run
//! the source's [`rearrange`](StepSource::rearrange) pass, again bracketed
//! by the two-barrier rendezvous.
//!
//! # Fault tolerance
//!
//! A fault plan changes no frame's shape: faulted, retained and resent
//! frames are gathered frames like every other. What a non-empty [`FaultPlan`]
//! changes is the protocol around them. Every sender retains a clone of
//! its pristine frame for the step (its framing copied, its payloads
//! shared by handle), and the fault layer mutates what goes on the wire
//! segment by segment ([`WireFrame::corrupt`], [`WireFrame::truncate`];
//! a duplicate is another clone). The receive path switches from a
//! blocking wait to a deadline + bounded-retry loop: a receiver whose
//! deadline expires (or whose frame fails the framing/CRC/sequence
//! checks) pulls the retained copy — a modeled NACK + retransmission —
//! with exponential backoff between attempts. Both receive loops hand
//! every frame to the same decode-and-recycle step before the source
//! absorbs its blocks. A receiver hands the source exactly one valid frame
//! per step: duplicates and stragglers carry an earlier sequence number
//! and are drained and discarded, which is what keeps a combining
//! receive exactly-once under recovery. Exhausting the retry budget,
//! losing a channel endpoint, an injected worker kill, or an external
//! [`CancelToken`] trigger flips a shared abort flag (first failure
//! wins); every worker then falls through its remaining barriers doing no
//! work, so an aborted run still joins cleanly, leaks no threads, and
//! yields a partial report inside [`RuntimeError::Aborted`] naming the
//! faulty node, phase, and step. A panic in a step's work is caught in
//! the worker that raised it, which then raises the abort flag and turns
//! zombie the same way; the run returns [`RuntimeError::WorkerPanicked`]
//! with the panic's message.
//!
//! Fault-free runs never block on a send and match every receive to a
//! scheduled send, so the protocol is deadlock-free by construction;
//! determinism across worker counts follows from the per-step barriers
//! plus the fixed ownership partition.

use std::panic::{catch_unwind, AssertUnwindSafe};
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
    decode_gathered, encode_gathered, WireError, WireFrame, BLOCK_HEADER_BYTES,
    MESSAGE_HEADER_BYTES,
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
    type Node: Send + 'static;

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
    fn rearrange(&self, _state: &mut Self::Node, _side: &mut PhaseSide) {}
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
    allocations: u64,
    pub(crate) rearr_blocks_max: u64,
}

/// Everything one worker measured, returned at join.
struct WorkerStats {
    phase: Vec<PhaseSide>,
    steps: Vec<StepSide>,
    peak_bytes: u64,
    faults: RecoveryStats,
    events: Vec<FaultEvent>,
    /// The message of a panic caught in this worker's step work.
    panicked: Option<String>,
}

/// The run's walls, stamped by the thread that called [`execute`] as it
/// crosses the barriers.
#[derive(Default)]
struct Walls {
    steps: Vec<Duration>,
    phases: Vec<Duration>,
    run: Duration,
}

/// How a run executes its worker tasks.
#[derive(Clone, Copy)]
pub(crate) enum ExecBackend<'p> {
    /// `W − 1` fresh threads, joined at run end; the caller is worker 0
    /// — the classic one-shot measurement path, which at one worker
    /// starts no thread at all.
    Spawn,
    /// Reserve a gang of persistent threads from a [`WorkerPool`],
    /// optionally recycling warm [`FramePool`]s through a [`PoolBank`] —
    /// the service path, where threads park between jobs instead of
    /// being respawned.
    Pool(&'p WorkerPool, Option<&'p PoolBank>),
}

/// The worker count `config` resolves to for `nn` nodes on the spawn
/// path; pooled runs additionally clamp to the pool's size.
pub(crate) fn effective_workers(config: &RuntimeConfig, nn: usize) -> usize {
    config
        .workers
        .unwrap_or_else(torus_sim::default_threads)
        .clamp(1, nn)
}

/// Bounded wait slice of the receive loops: how soon a receiver parked on
/// a long deadline notices an aborted or cancelled run.
const WAIT_SLICE: Duration = Duration::from_millis(20);

/// Decodes `frame` into `incoming` and returns its buffers to `pool` —
/// the one step every received frame takes, in both receive loops. A
/// frame that fails a check appends nothing and is counted in `counters`.
fn open(
    frame: WireFrame,
    incoming: &mut Vec<Block<Bytes>>,
    pool: &mut FramePool,
    counters: &mut RecoveryStats,
) -> Result<u32, WireError> {
    let WireFrame::Gathered {
        framing,
        mut payloads,
    } = frame;
    let seq = decode_gathered(&framing, &mut payloads, incoming);
    pool.put_buf(framing);
    pool.put_vec(payloads);
    match seq {
        Err(WireError::Crc { .. }) => counters.crc_failures += 1,
        Err(_) => counters.decode_failures += 1,
        Ok(_) => {}
    }
    seq
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
    /// Per-destination retained resend frame for the current step, shared
    /// so a fetch under the lock only bumps a count. Allocated only with a
    /// fault plan; `worker_body` branches on the plan, never on this.
    retained: Vec<Mutex<Option<Arc<WireFrame>>>>,
    abort: AtomicBool,
    /// External cancellation trigger, observed cooperatively by workers.
    cancel: Option<CancelToken>,
    failure_slot: Mutex<Option<NodeFailure>>,
    barrier: Barrier,
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
        frame: WireFrame,
        counters: &mut RecoveryStats,
        events: &mut Vec<FaultEvent>,
    ) -> Vec<WireFrame> {
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
                    let len = deliver.first().map_or(0, WireFrame::wire_len);
                    let off = faults.corrupt_offset(g, src, dst, len);
                    deliver = deliver.into_iter().map(|f| f.corrupt(off)).collect();
                }
                FaultKind::Truncate => {
                    counters.injected_truncations += 1;
                    deliver = deliver.into_iter().map(WireFrame::truncate).collect();
                }
            }
        }
        deliver
    }

    /// The deadline + bounded-retry receive loop (fault plans only).
    ///
    /// Waits on the inbox with a deadline; on timeout, framing/CRC
    /// failure, or a stale sequence from a resend, pulls the sender's
    /// retained pristine frame (a modeled NACK + retransmission) with
    /// exponential backoff. Returns `true` with the step's blocks in
    /// `incoming`, or `false` if the run aborted (this receive's own
    /// budget exhausting is one way that happens).
    #[allow(clippy::too_many_arguments)]
    fn recover_recv(
        &self,
        rx: &Receiver<WireFrame>,
        me: NodeId,
        src: NodeId,
        g: usize,
        incoming: &mut Vec<Block<Bytes>>,
        pool: &mut FramePool,
        counters: &mut RecoveryStats,
        events: &mut Vec<FaultEvent>,
        step_retries: &mut u64,
    ) -> bool {
        let policy = self.retry;
        // `cycles` counts *failed* recovery cycles: it charges the retry
        // budget only when a recovery attempt itself came up empty or
        // invalid, so a single drop healed by the first resend costs
        // nothing. `fetches` numbers retained-buffer fetches 1-based —
        // the "attempt" coordinate resend faults are pinned to.
        let mut cycles = 0u32;
        let mut fetches = 0u32;
        let mut needed_recovery = false;
        let delivered = loop {
            if self.observe_cancel(me, g) {
                break false;
            }
            if cycles > policy.max_retries {
                self.fail(me, g, FailureReason::RetryExhausted { src });
                break false;
            }
            let wait = if cycles == 0 {
                policy.deadline
            } else {
                policy.backoff_for(cycles)
            };
            let mut via_resend = false;
            let frame = match self.recv_sliced(rx, wait) {
                Ok(frame) => Some(frame),
                Err(RecvTimeoutError::Disconnected) => {
                    self.fail(me, g, FailureReason::ChannelClosed);
                    break false;
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
                        let frame = WireFrame::clone(&frame);
                        fetches += 1;
                        counters.resends += 1;
                        self.inject(g, src, me, fetches, frame, counters, events)
                            .into_iter()
                            .next()
                    })
                }
            };
            let charged = match frame.map(|frame| open(frame, incoming, pool, counters)) {
                // Nothing arrived and nothing could be fetched.
                None => true,
                Some(Ok(seq)) if seq as usize == g => break true,
                Some(Ok(_)) => {
                    // Wrong sequence number: a duplicate or over-deadline
                    // straggler from an earlier step (drain it free — the
                    // inbox backlog is finite), or a stale retained frame
                    // from a dead sender (charge the budget, or this
                    // could spin forever). Only the matching sequence is
                    // ever handed to the source.
                    incoming.clear();
                    counters.stale_discarded += 1;
                    via_resend
                }
                Some(Err(_)) => {
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
        if delivered && needed_recovery {
            counters.recovered += 1;
        }
        delivered
    }

    /// `recv_timeout(wait)`, waited in [`WAIT_SLICE`]s so a worker parked
    /// on a long retry deadline notices an aborted run or an external
    /// cancel within one slice. Either surfaces as a timeout; the
    /// caller's loop head converts it into the typed abort.
    fn recv_sliced(
        &self,
        rx: &Receiver<WireFrame>,
        wait: Duration,
    ) -> Result<WireFrame, RecvTimeoutError> {
        let deadline = Instant::now() + wait;
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Err(RecvTimeoutError::Timeout);
            }
            match rx.recv_timeout(left.min(WAIT_SLICE)) {
                Err(RecvTimeoutError::Timeout) => {
                    let cancelled = self.cancel.as_ref().is_some_and(CancelToken::is_triggered);
                    if cancelled || self.abort.load(Ordering::Acquire) {
                        return Err(RecvTimeoutError::Timeout);
                    }
                }
                other => return other,
            }
        }
    }

    /// The fault-free receive: a scheduled frame is always sent unless
    /// the run is aborting — a peer that observed a cancel at step entry,
    /// or one that panicked before its send, never sends it. So the wait
    /// runs in [`WAIT_SLICE`]s that poll the abort state instead of
    /// blocking forever on a frame that will never come.
    fn recv_scheduled(&self, rx: &Receiver<WireFrame>, me: NodeId, g: usize) -> Option<WireFrame> {
        loop {
            match rx.recv_timeout(WAIT_SLICE) {
                Ok(frame) => return Some(frame),
                Err(RecvTimeoutError::Timeout) => {
                    if self.observe_cancel(me, g) {
                        return None;
                    }
                }
                Err(RecvTimeoutError::Disconnected) => {
                    self.fail(me, g, FailureReason::ChannelClosed);
                    return None;
                }
            }
        }
    }

    /// Runs a worker's share of one step or rearrangement. A panic in
    /// `work` is kept in `panicked` (the worker's first wins) and raises
    /// the abort flag, so every other party falls through to the
    /// barriers; then this returns `true`: the worker is a zombie from
    /// here on.
    fn catch_panic(&self, panicked: &mut Option<String>, work: impl FnOnce()) -> bool {
        let Err(payload) = catch_unwind(AssertUnwindSafe(work)) else {
            return false;
        };
        panicked.get_or_insert_with(|| panic_message(&*payload));
        self.abort.store(true, Ordering::SeqCst);
        true
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
/// Runs identically on the calling thread, a spawned thread
/// ([`ExecBackend::Spawn`]) or a persistent pool thread
/// ([`ExecBackend::Pool`]); everything it touches lives in [`RunShared`]
/// or is moved in. The one caller that passes `walls` records the run's
/// step and phase walls there. A call with no nodes only crosses the
/// barriers: it never polls worker faults or the cancel token, so it
/// never attributes a failure to a node it does not own.
fn worker_body<S: StepSource>(
    shared: &RunShared<S>,
    base: usize,
    mut nodes: Vec<S::Node>,
    rxs: Vec<Receiver<WireFrame>>,
    mut pool: FramePool,
    mut walls: Option<&mut Walls>,
) -> (WorkerStats, FramePool, Vec<S::Node>) {
    let source = &*shared.source;
    let phases = source.phases();
    // The one fault-plan switch: whether sends retain their frame (and
    // count it resident), which receive loop runs, and whether worker
    // faults are polled.
    let no_faults = shared.faults.is_empty();
    let senders = &shared.senders[..];
    let retained = &shared.retained[..];
    let barrier = &shared.barrier;

    let mut stats = WorkerStats {
        phase: vec![PhaseSide::default(); phases.len()],
        steps: vec![StepSide::default(); shared.step_ctx.len()],
        peak_bytes: 0,
        faults: RecoveryStats::default(),
        events: Vec::new(),
        panicked: None,
    };
    // Recycled scratch: with the frame pool these reach steady state
    // after the first step or two and stop allocating.
    let mut outgoing: Vec<Block<Bytes>> = Vec::new();
    let mut incoming: Vec<Block<Bytes>> = Vec::new();
    // A killed or panicked worker turns into a zombie: it does no work
    // but keeps crossing barriers so nothing deadlocks. A worker without
    // nodes is one from the start.
    let mut dead = nodes.is_empty();
    let mut g = 0usize;
    let t_run = Instant::now();
    for (pi, ph) in phases.iter().enumerate() {
        let t_phase = Instant::now();
        for _ in &ph.hops {
            let t_step = Instant::now();
            if !no_faults && !dead {
                dead = shared.worker_faults(g, base, nodes.len(), &mut stats);
            }
            if !(dead || shared.observe_cancel(base as NodeId, g)) {
                dead = shared.catch_panic(&mut stats.panicked, || {
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
                        // Zero-copy: headers into a pooled buffer,
                        // payloads shared by handle.
                        let framing_len =
                            MESSAGE_HEADER_BYTES + outgoing.len() * BLOCK_HEADER_BYTES;
                        let allocs = pool.allocations();
                        let msg = encode_gathered(
                            g as u32,
                            &outgoing,
                            pool.take_buf(framing_len),
                            pool.take_vec(),
                        );
                        pstats.allocations += pool.allocations() - allocs;
                        pstats.bytes_copied += framing_len as u64;
                        let assembled = Instant::now();
                        pstats.assembly_send += assembled - t0;
                        sstats.messages += 1;
                        sstats.blocks += outgoing.len() as u64;
                        sstats.max_blocks = sstats.max_blocks.max(outgoing.len() as u64);
                        // Wire accounting is for the pristine frame;
                        // injected mutations don't change the schedule's
                        // cost.
                        pstats.wire_bytes += msg.wire_len() as u64;
                        pstats.messages += 1;
                        let tx = &senders[dst as usize];
                        let delivered = if no_faults {
                            tx.send(msg).is_ok()
                        } else {
                            // Retain the pristine frame so the receiver
                            // can recover it; then fault what actually
                            // goes on the wire. The copy shares the
                            // payloads.
                            let keep = Arc::new(msg.clone());
                            *lk(&retained[dst as usize]) = Some(keep);
                            shared
                                .inject(g, node, dst, 0, msg, &mut stats.faults, &mut stats.events)
                                .into_iter()
                                .all(|f| tx.send(f).is_ok())
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
                            // Fault-free, the frame is decoded after the
                            // wait; the recovery loop decodes to judge
                            // each frame.
                            let (received, delivered) = if no_faults {
                                let frame = shared.recv_scheduled(&rxs[li], me, g);
                                let received = Instant::now();
                                // Without a fault plan there is no
                                // retained copy to retry from, so a wire
                                // error here is unrecoverable and named
                                // exactly.
                                let opened = frame
                                    .map(|f| open(f, &mut incoming, &mut pool, &mut stats.faults));
                                if let Some(Err(error)) = opened {
                                    shared.fail(me, g, FailureReason::Integrity { src, error });
                                }
                                (received, matches!(opened, Some(Ok(_))))
                            } else {
                                let delivered = shared.recover_recv(
                                    &rxs[li],
                                    me,
                                    src,
                                    g,
                                    &mut incoming,
                                    &mut pool,
                                    &mut stats.faults,
                                    &mut stats.events,
                                    &mut sstats.retries,
                                );
                                (Instant::now(), delivered)
                            };
                            pstats.transport += received - t0;
                            if delivered {
                                source.absorb(state, &mut incoming);
                                pstats.assembly_recv += received.elapsed();
                            }
                        }
                        // The frame retained for this node's recovery is
                        // resident memory too: its framing, as its
                        // payloads are handles the receiver already
                        // counts.
                        let retained_bytes = if no_faults {
                            0
                        } else {
                            lk(&retained[base + li]).as_ref().map_or(0, |f| {
                                let WireFrame::Gathered { framing, .. } = &**f;
                                framing.len() as u64
                            })
                        };
                        let resident = source.resident(state) + retained_bytes;
                        stats.peak_bytes = stats.peak_bytes.max(resident);
                    }
                });
            }
            g += 1;
            barrier.wait(); // step traffic complete
            if let Some(w) = walls.as_deref_mut() {
                w.steps.push(t_step.elapsed());
            }
            barrier.wait(); // released into the next step
        }

        if ph.rearrange_after {
            if !(dead || shared.abort.load(Ordering::Acquire)) {
                dead = shared.catch_panic(&mut stats.panicked, || {
                    for state in nodes.iter_mut() {
                        source.rearrange(state, &mut stats.phase[pi]);
                    }
                });
            }
            barrier.wait(); // rearrangement complete
            barrier.wait();
        }
        if let Some(w) = walls.as_deref_mut() {
            w.phases.push(t_phase.elapsed());
        }
    }
    if let Some(w) = walls {
        w.run = t_run.elapsed();
    }
    (stats, pool, nodes)
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
/// cancel token. Errors only if a worker panicked; an injected or
/// external failure is reported through [`Outcome::into_report`].
pub(crate) fn execute<S: StepSource>(
    source: Arc<S>,
    config: &RuntimeConfig,
    backend: ExecBackend<'_>,
    nodes: Vec<S::Node>,
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
        retained: if config.faults.is_empty() {
            Vec::new()
        } else {
            (0..nn).map(|_| Mutex::new(None)).collect()
        },
        abort: AtomicBool::new(false),
        cancel: config.cancel.clone(),
        failure_slot: Mutex::new(None),
        // The calling thread is worker 0 when spawning, an extra party
        // beside a pooled gang.
        barrier: Barrier::new(match backend {
            ExecBackend::Spawn => n_chunks,
            ExecBackend::Pool(..) => n_chunks + 1,
        }),
    });

    // Execute: the worker tasks run the schedule. The calling thread is
    // a party too — worker 0 when spawning, a node-less participant
    // beside a pooled gang — and stamps the walls.
    let mut nodes = nodes.into_iter();
    let mut receivers = receivers.into_iter();
    let mut chunks = (0..n_chunks).map(|ci| {
        let base = ci * chunk;
        let take = chunk.min(nn - base);
        let nodes: Vec<S::Node> = nodes.by_ref().take(take).collect();
        let rxs: Vec<_> = receivers.by_ref().take(take).collect();
        (base, nodes, rxs)
    });
    let mut walls = Walls::default();
    let results: Vec<Result<_, String>> = match backend {
        ExecBackend::Spawn => {
            let (base, mine, rxs) = chunks.next().expect("a run has at least one chunk");
            let handles: Vec<_> = chunks
                .map(|(base, nodes, rxs)| {
                    let shared = Arc::clone(&shared);
                    std::thread::spawn(move || {
                        worker_body(&shared, base, nodes, rxs, FramePool::new(), None)
                    })
                })
                .collect();
            let first = worker_body(&shared, base, mine, rxs, FramePool::new(), Some(&mut walls));
            std::iter::once(Ok(first))
                .chain(
                    handles
                        .into_iter()
                        .map(|h| h.join().map_err(|p| panic_message(&*p))),
                )
                .collect()
        }
        ExecBackend::Pool(pool, bank) => {
            // Atomically reserve all n_chunks threads (gang scheduling):
            // the run's tasks share a barrier, so a partial schedule
            // would deadlock.
            let mut gang = pool.gang(n_chunks);
            for (base, nodes, rxs) in chunks {
                let fp = bank.map(PoolBank::take).unwrap_or_default();
                let shared = Arc::clone(&shared);
                gang.spawn(move || worker_body(&shared, base, nodes, rxs, fp, None));
            }
            worker_body(
                &shared,
                nn,
                Vec::new(),
                Vec::new(),
                FramePool::new(),
                Some(&mut walls),
            );
            gang.join()
        }
    };
    let mut stats: Vec<WorkerStats> = Vec::with_capacity(n_chunks);
    let mut finals: Vec<S::Node> = Vec::with_capacity(nn);
    for result in results {
        let (mut ws, fp, nodes) = result.map_err(RuntimeError::WorkerPanicked)?;
        // Check the warm frame pool back in for the next job on the bank.
        if let ExecBackend::Pool(_, Some(bank)) = backend {
            bank.put(fp);
        }
        if let Some(message) = ws.panicked.take() {
            return Err(RuntimeError::WorkerPanicked(message));
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
                time_us: walls.steps[g].as_secs_f64() * 1e6,
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
            wall: walls.phases[pi],
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
        wall: walls.run,
        phases: phase_reports,
        peak_node_bytes: stats.iter().map(|w| w.peak_bytes).max().unwrap_or(0),
        faults,
        fault_events: merge_events(stats.into_iter().map(|w| w.events).collect()),
        failure,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    const NODES: NodeId = 6;

    /// A toy schedule: in each of two steps every node sends one block to
    /// its ring successor. `emit` panics at `panic_at` (step, node).
    struct Ring {
        phases: Vec<PhaseMeta>,
        panic_at: Option<(usize, NodeId)>,
    }

    impl StepSource for Ring {
        /// Blocks absorbed so far.
        type Node = u64;

        fn phases(&self) -> &[PhaseMeta] {
            &self.phases
        }

        fn dst(&self, _g: usize, node: NodeId) -> Option<NodeId> {
            Some((node + 1) % NODES)
        }

        fn emit(&self, g: usize, node: NodeId, _: &mut u64, out: &mut Vec<Block<Bytes>>) {
            if self.panic_at == Some((g, node)) {
                panic!("toy emit panicked at step {g}, node {node}");
            }
            let payload = Bytes::from(vec![g as u8; 8]);
            out.push(Block::with_payload(node, (node + 1) % NODES, payload));
        }

        fn absorb(&self, state: &mut u64, incoming: &mut Vec<Block<Bytes>>) {
            *state += incoming.drain(..).count() as u64;
        }

        fn resident(&self, _: &u64) -> u64 {
            0
        }
    }

    /// Runs the ring on its own thread (on `pool` if given) and waits at
    /// most one second for `execute` to return; its failure record comes
    /// back with the final states.
    fn run_ring(
        pool: Option<Arc<WorkerPool>>,
        workers: usize,
        panic_at: Option<(usize, NodeId)>,
    ) -> Result<(Vec<u64>, Option<NodeFailure>), RuntimeError> {
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            let ring = Ring {
                phases: vec![PhaseMeta {
                    name: "ring".into(),
                    hops: vec![1, 1],
                    rearrange_after: false,
                }],
                panic_at,
            };
            let config = RuntimeConfig::default().with_workers(workers);
            let backend = match &pool {
                Some(pool) => ExecBackend::Pool(pool, None),
                None => ExecBackend::Spawn,
            };
            let nodes = vec![0; NODES as usize];
            let outcome = execute(Arc::new(ring), &config, backend, nodes);
            let _ = tx.send(outcome.map(|o| (o.finals, o.failure)));
        });
        rx.recv_timeout(Duration::from_secs(1))
            .expect("execute returned within 1 s")
    }

    #[test]
    fn a_panicking_worker_fails_the_run_instead_of_hanging_it() {
        let pool = Arc::new(WorkerPool::new(3));
        for workers in 1..=3 {
            for pool in [None, Some(Arc::clone(&pool))] {
                let lane = format!("{workers} worker(s), pooled: {}", pool.is_some());
                match run_ring(pool.clone(), workers, Some((0, 0))) {
                    Err(RuntimeError::WorkerPanicked(message)) => assert!(
                        message.contains("toy emit panicked at step 0, node 0"),
                        "{lane}: {message}"
                    ),
                    Err(other) => panic!("{lane}: expected WorkerPanicked, got {other}"),
                    Ok(_) => panic!("{lane}: expected WorkerPanicked, run completed"),
                }
                // The same backend runs a clean job afterwards.
                let (finals, failure) = run_ring(pool, workers, None).unwrap();
                assert_eq!(failure, None, "{lane}");
                assert_eq!(finals, vec![2; NODES as usize], "{lane}");
            }
        }
    }
}
