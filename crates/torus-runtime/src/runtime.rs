//! The all-to-all front-end: seeds real payloads, runs the paper's plan
//! (or a repaired one) through the byte executor, verifies delivery.
//!
//! [`Runtime`] owns what is specific to the complete exchange; how a step
//! moves bytes — framing, channels, barriers, fault injection, recovery,
//! cancellation, measurement — lives once in the crate's executor module
//! and is shared with the collective front-end.
//!
//! * **Seeding.** One loop seeds every node's blocks, from one of two
//!   producers: a [`PayloadSpec`], whose streams the payload kernel writes
//!   into one buffer per node (each block a slice of it), or the caller's
//!   closure, called once per `(src, dst)` pair. Either way each pair's
//!   bytes are kept, in a table indexed by canonical `src · N + dst`, for
//!   the post-run bit-exact comparison.
//! * **Two step sources.** The base source selects each step's blocks by
//!   the paper's per-phase rules ([`StepPlan::selects`]) and runs the
//!   inter-phase **data rearrangement**: each node's blocks are sorted
//!   into delivery order (the measured analogue of the `ρ`-term the cost
//!   model charges per byte). The rearrangement is an order over block
//!   handles, not a copy: frames are gathered, with or without a fault
//!   plan, so every payload stays individually owned and nothing needs
//!   to be contiguous. The repaired source selects by the
//!   explicit per-node manifests of a [`RepairedSchedule`] and executes
//!   its quarantine drop lists.
//! * **Failure policy.** Under [`OnFailure::Degrade`] a driver loop
//!   quarantines the culprit of an aborted run, replans, and restarts
//!   from freshly seeded buffers until the survivors complete.
//! * **Verification.** Final buffers are checked with the same invariant
//!   checker the analytic executors use ([`verify_delivery`], or its
//!   survivor-only form for degraded runs) *plus* bit-exact payload
//!   comparison against the seeded contents. Per-node delivery lists are
//!   built only by the entry points that return them.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use alltoall_core::block::Buffers;
use alltoall_core::steps::{PlannedStep, StepPlan};
use alltoall_core::{
    verify_delivery, verify_delivery_degraded, Block, PreparedExchange, RepairedSchedule,
    RepairedStep,
};
use bytes::Bytes;
use cost_model::{CommParams, CompletionTime};
use torus_topology::{NodeId, TorusShape};

use crate::cancel::CancelToken;
use crate::degrade::{DeadNode, DegradedReport, OnFailure};
use crate::exec::{self, ExecBackend, PhaseMeta, PhaseSide, ReportIdent, StepSource};
use crate::fault::FaultPlan;
use crate::message::{BLOCK_HEADER_BYTES, MESSAGE_HEADER_BYTES};
use crate::payload::PayloadSpec;
use crate::pool::PoolBank;
use crate::recovery::{FailureReason, RetryPolicy};
use crate::report::RuntimeReport;
use crate::workers::WorkerPool;
use crate::RuntimeError;

/// Configuration for a [`Runtime`].
#[derive(Clone, Debug)]
pub struct RuntimeConfig {
    /// Payload bytes per block (the paper's `m`). Used for the default
    /// pattern payloads and the analytic prediction. Default: 64.
    pub block_bytes: usize,
    /// Worker threads to multiplex nodes onto. `None` (default) means the
    /// `TORUS_THREADS` environment variable if set, else the machine's
    /// available parallelism capped at 8 (see
    /// [`torus_sim::default_threads`], which resolves the worker default
    /// for this runtime and the service engine). Always clamped to `1..=N`.
    pub workers: Option<usize>,
    /// Machine parameters for the analytic [`CompletionTime`] that rides
    /// along in the report. Default: [`CommParams::cray_t3d_like`].
    pub params: CommParams,
    /// Fault schedule to inject. Default: empty (no faults, and the
    /// recovery bookkeeping is skipped entirely on the hot path).
    pub faults: FaultPlan,
    /// Receive deadline and retry budget used whenever `faults` is
    /// non-empty.
    pub retry: RetryPolicy,
    /// What to do when a node suffers an unrecoverable fault: abort the
    /// run (default), or quarantine the node and complete a repaired
    /// schedule for the survivors. See [`OnFailure`].
    pub on_failure: OnFailure,
    /// External cancellation trigger. When set, workers poll the token
    /// at every step boundary (and inside recovery waits and injected
    /// stalls) and abort the run cooperatively with a typed
    /// [`FailureReason::Cancelled`] / [`FailureReason::DeadlineExceeded`]
    /// when it fires. Default: none.
    pub cancel: Option<CancelToken>,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        Self {
            block_bytes: 64,
            workers: None,
            params: CommParams::cray_t3d_like(),
            faults: FaultPlan::default(),
            retry: RetryPolicy::default(),
            on_failure: OnFailure::default(),
            cancel: None,
        }
    }
}

impl RuntimeConfig {
    /// Sets the payload bytes per block.
    pub fn with_block_bytes(mut self, bytes: usize) -> Self {
        self.block_bytes = bytes;
        self
    }

    /// Caps the worker-thread count.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = Some(workers);
        self
    }

    /// Sets the machine parameters for the analytic prediction.
    pub fn with_params(mut self, params: CommParams) -> Self {
        self.params = params;
        self
    }

    /// Installs a fault schedule.
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Sets the receive deadline / retry budget.
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Sets the unrecoverable-failure policy.
    pub fn with_on_failure(mut self, on_failure: OnFailure) -> Self {
        self.on_failure = on_failure;
        self
    }

    /// Installs an external cancellation token; keep a clone and trigger
    /// it from any thread to stop the run between steps.
    pub fn with_cancel_token(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }
}

/// A reusable byte-moving executor for one torus shape.
///
/// Construction does all the schedule work once (canonicalization,
/// padding, shift vectors, step plan); every [`run`](Self::run) then
/// seeds real payloads, executes the plan over worker threads, and
/// verifies delivery bit-exactly.
pub struct Runtime {
    prepared: Arc<PreparedExchange>,
    plan: Arc<StepPlan>,
    config: RuntimeConfig,
}

/// Everything a degraded-mode execution needs beyond the base plan.
struct DegradeCtx {
    repaired: Arc<RepairedSchedule>,
    dead_nodes: Vec<DeadNode>,
    restarts: u32,
}

/// A node's resident blocks — the state both all-to-all sources share.
type NodeBuf = Vec<Block<Bytes>>;

/// Per original node, the delivered `(source, payload)` pairs.
type Deliveries = Vec<Vec<(NodeId, Bytes)>>;

/// Where a run's payload bytes come from.
enum Payloads<F> {
    /// A built-in stream family: each node's blocks are written by the
    /// payload kernel into one buffer.
    Spec(PayloadSpec),
    /// The caller's producer, called once per `(src, dst)` pair in
    /// original ids; lengths may vary per pair.
    Each(F),
}

/// [`Payloads`] for the entry points that take no closure.
type SpecPayloads = Payloads<fn(NodeId, NodeId) -> Bytes>;

/// Phase metadata plus the global-step → `(phase, step)` index for a
/// phase list given as `(name, rearrange_after, per-step hops)`.
fn phase_grid<'a>(
    phases: impl Iterator<Item = (&'a str, bool, Vec<u32>)>,
) -> (Vec<PhaseMeta>, Vec<(usize, usize)>) {
    let mut meta = Vec::new();
    let mut at = Vec::new();
    for (pi, (name, rearrange_after, hops)) in phases.enumerate() {
        at.extend((0..hops.len()).map(|si| (pi, si)));
        meta.push(PhaseMeta {
            name: name.to_string(),
            hops,
            rearrange_after,
        });
    }
    (meta, at)
}

/// Moves every block `select` picks out of `buf` into `out`, preserving
/// the order of both.
fn drain_selected(
    buf: &mut NodeBuf,
    out: &mut NodeBuf,
    mut select: impl FnMut(&mut Block<Bytes>) -> bool,
) {
    buf.retain_mut(|b| {
        let selected = select(b);
        if selected {
            out.push(std::mem::replace(
                b,
                Block::with_payload(0, 0, Bytes::new()),
            ));
        }
        !selected
    });
}

fn resident_bytes(buf: &NodeBuf) -> u64 {
    buf.iter().map(|b| b.payload.len() as u64).sum()
}

/// The paper's inter-phase rearrangement: put the node's data array into
/// delivery order. The order is what the next phase and determinism
/// need; contiguity is not. Every payload is an
/// individually owned refcounted [`Bytes`] (frames are gathered, never
/// sliced), so the sort over block handles is the whole rearrangement:
/// no allocation, no byte copied. `rearranged_bytes` is the payload
/// volume re-ordered — the input to the cost model's `ρ` term.
fn compact(buf: &mut NodeBuf, side: &mut PhaseSide) {
    let t0 = Instant::now();
    buf.sort_by_key(|b| (b.dst, b.src));
    let total = resident_bytes(buf);
    side.rearrange += t0.elapsed();
    side.rearranged_bytes += total;
    side.rearr_blocks_max = side.rearr_blocks_max.max(buf.len() as u64);
}

/// The paper's schedule: block selection by the per-phase rules.
struct BaseSource {
    plan: Arc<StepPlan>,
    meta: Vec<PhaseMeta>,
    at: Vec<(usize, usize)>,
}

impl BaseSource {
    fn new(plan: Arc<StepPlan>) -> Self {
        let (meta, at) = phase_grid(plan.phases().iter().map(|ph| {
            let hops = ph.steps.iter().map(|st| st.hops).collect();
            (ph.name.as_str(), ph.rearrange_after, hops)
        }));
        Self { plan, meta, at }
    }

    fn step(&self, g: usize) -> &PlannedStep {
        let (pi, si) = self.at[g];
        &self.plan.phases()[pi].steps[si]
    }
}

impl StepSource for BaseSource {
    type Node = NodeBuf;

    fn phases(&self) -> &[PhaseMeta] {
        &self.meta
    }

    fn dst(&self, g: usize, node: NodeId) -> Option<NodeId> {
        self.step(g).sends[node as usize].map(|s| s.dst)
    }

    fn emit(&self, g: usize, node: NodeId, buf: &mut NodeBuf, out: &mut NodeBuf) {
        let st = self.step(g);
        drain_selected(buf, out, |b| {
            let selected = self.plan.selects(st, node, b);
            if selected {
                if let Some(p) = StepPlan::shift_decrement(st) {
                    b.shifts[p] -= 1;
                }
            }
            selected
        });
    }

    fn absorb(&self, buf: &mut NodeBuf, incoming: &mut NodeBuf) {
        buf.append(incoming);
    }

    fn resident(&self, buf: &NodeBuf) -> u64 {
        resident_bytes(buf)
    }

    fn rearrange(&self, buf: &mut NodeBuf, side: &mut PhaseSide) {
        compact(buf, side);
    }
}

/// A repaired (degraded-mode) schedule: block selection by explicit
/// per-node `(src, dst)` manifests, plus quarantine drop lists.
struct RepairedSource {
    schedule: Arc<RepairedSchedule>,
    meta: Vec<PhaseMeta>,
    at: Vec<(usize, usize)>,
    /// Blocks discarded executing drop lists.
    dropped_found: AtomicU64,
    /// Sends whose drained block count did not match the manifest (a
    /// planner/executor divergence — any nonzero total fails
    /// verification after the run).
    manifest_mismatches: AtomicU64,
}

impl RepairedSource {
    fn new(schedule: Arc<RepairedSchedule>) -> Self {
        let (meta, at) = phase_grid(schedule.phases.iter().map(|ph| {
            let hops = ph.steps.iter().map(|st| st.hops).collect();
            (ph.name.as_str(), ph.rearrange_after, hops)
        }));
        Self {
            schedule,
            meta,
            at,
            dropped_found: AtomicU64::new(0),
            manifest_mismatches: AtomicU64::new(0),
        }
    }

    fn step(&self, g: usize) -> &RepairedStep {
        let (pi, si) = self.at[g];
        &self.schedule.phases[pi].steps[si]
    }
}

impl StepSource for RepairedSource {
    type Node = NodeBuf;

    /// The killed node's sends and receives are already gone from the
    /// schedule, and its worker must keep routing survivor blocks.
    const ABSORBS_KILLS: bool = true;

    fn phases(&self) -> &[PhaseMeta] {
        &self.meta
    }

    fn dst(&self, g: usize, node: NodeId) -> Option<NodeId> {
        self.step(g).sends[node as usize].as_ref().map(|s| s.dst)
    }

    /// Quarantine drops take effect at step entry, before any send.
    fn enter_step(&self, g: usize, node: NodeId, buf: &mut NodeBuf) {
        let drops = &self.step(g).drops;
        if let Ok(i) = drops.binary_search_by_key(&node, |(holder, _)| *holder) {
            let pairs = &drops[i].1;
            let before = buf.len();
            buf.retain(|b| pairs.binary_search(&(b.src, b.dst)).is_err());
            // Relaxed: a tally, read only after the workers are joined.
            self.dropped_found
                .fetch_add((before - buf.len()) as u64, Ordering::Relaxed);
        }
    }

    /// No shift bookkeeping — repaired selection never reads it.
    fn emit(&self, g: usize, node: NodeId, buf: &mut NodeBuf, out: &mut NodeBuf) {
        let spec = self.step(g).sends[node as usize]
            .as_ref()
            .expect("emit is called only for scheduled senders");
        drain_selected(buf, out, |b| {
            spec.pairs.binary_search(&(b.src, b.dst)).is_ok()
        });
        if out.len() != spec.pairs.len() {
            self.manifest_mismatches.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn absorb(&self, buf: &mut NodeBuf, incoming: &mut NodeBuf) {
        buf.append(incoming);
    }

    fn resident(&self, buf: &NodeBuf) -> u64 {
        resident_bytes(buf)
    }

    fn rearrange(&self, buf: &mut NodeBuf, side: &mut PhaseSide) {
        compact(buf, side);
    }
}

impl Runtime {
    /// Prepares a runtime for `shape` (any extents; padding applies).
    pub fn new(shape: &TorusShape, config: RuntimeConfig) -> Result<Self, RuntimeError> {
        Ok(Self::from_prepared(PreparedExchange::new(shape)?, config))
    }

    /// Wraps an existing [`PreparedExchange`] (shares its cached seeding
    /// and verification tables).
    pub fn from_prepared(prepared: PreparedExchange, config: RuntimeConfig) -> Self {
        let prepared = Arc::new(prepared);
        let plan = prepared.step_plan_arc();
        Self {
            prepared,
            plan,
            config,
        }
    }

    /// Builds a runtime over *shared* schedule state: a plan-cache entry
    /// serving many concurrent jobs hands every job the same
    /// reference-counted [`PreparedExchange`] and [`StepPlan`], so
    /// steady-state job construction does no schedule work at all.
    pub fn from_shared(
        prepared: Arc<PreparedExchange>,
        plan: Arc<StepPlan>,
        config: RuntimeConfig,
    ) -> Self {
        Self {
            prepared,
            plan,
            config,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &RuntimeConfig {
        &self.config
    }

    /// The step plan being executed.
    pub fn plan(&self) -> &StepPlan {
        &self.plan
    }

    /// The underlying prepared exchange.
    pub fn prepared(&self) -> &PreparedExchange {
        &self.prepared
    }

    /// The worker count a run will use on the spawn (non-pooled) path.
    /// Pooled runs additionally clamp to the pool's size.
    pub fn effective_workers(&self) -> usize {
        exec::effective_workers(&self.config, self.plan.shape().num_nodes() as usize)
    }

    /// Runs one exchange with deterministic per-pair pattern payloads of
    /// [`block_bytes`](RuntimeConfig::block_bytes) each, and verifies
    /// delivery bit-exactly. This is the standard measurement entry point.
    pub fn run(&self) -> Result<RuntimeReport, RuntimeError> {
        let payloads = SpecPayloads::Spec(PayloadSpec::Pattern);
        self.run_policy(ExecBackend::Spawn, payloads)
            .map(|(report, _)| report)
    }

    /// The service entry point: executes on a persistent [`WorkerPool`]
    /// with the job's `payload` streams of
    /// [`block_bytes`](RuntimeConfig::block_bytes) each, optionally
    /// recycling warm frame pools through `bank` so repeated jobs stay
    /// allocation-free. Returns the report plus per-node deliveries like
    /// [`run_with_payloads`](Self::run_with_payloads). The configured
    /// [`OnFailure`] policy applies per-run: an abort or quarantine is
    /// confined to this run's state and never poisons the pool.
    pub fn run_pooled(
        &self,
        pool: &WorkerPool,
        bank: Option<&PoolBank>,
        payload: PayloadSpec,
    ) -> Result<(RuntimeReport, Deliveries), RuntimeError> {
        let payloads = SpecPayloads::Spec(payload);
        let backend = ExecBackend::Pool(pool, bank);
        let (report, finals) = self.run_policy(backend, payloads)?;
        Ok((report, self.deliveries(&finals)?))
    }

    /// Runs one exchange carrying caller-provided payloads:
    /// `payload(src, dst)` (original node ids) produces each block's
    /// bytes (lengths may vary per pair). Returns the report plus, for
    /// every original node, the delivered `(source, payload)` pairs
    /// sorted by source.
    pub fn run_with_payloads<F>(
        &self,
        payload: F,
    ) -> Result<(RuntimeReport, Deliveries), RuntimeError>
    where
        F: FnMut(NodeId, NodeId) -> Bytes,
    {
        let payloads = Payloads::Each(payload);
        let (report, finals) = self.run_policy(ExecBackend::Spawn, payloads)?;
        Ok((report, self.deliveries(&finals)?))
    }

    /// Routes a run through the configured [`OnFailure`] policy. Returns
    /// the report and every canonical node's final, verified buffer.
    fn run_policy<F>(
        &self,
        backend: ExecBackend<'_>,
        mut payloads: Payloads<F>,
    ) -> Result<(RuntimeReport, Buffers<Bytes>), RuntimeError>
    where
        F: FnMut(NodeId, NodeId) -> Bytes,
    {
        match self.config.on_failure {
            OnFailure::Abort => self.run_impl(backend, &mut payloads, None),
            OnFailure::Degrade => self.run_degrade(backend, &mut payloads),
        }
    }

    /// Degraded-mode driver: quarantine failed nodes and execute a
    /// repaired schedule that completes for the survivors.
    ///
    /// Pinned kills are known up front, so they seed the quarantine set
    /// directly and the first execution already runs repaired. Dynamic
    /// failures (an exhausted retry budget, an unrecoverable integrity
    /// error) surface as an aborted run naming the culprit node; the
    /// driver quarantines it from the step it failed at, replans, and
    /// restarts from freshly seeded buffers. Each restart permanently
    /// removes one node, and the restart budget bounds the loop.
    fn run_degrade<F>(
        &self,
        backend: ExecBackend<'_>,
        payloads: &mut Payloads<F>,
    ) -> Result<(RuntimeReport, Buffers<Bytes>), RuntimeError>
    where
        F: FnMut(NodeId, NodeId) -> Bytes,
    {
        const MAX_RESTARTS: u32 = 8;
        let exchange = self.prepared.exchange();
        let base_total = self.plan.total_steps();
        let mut quarantine: BTreeMap<NodeId, usize> = BTreeMap::new();
        let mut reasons: BTreeMap<NodeId, FailureReason> = BTreeMap::new();
        // Kills pinned at or past the end of the base plan would never
        // fire in the base schedule; they are ignored rather than
        // quarantined.
        for (step, node) in self.config.faults.kills() {
            if step < base_total {
                quarantine.entry(node).or_insert(step);
                reasons
                    .entry(node)
                    .or_insert(FailureReason::WorkerKilled { node });
            }
        }
        let mut restarts = 0u32;
        loop {
            let result = if quarantine.is_empty() {
                // Nothing dead (yet): the base plan as-is.
                self.run_impl(backend, payloads, None)
            } else {
                let repaired = Arc::new(RepairedSchedule::plan(
                    &self.plan,
                    self.prepared.seeded_blocks(),
                    &quarantine,
                )?);
                let dead_nodes = repaired
                    .dead
                    .iter()
                    .map(|&(node, quarantine_step)| DeadNode {
                        node,
                        original: exchange.from_canonical(node),
                        quarantine_step,
                        reason: reasons
                            .get(&node)
                            .copied()
                            .unwrap_or(FailureReason::NodeDead { node }),
                    })
                    .collect();
                let ctx = DegradeCtx {
                    repaired,
                    dead_nodes,
                    restarts,
                };
                self.run_impl(backend, payloads, Some(&ctx))
            };
            let (failure, report) = match result {
                Err(RuntimeError::Aborted { failure, report }) => (failure, report),
                other => return other,
            };
            // Quarantine can only repair failures that name a culprit
            // node; anything else — and a repeat offender, which means
            // quarantining it did not help — aborts for real.
            let culprit = match failure.reason {
                FailureReason::RetryExhausted { src } => Some(src),
                FailureReason::Integrity { src, .. } => Some(src),
                FailureReason::WorkerKilled { node } => Some(node),
                // Cancellation and deadline expiry are verdicts on the
                // whole run, not on one node — no quarantine can help.
                FailureReason::NodeDead { .. }
                | FailureReason::ChannelClosed
                | FailureReason::Cancelled
                | FailureReason::DeadlineExceeded => None,
            };
            match culprit {
                Some(node) if restarts < MAX_RESTARTS && !quarantine.contains_key(&node) => {
                    quarantine.insert(node, failure.global_step.min(base_total));
                    reasons.insert(node, failure.reason);
                    restarts += 1;
                }
                _ => return Err(RuntimeError::Aborted { failure, report }),
            }
        }
    }

    fn run_impl<F>(
        &self,
        backend: ExecBackend<'_>,
        payloads: &mut Payloads<F>,
        degrade: Option<&DegradeCtx>,
    ) -> Result<(RuntimeReport, Buffers<Bytes>), RuntimeError>
    where
        F: FnMut(NodeId, NodeId) -> Bytes,
    {
        let exchange = self.prepared.exchange();
        let canon = self.plan.shape();
        let n = canon.num_nodes() as usize;

        // Seed data-carrying buffers from the cached counting state; keep
        // every pair's bytes, at canonical `src * n + dst`, for the
        // post-run bit-exact comparison.
        let pair_slot = |src: NodeId, dst: NodeId| {
            let (s, d) = (src as usize, dst as usize);
            (s < n && d < n).then_some(s * n + d)
        };
        let mut expected_payloads: Vec<Option<Bytes>> = vec![None; n * n];
        let mut node_bufs: Vec<NodeBuf> = Vec::with_capacity(n);
        let (mut pairs, mut scratch) = (Vec::new(), Vec::new());
        for blocks in self.prepared.seeded_blocks() {
            pairs.clear();
            for b in blocks {
                pairs.push((
                    self.original(b.src, "seeding")?,
                    self.original(b.dst, "seeding")?,
                ));
            }
            let seeded: Vec<Bytes> = match payloads {
                Payloads::Spec(spec) => {
                    spec.payloads(&pairs, self.config.block_bytes, &mut scratch)
                }
                Payloads::Each(payload) => pairs.iter().map(|&(s, d)| payload(s, d)).collect(),
            };
            let mut out = Vec::with_capacity(blocks.len());
            for (b, bytes) in blocks.iter().zip(seeded) {
                let slot = pair_slot(b.src, b.dst).expect("seeded blocks name canonical nodes");
                expected_payloads[slot] = Some(bytes.clone());
                let mut nb = Block::with_payload(b.src, b.dst, bytes);
                nb.shifts = b.shifts;
                out.push(nb);
            }
            node_bufs.push(out);
        }

        // Execute the base plan, or the repaired schedule (same step grid
        // plus drops, manifests, and an optional trailing fallback phase)
        // when running degraded.
        let repaired = degrade.map(|ctx| {
            let source = RepairedSource::new(Arc::clone(&ctx.repaired));
            (ctx, Arc::new(source))
        });
        let outcome = match &repaired {
            None => {
                let source = Arc::new(BaseSource::new(Arc::clone(&self.plan)));
                exec::execute(source, &self.config, backend, node_bufs)?
            }
            Some((_, source)) => {
                exec::execute(Arc::clone(source), &self.config, backend, node_bufs)?
            }
        };

        let params = self
            .config
            .params
            .with_block_bytes(self.config.block_bytes as u32);
        let real_n = exchange.shape_ref().num_nodes();
        // An unrecoverable failure returns here: typed error + the
        // partial report measured up to the abort.
        let (mut report, finals) = outcome.into_report(ReportIdent {
            dims: exchange.shape_ref().dims().to_vec(),
            executed_dims: canon.dims().to_vec(),
            padded: exchange.is_padded(),
            nodes: real_n,
            block_bytes: self.config.block_bytes,
            analytic: CompletionTime::from_counts(&cost_model::proposed_nd(canon.dims()), &params),
        })?;

        // Verify: right delivery set, and every payload bit-exactly as
        // seeded. Degraded runs check the survivor invariant instead
        // (dead nodes empty, every survivor→survivor block delivered) and
        // cross-check the executed drops against the repaired plan.
        let buffers = Buffers::from_vecs(finals);
        match &repaired {
            None => verify_delivery(&buffers, self.prepared.expected_delivery())
                .map_err(|e| RuntimeError::Verification(e.to_string()))?,
            Some((ctx, source)) => {
                let dead = ctx.repaired.dead_nodes();
                verify_delivery_degraded(&buffers, self.prepared.expected_delivery(), &dead)
                    .map_err(|e| RuntimeError::Verification(e.to_string()))?;
                let found = source.dropped_found.load(Ordering::Relaxed);
                if found != ctx.repaired.dropped.len() as u64 {
                    return Err(RuntimeError::Verification(format!(
                        "degraded run discarded {found} blocks but the repaired schedule \
                         planned {} drops",
                        ctx.repaired.dropped.len()
                    )));
                }
                let mismatches = source.manifest_mismatches.load(Ordering::Relaxed);
                if mismatches != 0 {
                    return Err(RuntimeError::Verification(format!(
                        "{mismatches} repaired sends drained a different block set than \
                         their manifests list"
                    )));
                }
            }
        }
        for node in 0..canon.num_nodes() {
            for b in buffers.node(node) {
                match pair_slot(b.src, b.dst).and_then(|i| expected_payloads[i].as_ref()) {
                    Some(expected) if *expected == b.payload => {}
                    Some(_) => {
                        return Err(RuntimeError::Verification(format!(
                            "payload corruption: block ({} -> {}) differs from seeded bytes",
                            b.src, b.dst
                        )))
                    }
                    None => {
                        return Err(RuntimeError::Verification(format!(
                            "unseeded block ({} -> {}) delivered",
                            b.src, b.dst
                        )))
                    }
                }
            }
        }
        // Full verification holds only for fault-free delivery; degraded
        // runs record the survivor verification in the degraded report.
        report.verified = degrade.is_none();
        if let Some(ctx) = degrade {
            // The fault-free baseline for the same payload set: one
            // message header per scheduled send, and each block's framing
            // + payload once per wire crossing the base plan gives it.
            let baseline: u64 = ctx.repaired.base_messages * MESSAGE_HEADER_BYTES as u64
                + ctx
                    .repaired
                    .base_tx
                    .iter()
                    .map(|&((s, d), crossings)| {
                        let len = pair_slot(s, d)
                            .and_then(|i| expected_payloads[i].as_ref())
                            .map_or(0, Bytes::len) as u64;
                        crossings * (BLOCK_HEADER_BYTES as u64 + len)
                    })
                    .sum::<u64>();
            report.degraded = Some(DegradedReport {
                dead_nodes: ctx.dead_nodes.clone(),
                dropped_blocks: ctx.repaired.dropped.len() as u64,
                dropped: ctx.repaired.dropped.clone(),
                contracted_rings: ctx.repaired.contracted_rings,
                contracted_sends: ctx.repaired.contracted_sends,
                fallback_steps: ctx.repaired.fallback_steps,
                fallback_blocks: ctx.repaired.fallback_blocks,
                baseline_wire_bytes: baseline,
                extra_wire_bytes: report.wire_bytes as i64 - baseline as i64,
                restarts: ctx.restarts,
                verified_degraded: true,
            });
        }

        Ok((report, buffers))
    }

    /// The original id of canonical `node`, read from the prepared
    /// exchange's cached table; a virtual node is `UnmappedNode`.
    fn original(&self, node: NodeId, phase: &str) -> Result<NodeId, RuntimeError> {
        self.prepared
            .original_ids()
            .get(node as usize)
            .copied()
            .flatten()
            .ok_or_else(|| RuntimeError::UnmappedNode {
                node,
                phase: phase.into(),
                step: 0,
            })
    }

    /// Deliveries in original ids, sorted by source (same contract as
    /// `Exchange::run_with_payloads`), from a run's verified final
    /// buffers. Quarantined nodes end with empty buffers, so their
    /// delivery lists are empty.
    fn deliveries(&self, buffers: &Buffers<Bytes>) -> Result<Deliveries, RuntimeError> {
        let exchange = self.prepared.exchange();
        let real_n = exchange.shape_ref().num_nodes();
        let mut deliveries: Deliveries = Vec::with_capacity(real_n as usize);
        for d in 0..real_n {
            let buf = buffers.node(exchange.to_canonical(d));
            let mut got: Vec<(NodeId, Bytes)> = Vec::with_capacity(buf.len());
            for b in buf {
                got.push((self.original(b.src, "delivery")?, b.payload.clone()));
            }
            got.sort_by_key(|(s, _)| *s);
            deliveries.push(got);
        }
        Ok(deliveries)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::WorkerFaultKind;
    use crate::payload::pattern_payload;
    use std::time::Duration;

    fn runtime(dims: &[u32], config: RuntimeConfig) -> Runtime {
        Runtime::new(&TorusShape::new(dims).unwrap(), config).unwrap()
    }

    fn quick_retry() -> RetryPolicy {
        RetryPolicy::default()
            .with_deadline(Duration::from_millis(20))
            .with_backoff(Duration::from_micros(200))
    }

    #[test]
    fn run_4x4_verifies_bit_exact() {
        let r = runtime(&[4, 4], RuntimeConfig::default()).run().unwrap();
        assert!(r.verified);
        assert_eq!(r.phases.len(), 4);
        // a1 = 4: scatter phases are empty; submesh phases do 2 + 2 steps.
        assert_eq!(r.total_steps(), 4);
        assert!(r.messages > 0);
        assert!(r.wall > Duration::ZERO);
    }

    #[test]
    fn run_8x12_verifies_and_reports() {
        let r = runtime(&[8, 12], RuntimeConfig::default().with_workers(4))
            .run()
            .unwrap();
        assert!(r.verified);
        assert_eq!(r.executed_dims, vec![12, 8]); // canonicalized
        assert!(!r.padded);
        assert_eq!(r.total_steps(), 2 * (12 / 4 + 1));
        assert_eq!(r.trace.total_steps(), r.total_steps());
        assert_eq!(r.workers, 4);
        // Per-phase walls and bytes are populated.
        assert!(r.phases.iter().all(|p| p.wall > Duration::ZERO));
        assert!(r.phases.iter().take(3).all(|p| p.rearranged_bytes > 0));
        assert_eq!(r.phases.last().unwrap().rearranged_bytes, 0);
        assert!(r.wire_bytes > 0);
        assert!(r.peak_node_bytes > 0);
    }

    #[test]
    fn run_4x4x4_verifies() {
        let r = runtime(&[4, 4, 4], RuntimeConfig::default().with_workers(8))
            .run()
            .unwrap();
        assert!(r.verified);
        assert_eq!(r.phases.len(), 5);
        assert_eq!(r.total_steps(), 3 * (4 / 4 + 1));
    }

    #[test]
    fn padded_6x6_runs_real_pairs_only() {
        let r = runtime(&[6, 6], RuntimeConfig::default().with_workers(3))
            .run()
            .unwrap();
        assert!(r.verified);
        assert!(r.padded);
        assert_eq!(r.executed_dims, vec![8, 8]);
        assert_eq!(r.nodes, 36);
    }

    #[test]
    fn wire_volume_accounts_exactly() {
        // Every block is block_bytes long, so total wire bytes must equal
        // message framing + per-block framing + payloads.
        let r = runtime(&[8, 8], RuntimeConfig::default().with_block_bytes(32))
            .run()
            .unwrap();
        let total_blocks: u64 = r
            .trace
            .phases
            .iter()
            .flat_map(|p| p.steps.iter())
            .map(|s| s.total_blocks)
            .sum();
        let expected = r.messages * MESSAGE_HEADER_BYTES as u64
            + total_blocks * (BLOCK_HEADER_BYTES as u64 + 32);
        assert_eq!(r.wire_bytes, expected);
    }

    #[test]
    fn fault_free_copies_are_header_only() {
        // The zero-copy acceptance invariant: on the fault-free path the
        // send side copies framing only, never payload bytes.
        let r = runtime(&[8, 8], RuntimeConfig::default().with_block_bytes(32))
            .run()
            .unwrap();
        let total_blocks: u64 = r
            .trace
            .phases
            .iter()
            .flat_map(|p| p.steps.iter())
            .map(|s| s.total_blocks)
            .sum();
        assert_eq!(
            r.bytes_copied,
            r.messages * MESSAGE_HEADER_BYTES as u64 + total_blocks * BLOCK_HEADER_BYTES as u64
        );
        assert!(r.bytes_copied < r.wire_bytes);
    }

    /// Runs `rt` on 64 B pattern payloads, recording the address of
    /// every payload the closure produced, and checks that every
    /// delivered payload is one of them: nothing on the way (framing,
    /// recovery, rearrangement) copied a payload.
    fn delivers_seeded_handles(rt: &Runtime) -> RuntimeReport {
        let mut seeded = std::collections::HashSet::new();
        let (report, deliveries) = rt
            .run_with_payloads(|s, d| {
                let bytes = pattern_payload(s, d, 64);
                seeded.insert(bytes.as_ptr() as usize);
                bytes
            })
            .unwrap();
        assert!(report.verified);
        for (_, payload) in deliveries.iter().flatten() {
            assert!(seeded.contains(&(payload.as_ptr() as usize)));
        }
        report
    }

    #[test]
    fn fault_free_rearrangement_moves_seeded_handles_only() {
        // Every payload a node ends with is still the allocation the run
        // was seeded with: nothing was copied, so nothing was allocated.
        let r =
            delivers_seeded_handles(&runtime(&[8, 8], RuntimeConfig::default().with_workers(1)));
        assert_eq!(
            r.rearranged_bytes,
            3 * 64 * 63 * 64,
            "still the re-ordered volume"
        );
        // What is left of `allocations` is the frame pool warming up in
        // the first phase (one framing buffer and one segment vec per
        // frame in flight); the rearrangements and everything after them
        // allocate nothing.
        let per_phase: Vec<u64> = r.phases.iter().map(|p| p.allocations).collect();
        assert_eq!(per_phase, [2 * 64, 0, 0, 0]);
    }

    #[test]
    fn fault_plan_delivers_seeded_handles_through_recovery() {
        // Under a fault plan too, frames are gathered: a resent frame
        // carries the retained clone's handles, a corrupted one is
        // refused whole, so every delivered payload is still a seeded
        // allocation.
        let cfg = RuntimeConfig::default()
            .with_workers(4)
            .with_faults(
                FaultPlan::seeded(9)
                    .with_drop_rate(0.05)
                    .with_corrupt_rate(0.05),
            )
            .with_retry(quick_retry());
        let r = delivers_seeded_handles(&runtime(&[8, 8], cfg));
        assert_eq!(r.rearranged_bytes, 3 * 64 * 63 * 64);
        assert!(r.faults.recovered > 0, "the plan must force recoveries");
    }

    #[test]
    fn cancel_token_aborts_stalled_run_with_partial_report() {
        // A pinned 5 s stall would hold the run hostage; an external
        // cancel must interrupt it mid-sleep and surface as a typed
        // Cancelled abort with the partial report.
        let token = CancelToken::new();
        let cfg = RuntimeConfig::default()
            .with_workers(4)
            .with_faults(FaultPlan::seeded(1).with_worker_fault(
                0,
                0,
                WorkerFaultKind::StallMicros(5_000_000),
            ))
            .with_retry(
                RetryPolicy::default()
                    .with_deadline(Duration::from_secs(30))
                    .with_max_retries(64),
            )
            .with_cancel_token(token.clone());
        let rt = runtime(&[4, 4], cfg);
        let t0 = Instant::now();
        let handle = std::thread::spawn(move || rt.run());
        std::thread::sleep(Duration::from_millis(50));
        token.cancel();
        let err = handle.join().unwrap().unwrap_err();
        match err {
            RuntimeError::Aborted { failure, report } => {
                assert_eq!(failure.reason, FailureReason::Cancelled);
                assert!(!report.verified);
            }
            other => panic!("expected Aborted, got {other}"),
        }
        assert!(
            t0.elapsed() < Duration::from_secs(4),
            "cancel must interrupt the stall, took {:?}",
            t0.elapsed()
        );
    }

    #[test]
    fn expired_token_reports_deadline_exceeded() {
        // Pre-expired token: the run aborts at the first step boundary.
        let token = CancelToken::new();
        token.expire();
        let cfg = RuntimeConfig::default()
            .with_workers(2)
            .with_cancel_token(token);
        let err = runtime(&[4, 4], cfg).run().unwrap_err();
        match err {
            RuntimeError::Aborted { failure, .. } => {
                assert_eq!(failure.reason, FailureReason::DeadlineExceeded);
            }
            other => panic!("expected Aborted, got {other}"),
        }
    }

    #[test]
    fn untriggered_token_changes_nothing() {
        let token = CancelToken::new();
        let cfg = RuntimeConfig::default()
            .with_workers(3)
            .with_cancel_token(token.clone());
        let r = runtime(&[4, 4], cfg).run().unwrap();
        assert!(r.verified);
        // Triggering after the run finished is a harmless no-op.
        assert!(token.cancel());
    }

    #[test]
    fn fault_plans_copy_framing_only() {
        // A fault plan changes no frame's shape: every frame is encoded
        // once, its headers written and its payloads shared, so
        // `bytes_copied` counts framing only and stays below `wire_bytes`
        // by at least the whole payload volume.
        let cfg = RuntimeConfig::default()
            .with_workers(4)
            .with_faults(FaultPlan::seeded(1).with_drop_rate(1.0))
            .with_retry(quick_retry());
        let r = runtime(&[4, 4], cfg).run().unwrap();
        let blocks: u64 = r
            .trace
            .phases
            .iter()
            .flat_map(|p| &p.steps)
            .map(|s| s.total_blocks)
            .sum();
        let payload = blocks * 64;
        assert!(payload > 0);
        assert_eq!(
            r.bytes_copied,
            r.messages * MESSAGE_HEADER_BYTES as u64 + blocks * BLOCK_HEADER_BYTES as u64
        );
        assert!(r.bytes_copied + payload <= r.wire_bytes);
    }

    #[test]
    fn steady_state_allocations_are_payload_size_independent() {
        // Pool misses depend on frame counts and framing capacity, never
        // on payload bytes; a single worker makes the schedule (and so
        // the pool traffic) deterministic.
        let mk = |bytes| {
            runtime(
                &[4, 4],
                RuntimeConfig::default()
                    .with_workers(1)
                    .with_block_bytes(bytes),
            )
            .run()
            .unwrap()
        };
        let small = mk(16);
        let large = mk(1024);
        assert!(small.allocations > 0);
        assert_eq!(small.allocations, large.allocations);
        // Warm pools: far fewer allocator hits than one per message.
        assert!(small.allocations < 2 * small.messages);
    }

    #[test]
    fn retained_frames_count_toward_peak_residency() {
        let clean = runtime(&[4, 4], RuntimeConfig::default().with_workers(2))
            .run()
            .unwrap();
        let cfg = RuntimeConfig::default()
            .with_workers(2)
            .with_faults(FaultPlan::seeded(3).with_drop_rate(1.0))
            .with_retry(quick_retry());
        let faulty = runtime(&[4, 4], cfg).run().unwrap();
        // Same schedule, same buffers — but the faulty run also holds
        // every node's retained recovery frame in memory.
        assert!(
            faulty.peak_node_bytes > clean.peak_node_bytes,
            "retained frames must be counted: faulty {} vs clean {}",
            faulty.peak_node_bytes,
            clean.peak_node_bytes
        );
    }

    #[test]
    fn worker_counts_change_nothing_observable() {
        let mk = |workers| {
            let rt = runtime(&[8, 8], RuntimeConfig::default().with_workers(workers));
            let (r, deliveries) = rt
                .run_with_payloads(|s, d| pattern_payload(s, d, 48))
                .unwrap();
            (r, deliveries)
        };
        let (r1, d1) = mk(1);
        let (r5, d5) = mk(5);
        let (r64, d64) = mk(64);
        assert_eq!(d1, d5);
        assert_eq!(d1, d64);
        assert_eq!(r1.wire_bytes, r5.wire_bytes);
        assert_eq!(r1.wire_bytes, r64.wire_bytes);
        assert_eq!(r1.messages, r64.messages);
        assert_eq!(r1.workers, 1);
        assert_eq!(r64.workers, 64);
    }

    #[test]
    fn custom_payloads_deliver_sorted_by_source() {
        let rt = runtime(&[4, 8], RuntimeConfig::default());
        let (r, deliveries) = rt
            .run_with_payloads(|s, d| {
                // Variable lengths: pair-dependent.
                pattern_payload(s, d, ((s + 2 * d) % 7) as usize * 9)
            })
            .unwrap();
        assert!(r.verified);
        let n = 32u32;
        assert_eq!(deliveries.len(), n as usize);
        for (d, got) in deliveries.iter().enumerate() {
            let d = d as u32;
            assert_eq!(got.len(), n as usize - 1);
            let srcs: Vec<NodeId> = got.iter().map(|(s, _)| *s).collect();
            let expected_srcs: Vec<NodeId> = (0..n).filter(|&s| s != d).collect();
            assert_eq!(srcs, expected_srcs);
            for (s, p) in got {
                assert_eq!(*p, pattern_payload(*s, d, ((s + 2 * d) % 7) as usize * 9));
            }
        }
    }

    #[test]
    fn trace_records_every_step_and_rearrangement() {
        let rt = runtime(&[8, 8], RuntimeConfig::default().with_workers(4));
        let r = rt.run().unwrap();
        assert!(r.verified);
        let phases = &r.trace.phases;
        assert_eq!(phases.len(), 4);
        let steps: Vec<usize> = phases.iter().map(|p| p.steps.len()).collect();
        assert_eq!(steps, r.phases.iter().map(|p| p.steps).collect::<Vec<_>>());
        assert_eq!(steps.iter().sum::<usize>(), r.total_steps());
        // n + 1 rearrangements for n + 2 phases: after phases 0, 1 and 2.
        let rearranged: Vec<usize> = phases.iter().map(|p| p.rearrangements.len()).collect();
        assert_eq!(rearranged, [1, 1, 1, 0]);
        assert!(phases[0].steps[0].total_blocks > 0);
    }

    #[test]
    fn matches_analytic_executor_delivery() {
        // Byte-moving runtime and counting executor agree block-for-block.
        let shape = TorusShape::new(&[8, 8]).unwrap();
        let rt = Runtime::new(&shape, RuntimeConfig::default().with_workers(4)).unwrap();
        let (_, rt_deliveries) = rt
            .run_with_payloads(|s, d| pattern_payload(s, d, 16))
            .unwrap();
        let (report, ex_deliveries) = alltoall_core::Exchange::new(&shape)
            .unwrap()
            .run_with_payloads(&CommParams::unit(), |s, d| pattern_payload(s, d, 16))
            .unwrap();
        assert!(report.verified);
        assert_eq!(rt_deliveries, ex_deliveries);
    }

    #[test]
    fn effective_workers_resolution() {
        let rt = runtime(&[4, 4], RuntimeConfig::default().with_workers(99));
        assert_eq!(rt.effective_workers(), 16); // clamped to node count
        let rt = runtime(&[4, 4], RuntimeConfig::default().with_workers(3));
        assert_eq!(rt.effective_workers(), 3);
    }

    #[test]
    fn analytic_prediction_uses_configured_block_size() {
        let small = runtime(&[8, 8], RuntimeConfig::default().with_block_bytes(16))
            .run()
            .unwrap();
        let large = runtime(&[8, 8], RuntimeConfig::default().with_block_bytes(256))
            .run()
            .unwrap();
        assert!(large.analytic.transmission > small.analytic.transmission);
        assert_eq!(small.analytic.startup, large.analytic.startup);
    }

    #[test]
    fn zero_fault_run_is_clean() {
        let r = runtime(&[4, 4], RuntimeConfig::default()).run().unwrap();
        assert!(r.faults.is_clean());
        assert!(r.fault_events.is_empty());
        assert!(r.failure.is_none());
    }

    #[test]
    fn every_transmission_dropped_still_delivers_bit_exact() {
        let cfg = RuntimeConfig::default()
            .with_workers(4)
            .with_faults(FaultPlan::seeded(1).with_drop_rate(1.0))
            .with_retry(quick_retry());
        let r = runtime(&[4, 4], cfg).run().unwrap();
        assert!(r.verified);
        assert!(r.failure.is_none());
        // Every scheduled transmission was dropped, and every scheduled
        // receive was healed from the sender's retained frame.
        assert_eq!(r.faults.injected_drops, r.messages);
        assert_eq!(r.faults.recovered, r.messages);
        assert!(r.faults.timeouts >= r.messages);
        assert!(r.faults.resends >= r.messages);
        assert_eq!(r.fault_events.len() as u64, r.messages);
    }

    #[test]
    fn corrupted_frames_are_detected_and_recovered() {
        let cfg = RuntimeConfig::default()
            .with_workers(4)
            .with_faults(FaultPlan::seeded(2).with_corrupt_rate(1.0))
            .with_retry(quick_retry());
        let r = runtime(&[4, 4], cfg).run().unwrap();
        assert!(r.verified);
        assert_eq!(r.faults.injected_corruptions, r.messages);
        // Every corruption tripped an integrity check, never delivery.
        assert!(r.faults.crc_failures + r.faults.decode_failures >= r.messages);
        assert_eq!(r.faults.recovered, r.messages);
    }

    #[test]
    fn seeded_fault_runs_reproduce_identical_counters_and_events() {
        let mk = || {
            let cfg = RuntimeConfig::default()
                .with_workers(4)
                .with_faults(
                    FaultPlan::seeded(42)
                        .with_drop_rate(0.2)
                        .with_corrupt_rate(0.1),
                )
                .with_retry(quick_retry());
            runtime(&[4, 8], cfg).run().unwrap()
        };
        let a = mk();
        let b = mk();
        assert!(a.faults.total_injected() > 0, "plan must actually fire");
        assert_eq!(a.faults, b.faults);
        assert_eq!(a.fault_events, b.fault_events);
        assert!(a.verified && b.verified);
    }

    #[test]
    fn killed_worker_aborts_with_typed_error_and_partial_report() {
        let cfg = RuntimeConfig::default()
            .with_workers(4)
            .with_faults(FaultPlan::default().with_worker_fault(1, 3, WorkerFaultKind::Kill))
            .with_retry(
                quick_retry()
                    .with_deadline(Duration::from_secs(4))
                    .with_max_retries(1),
            );
        // The deadline outlasts any scheduling delay before the killed
        // worker records its kill at step 1, so no receiver exhausts its
        // budget first; receivers still waiting on the dead worker's
        // frames then stop within a wait slice of the abort.
        let err = runtime(&[4, 4], cfg).run().unwrap_err();
        match err {
            RuntimeError::Aborted { failure, report } => {
                assert_eq!(failure.node, 3);
                assert_eq!(failure.reason, FailureReason::WorkerKilled { node: 3 });
                assert_eq!(failure.global_step, 1);
                assert!(!report.verified);
                assert_eq!(report.faults.injected_kills, 1);
                assert_eq!(report.failure.as_ref().unwrap().node, 3);
            }
            other => panic!("expected Aborted, got {other}"),
        }
    }

    #[test]
    fn receivers_stop_within_a_slice_of_an_abort() {
        // Node 12 stalls at step 1 before node 15's kill fires on the
        // same worker, so every receiver due a frame from that worker is
        // already parked on its 30 s deadline when the run aborts. With
        // no cancel token installed they must still notice the abort
        // within a wait slice.
        let cfg = RuntimeConfig::default()
            .with_workers(4)
            .with_faults(
                FaultPlan::default()
                    .with_worker_fault(1, 12, WorkerFaultKind::StallMicros(200_000))
                    .with_worker_fault(1, 15, WorkerFaultKind::Kill),
            )
            .with_retry(RetryPolicy::default().with_deadline(Duration::from_secs(30)));
        let t0 = Instant::now();
        let err = runtime(&[4, 4], cfg).run().unwrap_err();
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "receivers waited out their deadline: {:?}",
            t0.elapsed()
        );
        match err {
            RuntimeError::Aborted { failure, .. } => {
                assert_eq!(failure.reason, FailureReason::WorkerKilled { node: 15 });
            }
            other => panic!("expected Aborted, got {other}"),
        }
    }

    #[test]
    fn degrade_policy_completes_after_pinned_kill() {
        let cfg = RuntimeConfig::default()
            .with_workers(4)
            .with_faults(FaultPlan::default().with_worker_fault(1, 3, WorkerFaultKind::Kill))
            .with_retry(quick_retry())
            .with_on_failure(OnFailure::Degrade);
        let r = runtime(&[4, 4], cfg).run().unwrap();
        // Full delivery can't verify (blocks were dropped); the survivor
        // invariant does.
        assert!(!r.verified);
        assert!(r.failure.is_none());
        assert_eq!(r.faults.injected_kills, 1);
        let d = r.degraded.expect("degraded report present");
        assert!(d.verified_degraded);
        assert_eq!(d.restarts, 0, "pinned kills are quarantined up front");
        assert_eq!(d.dead_nodes.len(), 1);
        assert_eq!(d.dead_nodes[0].node, 3);
        assert_eq!(d.dead_nodes[0].quarantine_step, 1);
        assert_eq!(
            d.dead_nodes[0].reason,
            FailureReason::WorkerKilled { node: 3 }
        );
        // Every block with a dead endpoint is dropped, nothing else.
        assert_eq!(d.dropped_blocks, 2 * 15);
        assert_eq!(d.dropped.len() as u64, d.dropped_blocks);
        assert!(d.dropped.iter().all(|b| (b.src == 3) ^ (b.dst == 3)));
    }

    #[test]
    fn degrade_policy_without_failures_is_a_plain_run() {
        let cfg = RuntimeConfig::default()
            .with_workers(2)
            .with_on_failure(OnFailure::Degrade);
        let r = runtime(&[4, 4], cfg).run().unwrap();
        assert!(r.verified);
        assert!(r.degraded.is_none());
    }

    #[test]
    fn degraded_deliveries_cover_survivors_only() {
        let cfg = RuntimeConfig::default()
            .with_workers(3)
            .with_faults(FaultPlan::default().with_worker_fault(2, 5, WorkerFaultKind::Kill))
            .with_retry(quick_retry())
            .with_on_failure(OnFailure::Degrade);
        let rt = runtime(&[4, 8], cfg);
        // The fault plan pins the kill on *canonical* node 5; deliveries
        // are indexed by original ids.
        let orig = rt.prepared().exchange().from_canonical(5).unwrap();
        let (r, deliveries) = rt
            .run_with_payloads(|s, d| pattern_payload(s, d, 48))
            .unwrap();
        let d = r.degraded.unwrap();
        assert!(d.verified_degraded);
        assert_eq!(d.dead_nodes[0].original, Some(orig));
        let n = 32u32;
        assert!(
            deliveries[orig as usize].is_empty(),
            "dead node receives nothing"
        );
        for (dv, got) in deliveries.iter().enumerate() {
            let dv = dv as u32;
            if dv == orig {
                continue;
            }
            let expected_srcs: Vec<NodeId> = (0..n).filter(|&s| s != dv && s != orig).collect();
            let srcs: Vec<NodeId> = got.iter().map(|(s, _)| *s).collect();
            assert_eq!(srcs, expected_srcs);
            for (s, p) in got {
                assert_eq!(
                    *p,
                    pattern_payload(*s, dv, 48),
                    "bit-exact survivor payloads"
                );
            }
        }
    }
}
