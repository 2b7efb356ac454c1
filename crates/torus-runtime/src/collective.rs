//! Byte-real collective execution: the [`CollectivePlan`] send manifests
//! from `collective-plan` as a step source for the crate's one byte
//! executor — the worker loop, channels, barriers, fault injection,
//! recovery and cancellation that also run the all-to-all
//! [`Runtime`](crate::Runtime).
//!
//! # What a collective schedule supplies
//!
//! Each node holds at most one [`Bytes`] block per key. A send ships the
//! keys its [`SendInstr`] lists (keeping them
//! when the instruction retains), and a receive either installs the
//! incoming block under its key or — the one primitive
//! reduce/allreduce add — **combines** it into the resident one
//! elementwise ([`combine`]).
//!
//! Determinism of the reduction does not depend on the worker count:
//! the plan delivers at most one frame per node per step, steps are
//! barrier-ordered, and the fold always runs resident-first, so the
//! fold order is fully schedule-determined and a threaded run is
//! bit-identical to the serial replay
//! ([`CollectivePlan::reference_finals`]) — f32 rounding included.
//! Post-run verification exploits exactly that: final holdings must
//! match the reference replay byte-for-byte, and `u64` reductions are
//! additionally cross-checked against the order-independent direct
//! fold ([`CollectivePlan::direct_reduction`]).
//!
//! # Fault tolerance
//!
//! [`FaultPlan`](crate::FaultPlan) injection, retained-frame recovery,
//! retry budgets, worker kills/stalls, and
//! [`CancelToken`](crate::CancelToken) cancellation are the executor's,
//! so they behave exactly as for all-to-all. Combining receives stay
//! exactly-once under recovery because the executor hands a step source
//! exactly one valid frame per node per step: a duplicated or resent
//! frame carries an earlier step's sequence number and is drained and
//! discarded, never folded. [`OnFailure::Degrade`] is rejected up front:
//! there is no repair story for a half-folded reduction.

use std::collections::BTreeMap;
use std::sync::Arc;

use alltoall_core::Block;
use bytes::Bytes;
use collective_plan::{combine, CollectiveOp, CollectivePlan, Dtype, PlanError, SendInstr};
use cost_model::{CompletionTime, CostCounts};
use torus_topology::NodeId;

use crate::degrade::OnFailure;
use crate::exec::{self, ExecBackend, PhaseMeta, ReportIdent, StepSource};
use crate::payload::PayloadSpec;
use crate::pool::PoolBank;
use crate::report::RuntimeReport;
use crate::runtime::RuntimeConfig;
use crate::workers::WorkerPool;
use crate::RuntimeError;

/// A reusable byte-moving executor for one collective plan.
///
/// Construction validates the plan against the configuration (block
/// size vs reduction lanes, failure policy); every run then seeds real
/// payloads, executes the manifest over worker threads, and verifies
/// the result against the serial reference replay.
pub struct CollectiveRuntime {
    plan: Arc<CollectivePlan>,
    config: RuntimeConfig,
}

/// A node's key store: `store[key]` is the block held under `key`.
type KeyStore = Vec<Option<Bytes>>;

/// A lowered collective plan as the executor sees it. Collectives have
/// no inter-phase rearrangement.
struct CollectiveSource {
    plan: Arc<CollectivePlan>,
    meta: Vec<PhaseMeta>,
    /// `send_idx[g][node]`: index into `plan.steps()[g].sends`, if the
    /// node sends in global step `g`.
    send_idx: Vec<Vec<Option<u32>>>,
}

impl CollectiveSource {
    fn new(plan: Arc<CollectivePlan>) -> Self {
        let nn = plan.shape().num_nodes() as usize;
        let mut steps = plan.steps().iter();
        let meta = plan
            .phases()
            .iter()
            .map(|(label, nsteps)| PhaseMeta {
                name: label.clone(),
                hops: steps.by_ref().take(*nsteps).map(|st| st.hops).collect(),
                rearrange_after: false,
            })
            .collect();
        let send_idx = plan
            .steps()
            .iter()
            .map(|step| {
                let mut idx = vec![None; nn];
                for (si, s) in step.sends.iter().enumerate() {
                    idx[s.src as usize] = Some(si as u32);
                }
                idx
            })
            .collect();
        Self {
            plan,
            meta,
            send_idx,
        }
    }

    fn instr(&self, g: usize, node: NodeId) -> Option<&SendInstr> {
        self.send_idx[g][node as usize].map(|si| &self.plan.steps()[g].sends[si as usize])
    }
}

impl StepSource for CollectiveSource {
    type Node = KeyStore;

    fn phases(&self) -> &[PhaseMeta] {
        &self.meta
    }

    fn dst(&self, g: usize, node: NodeId) -> Option<NodeId> {
        self.instr(g, node).map(|instr| instr.dst)
    }

    fn emit(&self, g: usize, node: NodeId, store: &mut KeyStore, out: &mut Vec<Block<Bytes>>) {
        let instr = self
            .instr(g, node)
            .expect("emit is called only for scheduled senders");
        for &key in &instr.keys {
            let slot = &mut store[key as usize];
            let bytes = if instr.retain {
                slot.clone()
            } else {
                slot.take()
            }
            // The plan's holdings simulation guarantees this.
            .expect("validated plan: sender holds shipped key");
            out.push(Block::with_payload(key, instr.dst, bytes));
        }
    }

    fn absorb(&self, store: &mut KeyStore, incoming: &mut Vec<Block<Bytes>>) {
        // The combining fold, when the op reduces.
        let fold = self.plan.op().reduce();
        for b in incoming.drain(..) {
            // A key out of range is a corrupt header that survived the
            // CRC (astronomically unlikely); the final verification will
            // name the gap.
            let Some(slot) = store.get_mut(b.src as usize) else {
                continue;
            };
            match (slot, fold) {
                (Some(acc), Some((op, dtype))) => {
                    // Combining receive: resident-first fold, same order
                    // as the reference replay.
                    let mut v = acc.to_vec();
                    combine(dtype, op, &mut v, &b.payload);
                    *acc = Bytes::from(v);
                }
                (slot, _) => *slot = Some(b.payload),
            }
        }
    }

    fn resident(&self, store: &KeyStore) -> u64 {
        store.iter().flatten().map(|b| b.len() as u64).sum()
    }
}

impl CollectiveRuntime {
    /// Lowers `op` for `shape` and validates it against `config`.
    pub fn new(
        shape: &torus_topology::TorusShape,
        op: CollectiveOp,
        config: RuntimeConfig,
    ) -> Result<Self, RuntimeError> {
        let plan = Arc::new(CollectivePlan::new(shape, op)?);
        Self::from_plan(plan, config)
    }

    /// Wraps a *shared* plan (a plan-cache entry serving many jobs) —
    /// the collective analogue of [`Runtime::from_shared`].
    ///
    /// [`Runtime::from_shared`]: crate::Runtime::from_shared
    pub fn from_plan(
        plan: Arc<CollectivePlan>,
        config: RuntimeConfig,
    ) -> Result<Self, RuntimeError> {
        plan.check_block_bytes(config.block_bytes)?;
        if matches!(config.on_failure, OnFailure::Degrade) {
            return Err(PlanError::Unsupported(
                "degraded mode is not supported for collectives (no repair story \
                 for a partially folded reduction)"
                    .into(),
            )
            .into());
        }
        Ok(Self { plan, config })
    }

    /// The configuration in use.
    pub fn config(&self) -> &RuntimeConfig {
        &self.config
    }

    /// The plan being executed.
    pub fn plan(&self) -> &CollectivePlan {
        &self.plan
    }

    /// The worker count a run will use on the spawn path; pooled runs
    /// additionally clamp to the pool's size.
    pub fn effective_workers(&self) -> usize {
        exec::effective_workers(&self.config, self.plan.shape().num_nodes() as usize)
    }

    /// Runs the collective with deterministic pattern payloads and
    /// verifies against the reference replay. Returns the report plus
    /// every node's final `(key, payload)` holdings, keys ascending.
    #[allow(clippy::type_complexity)]
    pub fn run(&self) -> Result<(RuntimeReport, Vec<Vec<(u32, Bytes)>>), RuntimeError> {
        let m = self.config.block_bytes;
        self.run_impl(ExecBackend::Spawn, |id| {
            PayloadSpec::Pattern.key_payload(id, m)
        })
    }

    /// Like [`run`](Self::run) with caller-provided seed payloads:
    /// `payload(id)` produces the block for data identity `id` (see
    /// [`CollectivePlan::seed_id`]) and must return exactly
    /// [`block_bytes`](RuntimeConfig::block_bytes) bytes.
    #[allow(clippy::type_complexity)]
    pub fn run_with_payloads<F>(
        &self,
        payload: F,
    ) -> Result<(RuntimeReport, Vec<Vec<(u32, Bytes)>>), RuntimeError>
    where
        F: FnMut(u32) -> Bytes,
    {
        self.run_impl(ExecBackend::Spawn, payload)
    }

    /// The service entry point: executes on a persistent [`WorkerPool`]
    /// seeding every data identity with the job's `payload` stream
    /// ([`PayloadSpec::key_payload`]), optionally recycling warm frame
    /// pools through `bank` — the collective analogue of
    /// [`Runtime::run_pooled`](crate::Runtime::run_pooled).
    #[allow(clippy::type_complexity)]
    pub fn run_pooled(
        &self,
        pool: &WorkerPool,
        bank: Option<&PoolBank>,
        payload: PayloadSpec,
    ) -> Result<(RuntimeReport, Vec<Vec<(u32, Bytes)>>), RuntimeError> {
        let m = self.config.block_bytes;
        self.run_impl(ExecBackend::Pool(pool, bank), |id| {
            payload.key_payload(id, m)
        })
    }

    #[allow(clippy::type_complexity)]
    fn run_impl<F>(
        &self,
        backend: ExecBackend<'_>,
        mut payload: F,
    ) -> Result<(RuntimeReport, Vec<Vec<(u32, Bytes)>>), RuntimeError>
    where
        F: FnMut(u32) -> Bytes,
    {
        let plan = &self.plan;
        let shape = plan.shape();
        let nn = shape.num_nodes() as usize;
        let block_bytes = self.config.block_bytes;

        // Seed stores; keep every identity's bytes for the reference
        // replay (the closure runs once per identity).
        let mut seeds: BTreeMap<u32, Bytes> = BTreeMap::new();
        let mut stores: Vec<KeyStore> = Vec::with_capacity(nn);
        for u in 0..nn as u32 {
            let mut store: KeyStore = vec![None; nn];
            for &k in plan.initial_keys(u) {
                let id = plan.seed_id(u, k);
                let bytes = seeds.entry(id).or_insert_with(|| payload(id)).clone();
                if bytes.len() != block_bytes {
                    return Err(RuntimeError::Verification(format!(
                        "seed payload for identity {id} is {} bytes, expected {block_bytes}",
                        bytes.len()
                    )));
                }
                store[k as usize] = Some(bytes);
            }
            stores.push(store);
        }

        // The serial ground truth, computed up front over the seeded
        // handles themselves: the run is judged against it bit-for-bit
        // afterwards, and only combined keys hold bytes of their own.
        let reference = plan.reference_finals(block_bytes, |id| seeds[&id].clone())?;
        // For u64 lanes the ring fold must also equal the
        // order-independent direct fold — a reference-of-the-reference
        // cross-check that catches a mis-lowered reduction schedule.
        if matches!(plan.op().reduce(), Some((_, Dtype::U64))) {
            let direct = plan
                .direct_reduction(block_bytes, |id| &seeds[&id])
                .expect("reduce op has a direct fold");
            for (u, holdings) in reference.iter().enumerate() {
                for (key, bytes) in holdings {
                    if *key == 0 && bytes != &direct {
                        return Err(RuntimeError::Verification(format!(
                            "reference replay at node {u} disagrees with the \
                             order-independent direct reduction"
                        )));
                    }
                }
            }
        }

        let source = Arc::new(CollectiveSource::new(Arc::clone(plan)));
        let outcome = exec::execute(source, &self.config, backend, stores)?;

        // The analytic prediction prices what was measured on the wire:
        // one startup per step, the critical-path message per step.
        let mut counts = CostCounts::default();
        for step in outcome.trace.phases.iter().flat_map(|ph| &ph.steps) {
            counts.startup_steps += 1;
            counts.trans_blocks += step.max_blocks * u64::from(step.max_hops);
            counts.prop_hops += u64::from(step.max_hops);
        }
        let params = self.config.params.with_block_bytes(block_bytes as u32);
        let (mut report, finals) = outcome.into_report(ReportIdent {
            dims: shape.dims().to_vec(),
            executed_dims: shape.dims().to_vec(),
            padded: false,
            nodes: shape.num_nodes(),
            block_bytes,
            analytic: CompletionTime::from_counts(&counts, &params),
        })?;

        // Verify: every node's final holdings must match the op
        // contract AND equal the serial reference replay byte-for-byte.
        let mut deliveries: Vec<Vec<(u32, Bytes)>> = Vec::with_capacity(nn);
        for (u, (store, want)) in finals.into_iter().zip(&reference).enumerate() {
            let got: Vec<(u32, Bytes)> = store
                .into_iter()
                .enumerate()
                .filter_map(|(k, b)| b.map(|b| (k as u32, b)))
                .collect();
            verify_holdings(u, &got, want)?;
            deliveries.push(got);
        }
        report.verified = true;
        Ok((report, deliveries))
    }
}

/// Checks node `node`'s final holdings against the reference replay's:
/// the same keys in the same (ascending) order, and equal payloads.
///
/// Payloads compare with `Bytes ==`, which answers two handles onto one
/// allocation by identity and reads bytes only otherwise. A moved or
/// replicated key arrives as its seed's own handle and clears without
/// reading a byte, with or without a fault plan; a combined key is
/// compared byte for byte.
pub fn verify_holdings(
    node: usize,
    got: &[(u32, Bytes)],
    want: &[(u32, Bytes)],
) -> Result<(), RuntimeError> {
    if got.len() != want.len() || got.iter().zip(want).any(|((gk, _), (wk, _))| gk != wk) {
        let got_keys: Vec<u32> = got.iter().map(|(k, _)| *k).collect();
        let want_keys: Vec<u32> = want.iter().map(|(k, _)| *k).collect();
        return Err(RuntimeError::Verification(format!(
            "node {node} finished holding keys {got_keys:?}, expected {want_keys:?}"
        )));
    }
    for ((k, bytes), (_, want_bytes)) in got.iter().zip(want) {
        if bytes != want_bytes {
            return Err(RuntimeError::Verification(format!(
                "node {node} key {k}: payload differs from the reference replay"
            )));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::payload::pattern_payload;
    use collective_plan::{JobOp, ReduceOp};
    use torus_topology::TorusShape;

    #[test]
    fn broadcast_runs_byte_real() {
        let shape = TorusShape::new(&[4, 4]).unwrap();
        let rt = CollectiveRuntime::new(
            &shape,
            CollectiveOp::Broadcast { root: 3 },
            RuntimeConfig::default().with_workers(4),
        )
        .unwrap();
        let (report, deliveries) = rt.run().unwrap();
        assert!(report.verified);
        assert_eq!(report.nodes, 16);
        assert!(report.wire_bytes > 0);
        let want = pattern_payload(3, 3, 64);
        for d in &deliveries {
            assert_eq!(d.len(), 1);
            assert_eq!(d[0].0, 3);
            assert_eq!(d[0].1, want);
        }
    }

    #[test]
    fn degrade_policy_rejected() {
        let shape = TorusShape::new(&[4, 4]).unwrap();
        let err = CollectiveRuntime::new(
            &shape,
            CollectiveOp::Allgather,
            RuntimeConfig::default().with_on_failure(OnFailure::Degrade),
        )
        .err()
        .unwrap();
        assert!(matches!(err, RuntimeError::Plan(PlanError::Unsupported(_))));
    }

    #[test]
    fn lane_mismatch_rejected_at_construction() {
        let shape = TorusShape::new(&[4, 4]).unwrap();
        let err = CollectiveRuntime::new(
            &shape,
            CollectiveOp::Allreduce {
                op: ReduceOp::Sum,
                dtype: Dtype::U64,
            },
            RuntimeConfig::default().with_block_bytes(12),
        )
        .err()
        .unwrap();
        assert!(matches!(
            err,
            RuntimeError::Plan(PlanError::LaneMismatch { .. })
        ));
    }

    #[test]
    fn job_op_reexport_is_usable() {
        assert_eq!(JobOp::Alltoall.name(), "alltoall");
    }
}
