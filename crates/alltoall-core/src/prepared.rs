//! Prepared (buffer-cached) exchanges for repeated use.
//!
//! The paper highlights that fixed destinations make the algorithms
//! *"amenable to optimizations, e.g., caching of message buffers"*.
//! Iterative applications (FFT every timestep, repeated transposes) run
//! the same exchange on the same torus thousands of times; recomputing
//! group representatives and shift vectors for all `N²` blocks each
//! iteration is pure waste, because the schedule is workload-independent.
//!
//! [`PreparedExchange`] performs that work once: it caches the fully
//! seeded counting-mode buffer state (every block with its precomputed
//! shift vector) and the expected-delivery table. Each
//! [`run`](PreparedExchange::run) then starts from a memcpy of the cached
//! state instead of re-deriving it. EXPERIMENTS.md (S3) records the
//! saving.

use std::sync::{Arc, OnceLock};

use cost_model::CommParams;
use torus_sim::Engine;
use torus_topology::{NodeId, TorusShape};

use crate::block::{Block, Buffers};
use crate::exchange::Exchange;
use crate::exec::ExchangeError;
use crate::observer::NullObserver;
use crate::report::ExchangeReport;
use crate::steps::StepPlan;
use crate::verify::verify_delivery;

/// A reusable, pre-seeded exchange plan for one torus shape.
///
/// ```
/// use alltoall_core::PreparedExchange;
/// use cost_model::CommParams;
/// use torus_topology::TorusShape;
///
/// let prepared = PreparedExchange::new(&TorusShape::new_2d(8, 8).unwrap()).unwrap();
/// for _timestep in 0..3 {
///     let report = prepared.run(&CommParams::cray_t3d_like()).unwrap();
///     assert!(report.verified && report.matches_formula());
/// }
/// ```
pub struct PreparedExchange {
    exchange: Exchange,
    /// Cached fully-seeded counting-mode buffers (canonical ids).
    seeded: Buffers<()>,
    /// Cached expected-delivery table for verification.
    expected: Vec<Vec<NodeId>>,
    /// Cached canonical → original id map (`None` for virtual nodes).
    originals: Vec<Option<NodeId>>,
    /// Lazily materialized step plan, shared by reference-count so many
    /// concurrent runtimes (e.g. a service's job executors) reuse one
    /// plan without recomputation. See [`step_plan_arc`](Self::step_plan_arc).
    plan: OnceLock<Arc<StepPlan>>,
}

impl PreparedExchange {
    /// Prepares an exchange on `shape`: computes the canonical mapping,
    /// every block's shift vector, and the verification table, once.
    pub fn new(shape: &TorusShape) -> Result<Self, ExchangeError> {
        let exchange = Exchange::new(shape)?;
        let canon_ids = exchange.canonical_ids();
        let pairs = canon_ids
            .iter()
            .flat_map(|&s| canon_ids.iter().map(move |&d| (s, d, ())));
        let seeded = Buffers::seeded(exchange.executed_shape(), pairs);
        let expected = exchange.expected_delivery(&canon_ids);
        let originals = (0..exchange.executed_shape().num_nodes())
            .map(|c| exchange.from_canonical(c))
            .collect();
        Ok(Self {
            exchange,
            seeded,
            expected,
            originals,
            plan: OnceLock::new(),
        })
    }

    /// Runs one counting-mode exchange from the cached buffer state.
    pub fn run(&self, params: &CommParams) -> Result<ExchangeReport, ExchangeError> {
        let mut bufs = self.seeded.clone();
        let mut engine = Engine::new(self.exchange.executed_shape(), *params);
        self.step_plan_arc()
            .execute(&mut bufs, &mut engine, &mut NullObserver)?;
        let verified = verify_delivery(&bufs, &self.expected).is_ok();
        Ok(self.exchange.report(params, &engine, verified))
    }

    /// The underlying exchange configuration.
    pub fn exchange(&self) -> &Exchange {
        &self.exchange
    }

    /// The cached fully-seeded counting-mode buffer state (canonical node
    /// ids, correct shift vectors). External runtimes use this as the
    /// authoritative "which blocks exist and where" starting point.
    pub fn seeded_blocks(&self) -> &[Vec<Block<()>>] {
        self.seeded.as_slices()
    }

    /// The cached expected-delivery table (canonical ids):
    /// `expected_delivery()[node]` lists the sources whose block must end
    /// at `node`. Feed it to [`verify_delivery`].
    pub fn expected_delivery(&self) -> &[Vec<NodeId>] {
        &self.expected
    }

    /// The cached canonical → original id map: `original_ids()[c]` is
    /// [`Exchange::from_canonical`]`(c)`, computed once per shape.
    pub fn original_ids(&self) -> &[Option<NodeId>] {
        &self.originals
    }

    /// Materializes the step-by-step plan (destinations + selection rules)
    /// for the canonical shape — what an external executor such as
    /// `torus-runtime` iterates. See [`StepPlan`].
    pub fn step_plan(&self) -> StepPlan {
        StepPlan::new(self.exchange.executed_shape())
    }

    /// The step plan materialized once and cached, shared by
    /// reference-count. Repeated callers (a plan cache serving many
    /// concurrent jobs on the same shape) pay the `StepPlan::new` cost a
    /// single time per prepared exchange.
    pub fn step_plan_arc(&self) -> Arc<StepPlan> {
        Arc::clone(self.plan.get_or_init(|| Arc::new(self.step_plan())))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prepared_matches_unprepared() {
        let shape = TorusShape::new_2d(8, 8).unwrap();
        let prepared = PreparedExchange::new(&shape).unwrap();
        let a = prepared.run(&CommParams::unit()).unwrap();
        let b = Exchange::new(&shape)
            .unwrap()
            .run_counting(&CommParams::unit())
            .unwrap();
        assert!(a.verified && b.verified);
        assert_eq!(a.counts, b.counts);
        assert!(a.matches_formula());
    }

    #[test]
    fn repeated_runs_are_independent() {
        let shape = TorusShape::new(&[8, 4]).unwrap();
        let prepared = PreparedExchange::new(&shape).unwrap();
        let first = prepared.run(&CommParams::unit()).unwrap();
        for _ in 0..3 {
            let again = prepared.run(&CommParams::unit()).unwrap();
            assert!(again.verified);
            assert_eq!(again.counts, first.counts);
        }
    }

    #[test]
    fn prepared_works_with_padding() {
        let shape = TorusShape::new_2d(6, 6).unwrap();
        let prepared = PreparedExchange::new(&shape).unwrap();
        let r = prepared.run(&CommParams::unit()).unwrap();
        assert!(r.verified);
        assert!(r.padded);
    }

    #[test]
    fn original_ids_match_from_canonical() {
        // 6x6 pads, so the table holds virtual (`None`) entries too.
        for shape in [TorusShape::new_2d(6, 6), TorusShape::new(&[4, 4, 4])] {
            let prepared = PreparedExchange::new(&shape.unwrap()).unwrap();
            let exchange = prepared.exchange();
            let table = prepared.original_ids();
            assert_eq!(table.len(), exchange.executed_shape().num_nodes() as usize);
            for (c, &orig) in table.iter().enumerate() {
                assert_eq!(orig, exchange.from_canonical(c as NodeId), "canonical {c}");
            }
            let real = table.iter().flatten().count() as u32;
            assert_eq!(real, exchange.shape_ref().num_nodes());
        }
    }

    #[test]
    fn step_plan_arc_is_cached_and_shared() {
        let shape = TorusShape::new_2d(4, 4).unwrap();
        let prepared = PreparedExchange::new(&shape).unwrap();
        let a = prepared.step_plan_arc();
        let b = prepared.step_plan_arc();
        assert!(Arc::ptr_eq(&a, &b), "one materialization, shared after");
        assert_eq!(a.total_steps(), prepared.step_plan().total_steps());
    }

    #[test]
    fn parameters_vary_per_run() {
        // The cached state is parameter-independent; time scales with the
        // parameters of each run.
        let shape = TorusShape::new_2d(8, 8).unwrap();
        let prepared = PreparedExchange::new(&shape).unwrap();
        let cheap = prepared.run(&CommParams::unit()).unwrap();
        let dear = prepared.run(&CommParams::unit().with_t_s(100.0)).unwrap();
        assert_eq!(cheap.counts, dear.counts);
        assert!(dear.total_time() > cheap.total_time());
    }
}
