//! The executor's four lanes — one per kind of schedule it runs — and
//! the helpers the suites that sweep them share.

use std::collections::BTreeMap;
use std::time::Duration;

use alltoall_core::RepairedSchedule;
use torus_runtime::{
    CollectiveOp, CollectiveRuntime, Dtype, FaultPlan, OnFailure, ReduceOp, RetryPolicy, Runtime,
    RuntimeConfig, RuntimeError, RuntimeReport, WorkerFaultKind,
};
use torus_topology::{NodeId, TorusShape};

use super::with_watchdog;

pub const DIMS: [u32; 2] = [4, 4];
pub const NODES: usize = 16;
/// The repaired lane's pinned kill: `(global step, node)`.
pub const KILL: (usize, NodeId) = (1, 3);

#[derive(Clone, Copy, Debug)]
pub enum Lane {
    Base,
    Repaired,
    Broadcast,
    Allreduce,
}

pub const LANES: [Lane; 4] = [Lane::Base, Lane::Repaired, Lane::Broadcast, Lane::Allreduce];

/// One scheduled transmission: `(global step, src, dst)`.
pub type Transmission = (usize, NodeId, NodeId);

impl Lane {
    pub fn collective_op(self) -> CollectiveOp {
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
    pub fn config(self, faults: FaultPlan, retry: RetryPolicy, workers: usize) -> RuntimeConfig {
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
    pub fn run(self, cfg: RuntimeConfig) -> Result<RuntimeReport, RuntimeError> {
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
    pub fn transmissions(self) -> Vec<Transmission> {
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
    pub fn live_transmission(self) -> Transmission {
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
    pub fn fatal_transmission(self) -> Transmission {
        match self {
            Lane::Repaired => self
                .transmissions()
                .into_iter()
                .find(|&(g, src, _)| g < KILL.0 && src == KILL.1)
                .expect("the doomed node sends before it is quarantined"),
            _ => self.live_transmission(),
        }
    }

    pub fn assert_completed(self, report: &RuntimeReport) {
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
pub fn retry() -> RetryPolicy {
    RetryPolicy::default()
        .with_deadline(Duration::from_millis(60))
        .with_backoff(Duration::from_micros(200))
}

pub fn expect_abort(lane: Lane, result: Result<RuntimeReport, RuntimeError>) -> RuntimeReport {
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
