#![warn(missing_docs)]

//! # torus-alltoall
//!
//! A faithful, tested reproduction of **Suh & Shin, "Efficient All-to-All
//! Personalized Exchange in Multidimensional Torus Networks" (ICPP 1998)**:
//! message-combining complete-exchange algorithms for 2D, 3D and general
//! n-dimensional tori — including non-power-of-two and non-square shapes —
//! together with the wormhole-switched torus simulator, analytic cost
//! models, and baseline algorithms needed to reproduce the paper's
//! evaluation.
//!
//! ## Crates
//!
//! | crate | contents |
//! |---|---|
//! | [`topology`] | torus coordinates, node groups, submeshes, channels, routes |
//! | [`sim`] | step-accurate wormhole simulator with contention *verification* |
//! | [`cost`] | Section 2 parameters; Table 1 & Table 2 closed forms |
//! | [`core`] | the paper's `n + 2`-phase exchange algorithms |
//! | [`baselines`] | direct, ring, and row-column exchanges; analytic \[13\]/\[9\] |
//! | [`collectives`] | broadcast, scatter, gather, allgather, reduce, allreduce |
//! | [`runtime`] | in-process byte-moving runtime: executes schedules with real payloads over worker threads |
//!
//! ## Quick start
//!
//! ```
//! use torus_alltoall::prelude::*;
//!
//! // An 8×12 wormhole torus with Cray-T3D-like timing.
//! let shape = TorusShape::new_2d(8, 12).unwrap();
//! let report = Exchange::new(&shape)
//!     .unwrap()
//!     .run_counting(&CommParams::cray_t3d_like())
//!     .unwrap();
//!
//! assert!(report.verified);                 // every block delivered
//! assert!(report.matches_formula());        // measured == Table 1
//! println!("{}", report.summary());
//! ```

pub use alltoall_baselines as baselines;
pub use alltoall_core as core;
pub use collectives;
pub use cost_model as cost;
pub use torus_runtime as runtime;
pub use torus_sim as sim;
pub use torus_topology as topology;

/// The most common imports in one place.
pub mod prelude {
    pub use alltoall_baselines::{
        DirectExchange, ExchangeAlgorithm, MeshExchange, RingExchange, RowColumnExchange,
        SUH_YALAMANCHILI_9, TSENG_13,
    };
    pub use alltoall_core::{Exchange, ExchangeError, ExchangeReport};
    pub use cost_model::{CommParams, CompletionTime, CostCounts, SwitchingMode};
    pub use torus_runtime::{
        CollectiveOp, CollectivePlan, Dtype, ReduceOp, Runtime, RuntimeConfig, RuntimeReport,
    };
    pub use torus_topology::{Coord, TorusShape};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn prelude_smoke_test() {
        let shape = TorusShape::new_2d(4, 4).unwrap();
        let report = Exchange::new(&shape)
            .unwrap()
            .run_counting(&CommParams::unit())
            .unwrap();
        assert!(report.verified);
    }

    #[test]
    fn runtime_via_prelude() {
        let shape = TorusShape::new_2d(4, 4).unwrap();
        let report = Runtime::new(&shape, RuntimeConfig::default().with_workers(2))
            .unwrap()
            .run()
            .unwrap();
        assert!(report.verified);
        assert!(report.wire_bytes > 0);
    }
}
