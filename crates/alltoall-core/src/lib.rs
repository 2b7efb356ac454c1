#![warn(missing_docs)]

//! All-to-all personalized exchange (complete exchange) algorithms for
//! multidimensional torus networks — the core contribution of
//! Suh & Shin, *Efficient All-to-All Personalized Exchange in
//! Multidimensional Torus Networks*, ICPP 1998.
//!
//! In an `N`-node system, each node `P_i` starts with `N` distinct blocks
//! `B[i, 1..N]` and must end with `B[1..N, i]` — one block from every node.
//! The algorithms here perform this with **message combining** in `n + 2`
//! phases on an `a_1 × … × a_n` torus whose dimensions are multiples of
//! four (arbitrary sizes are handled by virtual-node padding):
//!
//! * phases `1..n`: ring scatters *within node groups* (the `4^n` groups of
//!   nodes whose coordinates agree mod 4), one dimension per phase, with
//!   directions assigned per group so that no two messages ever share a
//!   channel;
//! * phase `n+1`: distance-2 exchanges within each `4 × … × 4` submesh;
//! * phase `n+2`: distance-1 exchanges within each `2 × … × 2` submesh.
//!
//! The implementation is organized so the paper's claims are *checked*, not
//! assumed: schedules are executed on the contention-verifying simulator
//! from `torus-sim` by one walk over the plan
//! ([`steps::StepPlan::execute`]), and its cost counts are compared
//! against the closed forms of `cost-model` in the test suites.
//!
//! Entry point: [`exchange::Exchange`].
//!
//! # Quick start
//!
//! ```
//! use alltoall_core::exchange::Exchange;
//! use cost_model::CommParams;
//! use torus_topology::TorusShape;
//!
//! let shape = TorusShape::new_2d(8, 8).unwrap();
//! let report = Exchange::new(&shape)
//!     .unwrap()
//!     .run_counting(&CommParams::cray_t3d_like())
//!     .unwrap();
//! assert!(report.verified);
//! assert_eq!(report.counts.startup_steps, 8 / 2 + 2);
//! ```

pub mod alltoallv;
pub mod block;
pub mod dataarray;
pub mod dirsched;
pub mod exchange;
pub mod exec;
pub mod observer;
pub mod prepared;
pub mod repair;
pub mod report;
pub mod schedule;
pub mod steps;
pub mod verify;
pub mod virtualnodes;

pub use alltoallv::AlltoallvReport;
pub use block::Block;
pub use dirsched::DirectionSchedule;
pub use exchange::Exchange;
pub use exec::ExchangeError;
pub use observer::{NullObserver, Observer, PhaseKind};
pub use prepared::PreparedExchange;
pub use repair::{
    DroppedBlock, RepairError, RepairedPhase, RepairedSchedule, RepairedSend, RepairedStep,
};
pub use report::ExchangeReport;
pub use schedule::StaticSchedule;
pub use steps::{PlannedPhase, PlannedStep, StepKind, StepPlan};
pub use verify::{verify_delivery, verify_delivery_degraded, verify_full_exchange};
