//! Whole-stack benchmark for the torus all-to-all system.
//!
//! See `README.md` for the workloads, the metrics and how they
//! interact, how to read the trace, and the pinned surface of the
//! stack's crates this package compiles against.

pub mod awake;
pub mod run;
pub mod stack;
pub mod stats;
pub mod suite;
pub mod trace;
pub mod workload;
