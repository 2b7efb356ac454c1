#![warn(missing_docs)]

//! Step-accurate simulator for wormhole-switched torus networks.
//!
//! The paper's performance model (Section 2) assumes:
//!
//! * torus-connected, wormhole-switched multiprocessors (virtual
//!   cut-through and packet switching also supported),
//! * full-duplex links, channel width of one flit (one byte),
//! * **one-port** nodes: one injection and one consumption channel,
//! * a *step* is the basic unit of contention-free communication; a
//!   *phase* is a sequence of steps,
//! * per-step completion time `T = t_s + m·t_c + h·t_l`.
//!
//! [`Engine`] executes a schedule step by step: it **rejects** any step in
//! which two messages share a unidirectional channel or a node violates the
//! one-port constraint, and it accumulates exactly the four cost dimensions
//! of the paper's analysis ([`cost_model::CostCounts`]) plus
//! wall-clock-model completion time ([`cost_model::CompletionTime`]). This
//! is how the claimed contention-freedom of the exchange algorithms is
//! *verified* rather than assumed.
//!
//! The crate knows nothing about all-to-all exchange itself; it moves
//! opaque block counts. Algorithm crates build [`Transmission`]s and drive
//! the engine.

pub mod channel;
pub mod engine;
pub mod error;
pub mod flit;
pub mod parallel;
pub mod trace;
pub mod transmission;

pub use channel::ChannelIndexer;
pub use engine::{Engine, StepStat};
pub use error::SimError;
pub use flit::{FlitConfig, FlitError, FlitSim, FlitStats, Packet};
pub use parallel::default_threads;
pub use trace::{PhaseTrace, Trace};
pub use transmission::Transmission;
