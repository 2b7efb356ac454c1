//! # torus-serviced — the network front door
//!
//! [`torus-service`](torus_service) turned the exchange runtime into a
//! persistent in-process engine; this crate puts a socket in front of
//! it. The daemon is deliberately dependency-light — a fixed pool of
//! hand-rolled `poll(2)` reactor threads that accept, read and write
//! every connection, and hand-rolled newline-delimited JSON — because the
//! container this grows in has no async runtime and no network access
//! to fetch one, and because the protocol is small enough that a
//! framework would be mostly weight. Daemon thread count is a function
//! of its configuration (reactor pool, engine drivers, worker pool),
//! never of how many clients connect or how many jobs are in flight.
//!
//! What the front door adds on top of the engine:
//!
//! * **A validated job spec** ([`spec::JobSpec`]): the wire form of a
//!   job — shape, block bytes, payload, fault plan, retry policy —
//!   with strict unknown-field rejection, range checks, a published
//!   [`schema`](spec::JobSpec::schema), and a `validate` op that
//!   normalizes without running.
//! * **Multi-tenant admission**: connections authenticate with a
//!   `hello {tenant}`; per-tenant quotas reject with typed reasons
//!   while the engine round-robins dequeue across tenants so no one
//!   tenant starves the rest.
//! * **Streaming status**: `submit` answers `accepted {job_id}`
//!   immediately, then `status` heartbeats while queued/running, then
//!   a final `done` with a delivery checksum
//!   ([`checksum`]) proving bit-exactness without shipping payloads.
//! * **Graceful drain**: a `drain` request or SIGTERM
//!   ([`signal`]) stops admission, finishes every admitted job, and
//!   hands the final aggregate stats to whoever asked.
//!
//! ## Quick start
//!
//! ```no_run
//! use torus_serviced::{Client, Daemon, DaemonConfig, JobSpec};
//!
//! let (addr, daemon) = Daemon::spawn(DaemonConfig::default()).unwrap();
//! let mut client = Client::connect(addr).unwrap();
//! client.hello("acme").unwrap();
//! let spec = JobSpec { shape: vec![4, 4], ..JobSpec::default() };
//! let job = client.submit(&spec).unwrap();
//! let done = client.wait_done(job).unwrap();
//! assert!(done.ok && done.checksum.is_some());
//! client.drain().unwrap();
//! daemon.join().unwrap();
//! ```

#![warn(missing_docs)]

pub mod checksum;
pub mod client;
pub mod journal;
pub mod json;
pub mod proto;
mod reactor;
pub mod server;
pub mod signal;
pub mod spec;

pub use client::{
    CancelReply, Client, ClientError, DoneEvent, JobStatusReply, DEFAULT_READ_TIMEOUT,
};
pub use journal::{Journal, JournalConfig, JournalError, JournalStats, Recovery};
pub use server::{Daemon, DaemonConfig};
pub use spec::{
    FaultSpec, JobSpec, RetrySpec, SpecError, MAX_BLOCK_BYTES, MAX_DEADLINE_MS, MAX_STALL_US,
    MAX_WORKERS,
};
