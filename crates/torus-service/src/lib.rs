#![warn(missing_docs)]

//! A persistent multi-job exchange engine over the torus runtime.
//!
//! Every entry point below [`torus_runtime::Runtime`] executes *one*
//! exchange: it spawns worker threads, builds the step plan, runs, and
//! tears everything down. A deployment that serves many transposes,
//! FFT shuffles, and collective phases per second cannot afford that
//! per-call setup, so this crate keeps the expensive state alive across
//! jobs:
//!
//! * **One shared [`WorkerPool`](torus_runtime::WorkerPool)** executes
//!   every job. Worker threads park between jobs instead of being
//!   joined; a run reserves a *gang* of threads atomically, so
//!   concurrent jobs time-share the pool without deadlock.
//! * **A bounded FIFO queue with admission control** decouples
//!   submission from execution. [`Engine::submit`] returns immediately
//!   with a [`JobHandle`]; when the queue is at its configured depth the
//!   job is rejected with [`SubmitError::QueueFull`] instead of growing
//!   without bound.
//! * **An LRU plan cache** keyed by `(shape, block_bytes, workers)`
//!   shares one [`PreparedExchange`](alltoall_core::PreparedExchange),
//!   one [`StepPlan`](alltoall_core::steps::StepPlan), and one warm
//!   [`PoolBank`](torus_runtime::PoolBank) of frame buffers across every
//!   job with the same key — steady-state submission does no schedule
//!   construction and no hot-path allocation.
//! * **Failure isolation**: each run owns its abort flag, retained
//!   frames, and failure record, so a job that aborts or degrades under
//!   an injected [`FaultPlan`](torus_runtime::FaultPlan) cannot poison
//!   the pool, the cache, or any other job.
//!
//! [`Engine::shutdown`] drains queued jobs, joins the drivers and the
//! pool, and returns the aggregate [`ServiceStats`].
//!
//! ```
//! use torus_service::{Engine, EngineConfig, PayloadSpec};
//! use torus_runtime::RuntimeConfig;
//! use torus_topology::TorusShape;
//!
//! let engine = Engine::new(EngineConfig::default());
//! let shape = TorusShape::new_2d(4, 4).unwrap();
//! let cfg = RuntimeConfig::default().with_workers(2);
//! let job = engine
//!     .submit(shape, PayloadSpec::Pattern, cfg)
//!     .unwrap();
//! let result = job.wait();
//! assert!(result.report.as_ref().unwrap().verified);
//! let stats = engine.shutdown();
//! assert_eq!(stats.jobs_completed, 1);
//! ```

mod cache;
mod engine;
mod job;
mod stats;
mod tenant;

pub use cache::{CachedPlan, PlanCache, PlanKey, PlanVariant};
pub use engine::{CancelOutcome, Engine, EngineConfig};
pub use job::{EventHook, JobEvent, JobHandle, JobResult, JobStatus, SubmitError};
pub use stats::{Histogram, LatencyStats, ServiceStats, HISTOGRAM_BUCKETS};
pub use tenant::{RateLimit, TenantQuota, TenantStats, DEFAULT_TENANT};
// Job vocabulary owned by the runtime (ops and payload streams),
// re-exported so the daemon and clients need no direct `torus-runtime`
// edge just to describe a job.
pub use torus_runtime::{CollectiveOp, Dtype, JobOp, PayloadSpec, ReduceOp};
// The all-to-all's shape check (`Exchange::new`), re-exported so the
// daemon's spec validation refuses exactly the shapes a plan build would.
pub use alltoall_core::Exchange;
