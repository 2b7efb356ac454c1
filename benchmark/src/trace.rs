//! The traced pass: replay a fixed sample of the workload's ops, time
//! the calls into each layer's public functions on the same specs, and
//! derive the per-layer metrics from the recorded spans.
//!
//! Spans are recorded here, from outside the stack, around public calls
//! only; nothing inside the program is instrumented. Each sampled op
//! gets one tree (all spans of a tree share its `op_id`):
//!
//! ```text
//! client.job                          submit -> accepted -> done over loopback
//! ├─ torus-serviced.ping_rtt          socket + reactor round trip
//! ├─ torus-serviced.json_parse        json::parse of the real submit line
//! ├─ torus-serviced.spec_validate     JobSpec::from_json
//! ├─ torus-serviced.journal_append    Journal::record_accepted (private journal)
//! ├─ torus-serviced.checksum          checksum::delivery_checksum
//! ├─ torus-serviced.json_dump         Json::dump of the submit request
//! └─ torus-service.engine_job         in-process Engine: submit -> wait
//!    ├─ torus-service.queue_wait      submit -> EventHook Started
//!    └─ torus-service.run             Started -> Finished
//!       └─ torus-runtime.run          Runtime::run / CollectiveRuntime::run
//!          ├─ torus-runtime.payload_gen   seeding every block's payload
//!          ├─ torus-runtime.run_wall      report.wall (reported by the layer)
//!          └─ alltoall-core.verify        verify_delivery (all-to-all only)
//! ```
//!
//! The workload's own op is the tree's `client.job` (wire workloads) or
//! its `torus-runtime.run` (lib workloads); every other span is a
//! *replay*: the same spec pushed through that layer's public entry
//! point after the real op finished. A replay's `start_ns`/`end_ns` are
//! when the replay ran, so they lie outside the parent's interval — the
//! parent/child link attributes by duration, and a span's self time is
//! its duration minus its direct children's (per call, for spans that
//! loop `reps` times). Spans with no `op_id` are shape and fixed probes.

use std::collections::HashMap;
use std::io;
use std::path::Path as FsPath;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use alltoall_core::block::Buffers;
use alltoall_core::{verify_delivery, Block, PreparedExchange};
use bytes::{Bytes, BytesMut};
use torus_runtime::{
    crc32, decode_gathered, encode_gathered, CollectivePlan, CollectiveRuntime, JobOp,
    RuntimeConfig, RuntimeReport, WireFrame,
};
use torus_service::{Engine, EventHook, JobEvent, JobHandle, JobResult, ServiceStats};
use torus_serviced::json::{self, Json};
use torus_serviced::{checksum, JobSpec, Journal, JournalConfig};
use torus_topology::TorusShape;

use crate::run::{lib_op, ms, wire_op, LibRig, Rig, Sample};
use crate::stack::{engine_config, JournalRoot, Stack, TENANT};
use crate::stats::{mean, median};
use crate::workload::{by_name, Op, Path, Workload, COLLECTIVES};

/// Per-layer metrics, in `BENCHMARK.json` order: `(name, unit)`.
pub const PER_LAYER: [(&str, &str); 51] = [
    ("benchmark.traced_done_ms_p50", "ms"),
    ("alltoall-core.plan_build_ms", "ms"),
    ("alltoall-core.plan_build_8x8x8_ms", "ms"),
    ("alltoall-core.verify_ms", "ms"),
    ("collective-plan.lower_ms", "ms"),
    ("torus-runtime.crc32_mb_s", "MB/s"),
    ("torus-runtime.encode_us_per_frame", "us"),
    ("torus-runtime.decode_us_per_frame", "us"),
    ("torus-runtime.run_wall_ms", "ms"),
    ("torus-runtime.assembly_ms", "ms"),
    ("torus-runtime.transport_ms", "ms"),
    ("torus-runtime.rearrange_ms", "ms"),
    ("torus-runtime.run_overhead_ms", "ms"),
    ("torus-runtime.payload_gen_ms", "ms"),
    ("torus-runtime.recovery_ms_per_drop", "ms"),
    ("torus-runtime.wire_bytes", "count"),
    ("torus-runtime.bytes_copied", "count"),
    ("torus-runtime.allocations", "count"),
    ("torus-runtime.messages", "count"),
    ("torus-runtime.peak_node_bytes", "count"),
    ("torus-runtime.injected_drops", "count"),
    ("torus-runtime.timeouts", "count"),
    ("torus-runtime.retries", "count"),
    ("torus-runtime.resends", "count"),
    ("torus-runtime.recovered", "count"),
    ("torus-runtime.collective.broadcast_ms_p50", "ms"),
    ("torus-runtime.collective.scatter_ms_p50", "ms"),
    ("torus-runtime.collective.gather_ms_p50", "ms"),
    ("torus-runtime.collective.allgather_ms_p50", "ms"),
    ("torus-runtime.collective.reduce_ms_p50", "ms"),
    ("torus-runtime.collective.allreduce_ms_p50", "ms"),
    ("torus-service.engine_job_ms_p50", "ms"),
    ("torus-service.queue_wait_ms_p50", "ms"),
    ("torus-service.run_ms_p50", "ms"),
    ("torus-service.engine_overhead_ms", "ms"),
    ("torus-service.cache_hits", "count"),
    ("torus-service.cache_misses", "count"),
    ("torus-service.queue_high_water", "count"),
    ("torus-serviced.accepted_ms_p50", "ms"),
    ("torus-serviced.ping_rtt_us", "us"),
    ("torus-serviced.json_parse_us", "us"),
    ("torus-serviced.spec_validate_us", "us"),
    ("torus-serviced.json_dump_us", "us"),
    ("torus-serviced.journal_append_ms", "ms"),
    ("torus-serviced.checksum_ms", "ms"),
    ("torus-serviced.unattributed_ms", "ms"),
    ("torus-serviced.journal_fsyncs", "count"),
    ("torus-serviced.group_commit_batches", "count"),
    ("torus-serviced.group_commit_records", "count"),
    ("torus-serviced.mean_batch_size", "count"),
    ("torus-serviced.status_events_per_job", "count"),
];

/// Calls per span for the sub-microsecond probes, so one span is long
/// against the clock's own cost.
const MICRO_REPS: u32 = 32;

/// One recorded interval.
#[derive(Clone, Debug)]
pub struct Span {
    /// `<crate>.<call>`.
    pub name: &'static str,
    /// Start, ns since the tracer's epoch.
    pub start_ns: u64,
    /// End, ns since the tracer's epoch.
    pub end_ns: u64,
    /// Index of the span this one is attributed to.
    pub parent: Option<usize>,
    /// The sampled op whose tree this span belongs to.
    pub op_id: Option<usize>,
    /// Calls the interval covers (per-call time = duration / reps).
    pub reps: u32,
    /// `false` for an interval timed here around a call; `true` for a
    /// duration the layer itself reported (`RuntimeReport::wall`),
    /// anchored at its parent's start — only its length is meaningful.
    pub reported: bool,
    /// Wire root only: when `accepted` was read.
    pub accepted_ns: Option<u64>,
}

impl Span {
    /// Per-call duration, ms.
    pub fn call_ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6 / self.reps as f64
    }
}

/// In-memory span store; written out once, at exit.
pub struct Tracer {
    epoch: Instant,
    /// Every span, in recording order; a span's id is its index.
    pub spans: Vec<Span>,
}

impl Tracer {
    fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    fn push(
        &mut self,
        name: &'static str,
        (start, end): (Instant, Instant),
        parent: Option<usize>,
        op_id: Option<usize>,
    ) -> usize {
        self.spans.push(Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            op_id,
            reps: 1,
            reported: false,
            accepted_ns: None,
        });
        self.spans.len() - 1
    }

    /// Times `reps` calls of `f` as one span.
    fn call<R>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        op_id: Option<usize>,
        reps: u32,
        mut f: impl FnMut() -> R,
    ) -> R {
        let start = Instant::now();
        for _ in 1..reps {
            std::hint::black_box(f());
        }
        let result = f();
        let id = self.push(name, (start, Instant::now()), parent, op_id);
        self.spans[id].reps = reps;
        result
    }

    /// Records a duration the layer reported, anchored at `parent`.
    fn reported(
        &mut self,
        name: &'static str,
        duration: Duration,
        reps: u32,
        parent: Option<usize>,
        op_id: Option<usize>,
    ) {
        let start_ns = parent.map_or_else(|| self.ns(Instant::now()), |p| self.spans[p].start_ns);
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns + duration.as_nanos() as u64,
            parent,
            op_id,
            reps,
            reported: true,
            accepted_ns: None,
        });
    }

    /// Per-call durations of every span called `name`, ms.
    pub fn calls_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::call_ms)
            .collect()
    }

    /// A span's self time: its per-call duration minus its direct
    /// children's, ms.
    pub fn self_ms(&self, id: usize) -> f64 {
        let children: f64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(Span::call_ms)
            .sum();
        self.spans[id].call_ms() - children
    }

    fn ids(&self, name: &str) -> Vec<usize> {
        (0..self.spans.len())
            .filter(|&i| self.spans[i].name == name)
            .collect()
    }

    fn to_json(&self, w: &Workload, seed: u64) -> Json {
        let opt = |v: Option<u64>| v.map_or(Json::Null, Json::u64);
        let spans = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                Json::obj([
                    ("id", Json::u64(id as u64)),
                    ("name", Json::str(s.name)),
                    ("start_ns", Json::u64(s.start_ns)),
                    ("end_ns", Json::u64(s.end_ns)),
                    ("parent", opt(s.parent.map(|p| p as u64))),
                    ("op_id", opt(s.op_id.map(|o| o as u64))),
                    ("reps", Json::u64(s.reps as u64)),
                    ("reported", Json::Bool(s.reported)),
                    ("accepted_ns", opt(s.accepted_ns)),
                ])
            })
            .collect();
        Json::obj([
            ("workload", Json::str(w.name)),
            ("seed", Json::u64(seed)),
            ("workload_root", Json::str(workload_root(w))),
            ("spans", Json::Arr(spans)),
        ])
    }
}

/// The span name that is the workload's own op in each tree.
pub fn workload_root(w: &Workload) -> &'static str {
    match w.path {
        Path::Lib => "torus-runtime.run",
        Path::Wire => "client.job",
    }
}

/// What the traced pass produced.
#[derive(Debug)]
pub struct Traced {
    /// `(name, unit, value)` for every per-layer metric.
    pub metrics: Vec<(&'static str, &'static str, f64)>,
    /// Checked ops: the sampled roots plus their engine and other-side
    /// replays.
    pub attempted: usize,
    /// Checked ops that failed their gate.
    pub failed: usize,
    /// Sampled ops (trees in the trace).
    pub sample: usize,
}

/// Engine hook timestamps per job id: `(started, finished)`.
type HookTimes = Arc<Mutex<HashMap<u64, (Option<Instant>, Option<Instant>)>>>;

fn hook_into(times: &HookTimes) -> EventHook {
    let times = Arc::clone(times);
    Arc::new(move |event: JobEvent<'_>| {
        let now = Instant::now();
        let mut map = times.lock().expect("hook map is never poisoned");
        match event {
            JobEvent::Started { job_id, .. } => map.entry(job_id).or_default().0 = Some(now),
            JobEvent::Finished { job_id, .. } => map.entry(job_id).or_default().1 = Some(now),
        }
    })
}

/// The real `submit` line a client writes for `spec`.
fn submit_request(spec: &JobSpec) -> Json {
    Json::obj([("op", Json::str("submit")), ("spec", spec.to_json())])
}

/// A correctly delivered exchange in counting mode, for `verify_delivery`.
fn delivered(prepared: &PreparedExchange) -> Buffers<()> {
    Buffers::from_vecs(
        prepared
            .expected_delivery()
            .iter()
            .enumerate()
            .map(|(dst, sources)| sources.iter().map(|&s| Block::new(s, dst as u32)).collect())
            .collect(),
    )
}

/// Seeds every block `spec` starts with, the way the executors do.
fn generate_payloads(spec: &JobSpec, shape: &TorusShape, plan: Option<&CollectivePlan>) -> usize {
    let m = spec.block_bytes;
    let nn = shape.num_nodes();
    let mut bytes = 0;
    match plan {
        None => {
            for src in 0..nn {
                for dst in (0..nn).filter(|&d| d != src) {
                    bytes += std::hint::black_box(spec.payload.payload(src, dst, m)).len();
                }
            }
        }
        Some(plan) => {
            for node in 0..nn {
                for &key in plan.initial_keys(node) {
                    let id = plan.seed_id(node, key);
                    bytes += std::hint::black_box(spec.payload.key_payload(id, m)).len();
                }
            }
        }
    }
    bytes
}

/// One job of the in-process engine replay.
struct EngineJob {
    submitted: Instant,
    /// `JobEvent::Started`, from the benchmark's hook.
    started: Instant,
    /// `JobEvent::Finished`, from the benchmark's hook.
    finished: Instant,
    /// When `JobHandle::wait` returned.
    waited: Instant,
    result: Arc<JobResult>,
}

/// Replays `sample` on a fresh in-process engine, submitted in the
/// workload's batches so a burst queues here the way it does behind the
/// daemon.
fn engine_replay(
    w: &Workload,
    shape: &TorusShape,
    sample: &[Op],
) -> io::Result<(Vec<EngineJob>, ServiceStats)> {
    let hook_times: HookTimes = Arc::default();
    let engine = Engine::new(engine_config().with_event_hook(hook_into(&hook_times)));
    let mut waited = Vec::with_capacity(sample.len());
    for chunk in sample.chunks(w.batch) {
        let submitted: Vec<(Instant, JobHandle)> = chunk
            .iter()
            .map(|op| {
                let spec = &op.spec;
                let t = Instant::now();
                let handle = engine
                    .submit_op_with_deadline(
                        TENANT,
                        shape.clone(),
                        spec.op,
                        spec.payload,
                        spec.runtime_config(),
                        None,
                    )
                    .map_err(io::Error::other)?;
                Ok((t, handle))
            })
            .collect::<io::Result<_>>()?;
        for (t, handle) in submitted {
            let result = handle.wait();
            waited.push((t, handle.id(), result, Instant::now()));
        }
    }
    // Shutdown joins the drivers, so every hook has fired.
    let stats = engine.shutdown();
    let times = hook_times.lock().expect("hook map is never poisoned");
    let jobs = waited
        .into_iter()
        .map(|(submitted, id, result, waited)| match times.get(&id) {
            Some(&(Some(started), Some(finished))) => Ok(EngineJob {
                submitted,
                started,
                finished,
                waited,
                result,
            }),
            _ => Err(io::Error::other("engine job fired no lifecycle events")),
        })
        .collect::<io::Result<_>>()?;
    Ok((jobs, stats))
}

/// Runs the traced pass for one workload and writes
/// `<out>/trace-<workload>.json`.
pub fn measure(
    w: &'static Workload,
    ops: &[Op],
    seed: u64,
    seconds: u64,
    journals: &JournalRoot,
    out_dir: &FsPath,
) -> io::Result<Traced> {
    let n = w.trace_sample(seconds);
    let sample: Vec<Op> = ops.iter().cycle().take(n).cloned().collect();
    let shape = w.shape();
    let mut tracer = Tracer::new();
    let mut attempted = 0;
    let mut failed = 0;
    let mut check = |ok: bool| {
        attempted += 1;
        failed += usize::from(!ok);
    };

    // Phase A: the sampled ops, the workload's own way, on the same
    // warm system the untraced pass measures.
    let mut rig = Rig::up(w, ops, journals)?;
    let journal_before = match &mut rig.stack {
        Some(stack) => journal_counters(&mut stack.clients[0])?,
        None => [0.0; 3],
    };
    let roots: Vec<Sample> = rig.run_ops(&sample);
    roots.iter().for_each(|s| check(s.ok));

    // The other side of the stack, so every layer is probed on every
    // workload: lib workloads push the equivalent job through a daemon,
    // wire workloads run the same spec on the bare runtime.
    let lib = match rig.lib.take() {
        Some(lib) => lib,
        None => LibRig::build(w, ops)?,
    };
    let mut stack = match rig.stack.take() {
        Some(stack) => stack,
        None => Stack::up(journals, 1)?,
    };
    let other: Vec<Sample> = match w.path {
        Path::Lib => sample
            .iter()
            .map(|op| wire_op(&mut stack.clients[0], op))
            .collect(),
        Path::Wire => sample.iter().map(|op| lib_op(&lib, op)).collect(),
    };
    other.iter().for_each(|s| check(s.ok));
    let (wire, bare) = match w.path {
        Path::Lib => (&other, &roots),
        Path::Wire => (&roots, &other),
    };

    // Daemon-side counts for the sampled jobs only (warm-up excluded).
    let journal_after = journal_counters(&mut stack.clients[0])?;
    let status_events: Vec<f64> = wire
        .iter()
        .filter_map(|s| s.job_id)
        .map(|id| {
            stack
                .clients
                .iter()
                .map(|c| c.status_trace(id).len())
                .sum::<usize>() as f64
        })
        .collect();

    let (engine_jobs, engine_stats) = engine_replay(w, &shape, &sample)?;

    // Per-op replays of the remaining layer calls, recorded tree by tree.
    let private_journal_dir = journals.fresh();
    let (private_journal, _) =
        Journal::open(JournalConfig::new(&private_journal_dir)).map_err(io::Error::other)?;
    for (i, op) in sample.iter().enumerate() {
        let op_id = Some(i);
        let spec = &op.spec;
        let job = tracer.push("client.job", (wire[i].start, wire[i].end), None, op_id);
        let accepted_ns = wire[i].accepted.map(|a| tracer.ns(a));
        tracer.spans[job].accepted_ns = accepted_ns;
        let job = Some(job);

        let client = &mut stack.clients[0];
        tracer
            .call("torus-serviced.ping_rtt", job, op_id, 1, || client.ping())
            .map_err(io::Error::other)?;
        let request = submit_request(spec);
        let line = tracer.call("torus-serviced.json_dump", job, op_id, MICRO_REPS, || {
            request.dump()
        });
        let parsed = tracer
            .call("torus-serviced.json_parse", job, op_id, MICRO_REPS, || {
                json::parse(&line)
            })
            .map_err(io::Error::other)?;
        let wire_spec = parsed.get("spec").expect("submit line carries the spec");
        let validated = tracer
            .call(
                "torus-serviced.spec_validate",
                job,
                op_id,
                MICRO_REPS,
                || JobSpec::from_json(wire_spec),
            )
            .map_err(io::Error::other)?;
        check(validated == *spec);
        tracer
            .call("torus-serviced.journal_append", job, op_id, 1, || {
                private_journal.record_accepted(i as u64 + 1, TENANT, wire_spec.clone())
            })
            .map_err(io::Error::other)?;

        let engine = &engine_jobs[i];
        let digest = tracer.call("torus-serviced.checksum", job, op_id, 1, || {
            engine
                .result
                .deliveries
                .as_deref()
                .map(checksum::delivery_checksum)
        });
        check(digest.map(checksum::to_hex).as_deref() == Some(op.expected.as_str()));
        let engine_job = Some(tracer.push(
            "torus-service.engine_job",
            (engine.submitted, engine.waited),
            job,
            op_id,
        ));
        tracer.push(
            "torus-service.queue_wait",
            (engine.submitted, engine.started),
            engine_job,
            op_id,
        );
        let engine_run = Some(tracer.push(
            "torus-service.run",
            (engine.started, engine.finished),
            engine_job,
            op_id,
        ));

        let run = Some(tracer.push(
            "torus-runtime.run",
            (bare[i].start, bare[i].end),
            engine_run,
            op_id,
        ));
        let plan = lib.collective_plan(spec);
        tracer.call("torus-runtime.payload_gen", run, op_id, 1, || {
            generate_payloads(spec, &shape, plan)
        });
        if let Some(report) = &bare[i].report {
            tracer.reported("torus-runtime.run_wall", report.wall, 1, run, op_id);
        }
        if spec.op == JobOp::Alltoall {
            let buffers = delivered(lib.prepared());
            tracer
                .call("alltoall-core.verify", run, op_id, 1, || {
                    verify_delivery(&buffers, lib.prepared().expected_delivery())
                })
                .map_err(io::Error::other)?;
        }
    }
    drop(private_journal);
    let _ = std::fs::remove_dir_all(&private_journal_dir);
    stack.down()?;

    let probe_recovered = probes(&mut tracer, w, &shape, seed)?;

    let reports: Vec<&RuntimeReport> = bare.iter().filter_map(|s| s.report.as_ref()).collect();
    let counts = Counts {
        engine: [
            engine_stats.cache_hits as f64,
            engine_stats.cache_misses as f64,
            engine_stats.queue_high_water as f64,
        ],
        journal: std::array::from_fn(|k| journal_after[k] - journal_before[k]),
        status_events_per_job: mean(&status_events),
        probe_recovered,
    };
    let metrics = derive_metrics(&tracer, w, &reports, &counts);

    std::fs::create_dir_all(out_dir)?;
    std::fs::write(
        out_dir.join(format!("trace-{}.json", w.name)),
        tracer.to_json(w, seed).dump(),
    )?;
    Ok(Traced {
        metrics,
        attempted,
        failed,
        sample: n,
    })
}

/// `[fsyncs, group_commit_batches, group_commit_records]` from `stats`.
fn journal_counters(client: &mut torus_serviced::Client) -> io::Result<[f64; 3]> {
    let stats = client.stats().map_err(io::Error::other)?;
    let journal = stats.get("journal");
    let field = |k: &str| {
        journal
            .and_then(|j| j.get(k))
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
    };
    Ok([
        field("fsyncs"),
        field("group_commit_batches"),
        field("group_commit_records"),
    ])
}

/// Shape and fixed probes: layer calls that belong to no single op.
/// Returns the drops each faulty exchange of the recovery probe recovered.
fn probes(tracer: &mut Tracer, w: &Workload, shape: &TorusShape, seed: u64) -> io::Result<f64> {
    let build = |shape: &TorusShape| {
        let prepared = PreparedExchange::new(shape)?;
        std::hint::black_box(prepared.step_plan());
        Ok::<_, alltoall_core::ExchangeError>(prepared)
    };
    let mut prepared = None;
    for _ in 0..3 {
        let built = tracer.call("alltoall-core.plan_build", None, None, 1, || build(shape));
        prepared = Some(built.map_err(io::Error::other)?);
    }
    let prepared = prepared.expect("built three times");
    // A fixed larger shape: plan construction is O(N^2), and the
    // workloads' own shapes are too small to show it.
    let big = TorusShape::new(&[8, 8, 8]).expect("8x8x8 is valid");
    tracer
        .call("alltoall-core.plan_build_8x8x8", None, None, 1, || {
            build(&big)
        })
        .map_err(io::Error::other)?;
    let buffers = delivered(&prepared);
    for _ in 0..3 {
        tracer
            .call("alltoall-core.verify_probe", None, None, 1, || {
                verify_delivery(&buffers, prepared.expected_delivery())
            })
            .map_err(io::Error::other)?;
    }

    for op in COLLECTIVES {
        tracer
            .call("collective-plan.lower", None, None, 1, || {
                CollectivePlan::new(shape, op)
            })
            .map_err(io::Error::other)?;
    }

    let mib = vec![0xA5u8; 1 << 20];
    for _ in 0..8 {
        tracer.call("torus-runtime.crc32", None, None, 1, || crc32(&mib));
    }

    // One combined frame the size a node forwards: 8 blocks x m.
    let mut blocks: Vec<Block<Bytes>> = (0..8u32)
        .map(|i| {
            Block::with_payload(
                i,
                i + 1,
                torus_runtime::pattern_payload(i, i + 1, w.block_bytes),
            )
        })
        .collect();
    let (mut framing, mut payloads) = (BytesMut::with_capacity(0), Vec::new());
    let (mut encode, mut decode) = (Duration::ZERO, Duration::ZERO);
    const FRAMES: u32 = 512;
    for seq in 0..FRAMES {
        let t0 = Instant::now();
        let frame = encode_gathered(seq, &blocks, framing, payloads);
        let t1 = Instant::now();
        let WireFrame::Gathered {
            framing: f,
            payloads: mut p,
        } = frame
        else {
            return Err(io::Error::other(
                "encode_gathered returned a contiguous frame",
            ));
        };
        blocks.clear();
        let t2 = Instant::now();
        let got = decode_gathered(&f, &mut p, &mut blocks).map_err(io::Error::other)?;
        decode += t2.elapsed();
        encode += t1 - t0;
        if got != seq || blocks.len() != 8 {
            return Err(io::Error::other("gathered frame did not round-trip"));
        }
        (framing, payloads) = (f, p);
    }
    tracer.reported("torus-runtime.encode_gathered", encode, FRAMES, None, None);
    tracer.reported("torus-runtime.decode_gathered", decode, FRAMES, None, None);

    let config = RuntimeConfig::default()
        .with_block_bytes(w.block_bytes)
        .with_workers(1);
    for (op, name) in COLLECTIVES.into_iter().zip(COLLECTIVE_SPANS) {
        let runtime =
            CollectiveRuntime::new(shape, op, config.clone()).map_err(io::Error::other)?;
        for _ in 0..5 {
            tracer
                .call(name, None, None, 1, || runtime.run())
                .map_err(io::Error::other)?;
        }
    }

    // Recovery probe, the same on every workload: lib_faulty's own
    // exchanges (8x8 x 64 B, three dropped frames each, 25 ms receive
    // deadline) against their clean siblings.
    let faulty = by_name("lib_faulty").expect("lib_faulty is a workload");
    let lib = LibRig::build(faulty, &[])?;
    let mut recovered = Vec::new();
    for op in faulty.ops(seed).iter().take(2 * faulty.group) {
        let sample = lib_op(&lib, op);
        let report = sample
            .report
            .as_ref()
            .filter(|_| sample.ok)
            .ok_or_else(|| io::Error::other("recovery probe exchange failed"))?;
        let name = if op.spec.fault.is_some() {
            recovered.push(report.faults.recovered as f64);
            "torus-runtime.recovery_probe_faulty"
        } else {
            "torus-runtime.recovery_probe_clean"
        };
        tracer.push(name, (sample.start, sample.end), None, None);
    }
    let recovered = mean(&recovered);
    if recovered == 0.0 {
        return Err(io::Error::other(
            "recovery probe: no dropped frame was recovered",
        ));
    }
    Ok(recovered)
}

const COLLECTIVE_SPANS: [&str; 6] = [
    "torus-runtime.collective.broadcast",
    "torus-runtime.collective.scatter",
    "torus-runtime.collective.gather",
    "torus-runtime.collective.allgather",
    "torus-runtime.collective.reduce",
    "torus-runtime.collective.allreduce",
];

/// Counts read from the layers' own statistics rather than from spans.
struct Counts {
    /// `[cache_hits, cache_misses, queue_high_water]` of the replay engine.
    engine: [f64; 3],
    /// `[fsyncs, group_commit_batches, group_commit_records]` the daemon's
    /// journal spent on the sampled jobs.
    journal: [f64; 3],
    status_events_per_job: f64,
    /// Drops each faulty exchange of the recovery probe recovered.
    probe_recovered: f64,
}

fn derive_metrics(
    tracer: &Tracer,
    w: &Workload,
    reports: &[&RuntimeReport],
    counts: &Counts,
) -> Vec<(&'static str, &'static str, f64)> {
    let p50 = |name: &str| median(&tracer.calls_ms(name));
    let report_ms = |f: fn(&RuntimeReport) -> Duration| {
        median(&reports.iter().map(|r| ms(f(r))).collect::<Vec<_>>())
    };
    let per_run = |f: fn(&RuntimeReport) -> u64| {
        mean(&reports.iter().map(|r| f(r) as f64).collect::<Vec<_>>())
    };
    let jobs = tracer.ids("client.job");
    let accepted: Vec<f64> = jobs
        .iter()
        .filter_map(|&id| {
            let s = &tracer.spans[id];
            s.accepted_ns.map(|a| (a - s.start_ns) as f64 / 1e6)
        })
        .collect();
    let unattributed: Vec<f64> = jobs.iter().map(|&id| tracer.self_ms(id)).collect();
    let engine_overhead: Vec<f64> = tracer
        .ids("torus-service.engine_job")
        .iter()
        .map(|&id| {
            let run: f64 = tracer
                .spans
                .iter()
                .filter(|s| s.parent == Some(id) && s.name == "torus-service.run")
                .map(Span::call_ms)
                .sum();
            tracer.spans[id].call_ms() - run
        })
        .collect();
    let run_overhead: Vec<f64> = tracer
        .ids("torus-runtime.run")
        .iter()
        .map(|&id| {
            let wall: f64 = tracer
                .spans
                .iter()
                .filter(|s| s.parent == Some(id) && s.name == "torus-runtime.run_wall")
                .map(Span::call_ms)
                .sum();
            tracer.spans[id].call_ms() - wall
        })
        .collect();
    let root_p50 = p50(workload_root(w));
    let recovery = (mean(&tracer.calls_ms("torus-runtime.recovery_probe_faulty"))
        - mean(&tracer.calls_ms("torus-runtime.recovery_probe_clean")))
        / counts.probe_recovered;
    let [fsyncs, batches, records] = counts.journal;
    let mean_batch = if batches > 0.0 {
        records / batches
    } else {
        0.0
    };

    let values = [
        root_p50,
        p50("alltoall-core.plan_build"),
        p50("alltoall-core.plan_build_8x8x8"),
        p50("alltoall-core.verify_probe"),
        tracer.calls_ms("collective-plan.lower").iter().sum(),
        // 1 MiB per call: MB/s = 1.048576 MB / (ms / 1e3).
        1.048_576e3 / p50("torus-runtime.crc32"),
        p50("torus-runtime.encode_gathered") * 1e3,
        p50("torus-runtime.decode_gathered") * 1e3,
        report_ms(|r| r.wall),
        report_ms(RuntimeReport::assembly),
        report_ms(RuntimeReport::transport),
        report_ms(RuntimeReport::rearrange),
        median(&run_overhead),
        p50("torus-runtime.payload_gen"),
        recovery,
        per_run(|r| r.wire_bytes),
        per_run(|r| r.bytes_copied),
        per_run(|r| r.allocations),
        per_run(|r| r.messages),
        per_run(|r| r.peak_node_bytes),
        per_run(|r| r.faults.injected_drops),
        per_run(|r| r.faults.timeouts),
        per_run(|r| r.faults.retries),
        per_run(|r| r.faults.resends),
        per_run(|r| r.faults.recovered),
        p50(COLLECTIVE_SPANS[0]),
        p50(COLLECTIVE_SPANS[1]),
        p50(COLLECTIVE_SPANS[2]),
        p50(COLLECTIVE_SPANS[3]),
        p50(COLLECTIVE_SPANS[4]),
        p50(COLLECTIVE_SPANS[5]),
        p50("torus-service.engine_job"),
        p50("torus-service.queue_wait"),
        p50("torus-service.run"),
        median(&engine_overhead),
        counts.engine[0],
        counts.engine[1],
        counts.engine[2],
        median(&accepted),
        p50("torus-serviced.ping_rtt") * 1e3,
        p50("torus-serviced.json_parse") * 1e3,
        p50("torus-serviced.spec_validate") * 1e3,
        p50("torus-serviced.json_dump") * 1e3,
        p50("torus-serviced.journal_append"),
        p50("torus-serviced.checksum"),
        median(&unattributed),
        fsyncs,
        batches,
        records,
        mean_batch,
        counts.status_events_per_job,
    ];
    PER_LAYER
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| (name, unit, value))
        .collect()
}
