//! The untraced pass: set the stack up (several times), run one
//! workload in a closed loop for `--seconds`, check every result, and
//! report the end-to-end metrics.

use std::io;
use std::sync::Arc;
use std::time::{Duration, Instant};

use alltoall_core::{PreparedExchange, StepPlan};
use torus_runtime::{
    CollectiveOp, CollectivePlan, CollectiveRuntime, JobOp, Runtime, RuntimeReport,
};
use torus_service::PayloadSpec;
use torus_serviced::{checksum, Client, JobSpec};

use crate::stack::{JournalRoot, Stack};
use crate::stats::{mean, median, percentile, sorted, supported_tail};
use crate::workload::{Op, Path, Workload};

/// Set-ups per run; `setup_s` is their median, and the last one serves
/// the timed window.
pub const SETUPS: usize = 5;

/// End-to-end metrics, in `BENCHMARK.json` order: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 6] = [
    ("done_ms_p50", "ms"),
    ("done_ms_p90", "ms"),
    ("jobs_per_s", "1/s"),
    ("goodput_mb_s", "MB/s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
];

/// What the caller of one op observed.
#[derive(Debug)]
pub struct Sample {
    /// Just before the `Runtime::run()` call, or before the submit line
    /// (or batch) is serialized and written.
    pub start: Instant,
    /// Wire only: when `accepted` was read (per batch under batching).
    pub accepted: Option<Instant>,
    /// When `run()` returned, or the job's `done` was read.
    pub end: Instant,
    /// The correctness gate: lib runs report `verified`; wire jobs are
    /// `ok`, `verified`, and carry exactly the expected checksum. A
    /// refused, failed or mismatched op is a failed op.
    pub ok: bool,
    /// Lib only: the run's report.
    pub report: Option<RuntimeReport>,
    /// Wire only: the daemon's job id.
    pub job_id: Option<u64>,
}

impl Sample {
    /// Submit → `done` (or `run()` call → return), milliseconds.
    pub fn done_ms(&self) -> f64 {
        ms(self.end - self.start)
    }

    /// Submit → `accepted`, milliseconds (wire only).
    pub fn accepted_ms(&self) -> Option<f64> {
        self.accepted.map(|a| ms(a - self.start))
    }
}

/// A duration in milliseconds, with all its digits.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The library workloads' system under test: one prepared exchange and
/// its step plan (plus the lowered plan of every collective in the op
/// list), shared by every run the way a plan cache shares them.
pub struct LibRig {
    prepared: Arc<PreparedExchange>,
    plan: Arc<StepPlan>,
    collectives: Vec<(CollectiveOp, Arc<CollectivePlan>)>,
}

/// A runtime ready to execute one spec.
enum Exec {
    Alltoall(Runtime),
    Collective(CollectiveRuntime),
}

impl LibRig {
    /// `PreparedExchange::new` + `step_plan` for the workload's shape,
    /// and `CollectivePlan::new` for each distinct collective in `ops`.
    pub fn build(w: &Workload, ops: &[Op]) -> io::Result<Self> {
        let shape = w.shape();
        let prepared = Arc::new(PreparedExchange::new(&shape).map_err(io::Error::other)?);
        let plan = prepared.step_plan_arc();
        let mut collectives: Vec<(CollectiveOp, Arc<CollectivePlan>)> = Vec::new();
        for op in ops {
            if let JobOp::Collective(c) = op.spec.op {
                if !collectives.iter().any(|(known, _)| *known == c) {
                    let lowered = CollectivePlan::new(&shape, c).map_err(io::Error::other)?;
                    collectives.push((c, Arc::new(lowered)));
                }
            }
        }
        Ok(Self {
            prepared,
            plan,
            collectives,
        })
    }

    /// The shared prepared exchange.
    pub fn prepared(&self) -> &PreparedExchange {
        &self.prepared
    }

    fn lowered(&self, spec: &JobSpec) -> Option<&Arc<CollectivePlan>> {
        let JobOp::Collective(c) = spec.op else {
            return None;
        };
        let (_, plan) = self.collectives.iter().find(|(known, _)| *known == c)?;
        Some(plan)
    }

    /// The lowered plan `spec` executes, if it is a collective.
    pub fn collective_plan(&self, spec: &JobSpec) -> Option<&CollectivePlan> {
        self.lowered(spec).map(Arc::as_ref)
    }

    /// A runtime for `spec` over the shared plans (no schedule work).
    fn exec(&self, spec: &JobSpec) -> io::Result<Exec> {
        let config = spec.runtime_config();
        Ok(match spec.op {
            JobOp::Alltoall => Exec::Alltoall(Runtime::from_shared(
                Arc::clone(&self.prepared),
                Arc::clone(&self.plan),
                config,
            )),
            JobOp::Collective(_) => {
                let plan = self
                    .lowered(spec)
                    .ok_or_else(|| io::Error::other("collective not in the op list"))?;
                Exec::Collective(
                    CollectiveRuntime::from_plan(Arc::clone(plan), config)
                        .map_err(io::Error::other)?,
                )
            }
        })
    }
}

/// One workload's system under test, set up and warm.
pub struct Rig {
    w: &'static Workload,
    /// Present on lib workloads (and, for the trace, on all).
    pub lib: Option<LibRig>,
    /// Present on wire workloads (and, for the trace, on all).
    pub stack: Option<Stack>,
}

impl Rig {
    /// Plan build, or daemon bind + journal open + connect + hello; then
    /// the warm-up ops. Everything `setup_s` covers.
    pub fn up(w: &'static Workload, ops: &[Op], journals: &JournalRoot) -> io::Result<Self> {
        let mut rig = match w.path {
            Path::Lib => Rig {
                w,
                lib: Some(LibRig::build(w, ops)?),
                stack: None,
            },
            Path::Wire => Rig {
                w,
                lib: None,
                stack: Some(Stack::up(journals, w.connections)?),
            },
        };
        let warm: Vec<Op> = ops.iter().cycle().take(w.warmup).cloned().collect();
        if rig.run_ops(&warm).iter().any(|s| !s.ok) {
            return Err(io::Error::other("a warm-up op failed"));
        }
        Ok(rig)
    }

    /// Tears the stack down (drains the daemon, joins its threads).
    pub fn down(self) -> io::Result<()> {
        self.stack.map_or(Ok(()), Stack::down)
    }

    /// Runs `ops` the workload's way — direct calls, one job at a time,
    /// or per-connection batches on parallel threads — and returns one
    /// sample per op, in order.
    pub fn run_ops(&mut self, ops: &[Op]) -> Vec<Sample> {
        match self.w.path {
            Path::Lib => {
                let lib = self.lib.as_ref().expect("lib rig");
                ops.iter().map(|op| lib_op(lib, op)).collect()
            }
            Path::Wire => {
                let clients = &mut self.stack.as_mut().expect("wire stack").clients;
                let batch = self.w.batch;
                if batch == 1 {
                    return ops.iter().map(|op| wire_op(&mut clients[0], op)).collect();
                }
                // Batches are dealt round-robin to the connections; each
                // connection works through its share back to back on its
                // own thread, never waiting for the other, so the daemon
                // stays loaded the way independent producers load it.
                let mut shares: Vec<Vec<(usize, &[Op])>> = vec![Vec::new(); clients.len()];
                for (i, chunk) in ops.chunks(batch).enumerate() {
                    shares[i % clients.len()].push((i, chunk));
                }
                let mut batches: Vec<(usize, Vec<Sample>)> = std::thread::scope(|scope| {
                    let handles: Vec<_> = shares
                        .into_iter()
                        .zip(clients.iter_mut())
                        .map(|(share, client)| {
                            scope.spawn(move || {
                                share
                                    .into_iter()
                                    .map(|(i, chunk)| (i, wire_batch(client, chunk)))
                                    .collect::<Vec<_>>()
                            })
                        })
                        .collect();
                    handles
                        .into_iter()
                        .flat_map(|h| h.join().expect("client thread panicked"))
                        .collect()
                });
                batches.sort_by_key(|&(i, _)| i);
                batches.into_iter().flat_map(|(_, s)| s).collect()
            }
        }
    }
}

/// One direct run of `op` on the bare runtime, the runtime built outside
/// the span: `Runtime::run()` for a pattern-payload exchange (the lib
/// workloads), `run_with_payloads` with the spec's seeded payloads
/// otherwise, `CollectiveRuntime` for a collective. Deliveries, where
/// the call returns them, must hash to the expected checksum.
pub fn lib_op(lib: &LibRig, op: &Op) -> Sample {
    let spec = &op.spec;
    let (m, payload) = (spec.block_bytes, spec.payload);
    let exec = lib.exec(spec);
    let start = Instant::now();
    let outcome = match &exec {
        Ok(Exec::Alltoall(rt)) if payload == PayloadSpec::Pattern => {
            rt.run().map(|report| (report, None)).ok()
        }
        Ok(Exec::Alltoall(rt)) => rt
            .run_with_payloads(|s, d| payload.payload(s, d, m))
            .map(|(report, got)| (report, Some(got)))
            .ok(),
        Ok(Exec::Collective(rt)) => rt
            .run_with_payloads(|id| payload.key_payload(id, m))
            .map(|(report, got)| (report, Some(got)))
            .ok(),
        Err(_) => None,
    };
    let end = Instant::now();
    let ok = outcome.as_ref().is_some_and(|(report, got)| {
        report.verified
            && got
                .as_ref()
                .is_none_or(|got| checksum::to_hex(checksum::delivery_checksum(got)) == op.expected)
    });
    Sample {
        start,
        accepted: None,
        end,
        ok,
        report: outcome.map(|(report, _)| report),
        job_id: None,
    }
}

fn failed_sample(start: Instant, accepted: Option<Instant>) -> Sample {
    Sample {
        start,
        accepted,
        end: Instant::now(),
        ok: false,
        report: None,
        job_id: None,
    }
}

fn collect_done(
    client: &mut Client,
    op: &Op,
    job_id: u64,
    start: Instant,
    accepted: Instant,
) -> Sample {
    let Ok(done) = client.wait_done(job_id) else {
        return failed_sample(start, Some(accepted));
    };
    Sample {
        start,
        accepted: Some(accepted),
        end: Instant::now(),
        ok: done.ok && done.verified && done.checksum.as_deref() == Some(op.expected.as_str()),
        report: None,
        job_id: Some(job_id),
    }
}

/// One job over the wire: submit, read `accepted`, read `done`.
pub fn wire_op(client: &mut Client, op: &Op) -> Sample {
    let start = Instant::now();
    match client.submit(&op.spec) {
        Ok(job_id) => collect_done(client, op, job_id, start, Instant::now()),
        Err(_) => failed_sample(start, None),
    }
}

/// One pipelined batch on one connection: every submit line is written
/// before any reply is read, then every `done` is collected in
/// submission order (jobs of one tenant finish FIFO, so the order of
/// collection does not inflate a job's latency).
fn wire_batch(client: &mut Client, ops: &[Op]) -> Vec<Sample> {
    let specs: Vec<JobSpec> = ops.iter().map(|op| op.spec.clone()).collect();
    let start = Instant::now();
    let Ok(replies) = client.submit_batch(&specs) else {
        return ops.iter().map(|_| failed_sample(start, None)).collect();
    };
    let accepted = Instant::now();
    ops.iter()
        .zip(replies)
        .map(|(op, reply)| match reply {
            Ok(job_id) => collect_done(client, op, job_id, start, accepted),
            Err(_) => failed_sample(start, Some(accepted)),
        })
        .collect()
}

/// `VmHWM` of this process, MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Everything one untraced run measured.
#[derive(Debug)]
pub struct Measured {
    /// `(name, unit, value)` for every end-to-end metric.
    pub metrics: Vec<(&'static str, &'static str, f64)>,
    /// Informational lines (`name`, unit, value) outside the contract:
    /// wire admission latency, the supported tail percentile, and on
    /// `lib_faulty` the per-drop recovery cost.
    pub info: Vec<(String, &'static str, f64)>,
    /// Ops in the timed window.
    pub attempted: usize,
    /// Ops that failed the correctness gate.
    pub failed: usize,
    /// Length of the timed window, seconds.
    pub window_s: f64,
}

/// Runs one workload untraced: [`SETUPS`] set-ups, then a closed loop
/// of whole groups until `seconds` have passed.
pub fn measure(
    w: &'static Workload,
    ops: &[Op],
    seconds: u64,
    journals: &JournalRoot,
) -> io::Result<Measured> {
    let mut setups = Vec::with_capacity(SETUPS);
    let mut rig = None;
    for _ in 0..SETUPS {
        if let Some(previous) = rig.take() {
            Rig::down(previous)?;
        }
        let t = Instant::now();
        rig = Some(Rig::up(w, ops, journals)?);
        setups.push(t.elapsed().as_secs_f64());
    }
    let mut rig = rig.expect("at least one set-up");

    let budget = Duration::from_secs(seconds);
    let mut samples: Vec<Sample> = Vec::new();
    let mut payload_bytes = 0u64;
    let mut cursor = ops.iter().cycle();
    let window = Instant::now();
    while window.elapsed() < budget {
        let slab: Vec<Op> = cursor.by_ref().take(w.slab).cloned().collect();
        for (op, mut sample) in slab.iter().zip(rig.run_ops(&slab)) {
            if sample.ok {
                payload_bytes += op.payload_bytes;
            }
            // The report is the trace's business; keep the window lean.
            sample.report = None;
            samples.push(sample);
        }
    }
    let window_s = window.elapsed().as_secs_f64();
    rig.down()?;

    let attempted = samples.len();
    let good: Vec<&Sample> = samples.iter().filter(|s| s.ok).collect();
    let failed = attempted - good.len();
    // A failed op has no latency: it is missing from every percentile
    // and shows as `failed` instead.
    let done = sorted(good.iter().map(|s| s.done_ms()).collect());
    if done.is_empty() {
        return Err(io::Error::other("no op passed the correctness gate"));
    }
    let values = [
        percentile(&done, 50.0),
        percentile(&done, 90.0),
        good.len() as f64 / window_s,
        payload_bytes as f64 / 1e6 / window_s,
        peak_rss_mb(),
        median(&setups),
    ];
    let metrics = END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| (name, unit, value))
        .collect();

    // Beyond the contract's p50/p90: the highest percentile the sample
    // supports (ten samples beyond it), and wire admission latency.
    let mut info = Vec::new();
    let tail = supported_tail(done.len());
    if tail > 90.0 {
        info.push((format!("done_ms_p{tail}"), "ms", percentile(&done, tail)));
    }
    let accepted = sorted(good.iter().filter_map(|s| s.accepted_ms()).collect());
    if !accepted.is_empty() {
        info.push(("accepted_ms_p50".into(), "ms", percentile(&accepted, 50.0)));
        if tail > 50.0 {
            info.push((
                format!("accepted_ms_p{tail}"),
                "ms",
                percentile(&accepted, tail),
            ));
        }
    }
    if ops.iter().any(|op| op.spec.fault.is_some()) {
        // (mean faulty - mean clean exchange) / drops recovered.
        let class = |faulty: bool| -> Vec<f64> {
            samples
                .iter()
                .zip(ops.iter().cycle())
                .filter(|(s, op)| s.ok && op.spec.fault.is_some() == faulty)
                .map(|(s, _)| s.done_ms())
                .collect()
        };
        let per_drop =
            (mean(&class(true)) - mean(&class(false))) / crate::workload::FAULTY_DROPS as f64;
        info.push(("recovery_ms_per_drop".into(), "ms", per_drop));
    }
    Ok(Measured {
        metrics,
        info,
        attempted,
        failed,
        window_s,
    })
}
