#![warn(missing_docs)]

//! Implementation of the `torus-xchg` command-line driver.
//!
//! Kept in a library so argument parsing and command execution are unit
//! testable; `main.rs` is a thin shim.

use std::fmt::Write as _;

use alltoall_baselines::{
    DirectExchange, ExchangeAlgorithm, MeshExchange, RingExchange, RowColumnExchange,
};
use alltoall_core::{Exchange, StaticSchedule};
use cost_model::CommParams;
use torus_serviced::json::Json;
use torus_serviced::proto::runtime_report_json;
use torus_topology::TorusShape;

/// A parsed invocation.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// `run --shape RxC [--algo NAME] [...params]`
    Run {
        /// Torus shape.
        shape: Vec<u32>,
        /// Algorithm name.
        algo: String,
        /// Machine parameters.
        params: CommParams,
    },
    /// `run-real --shape RxC [...params]` — byte-moving runtime execution.
    RunReal {
        /// Torus shape.
        shape: Vec<u32>,
        /// Machine parameters (block size doubles as payload size).
        params: CommParams,
        /// Worker threads; `None` = auto (`TORUS_THREADS` or core count).
        threads: Option<usize>,
        /// Emit the full report as JSON instead of a summary.
        json: bool,
        /// Fault-injection spec (see [`torus_runtime::FaultPlan::parse`]),
        /// e.g. `drop=0.01,seed=42` or `kill=2:5`.
        faults: Option<String>,
        /// Retry budget override for the recovery path.
        retries: Option<u32>,
        /// Receive-deadline override (milliseconds) for the recovery path.
        deadline_ms: Option<u64>,
        /// Unrecoverable-failure policy: abort (default) or quarantine
        /// failed nodes and complete a repaired schedule for survivors.
        on_failure: torus_runtime::OnFailure,
    },
    /// `run-collective --op NAME --shape RxC [...]` — byte-real
    /// collective execution on the runtime (vs `collective`, which only
    /// counts analytic cost).
    RunCollective {
        /// The resolved collective operation.
        op: torus_runtime::CollectiveOp,
        /// Torus shape.
        shape: Vec<u32>,
        /// Machine parameters (block size doubles as payload size).
        params: CommParams,
        /// Worker threads; `None` = auto.
        threads: Option<usize>,
        /// Emit the full report as JSON instead of a summary.
        json: bool,
        /// Fault-injection spec, as for `run-real`.
        faults: Option<String>,
        /// Retry budget override for the recovery path.
        retries: Option<u32>,
        /// Receive-deadline override (milliseconds) for the recovery path.
        deadline_ms: Option<u64>,
    },
    /// `compare --shape RxC [...params]` — all algorithms side by side.
    Compare {
        /// Torus shape.
        shape: Vec<u32>,
        /// Machine parameters.
        params: CommParams,
    },
    /// `collective --op NAME --shape RxC [...params]`
    Collective {
        /// The resolved operation (`alltoall` or one of the collectives,
        /// rooted at node 0 and summing `u64` lanes where that applies).
        op: torus_runtime::JobOp,
        /// Torus shape.
        shape: Vec<u32>,
        /// Machine parameters.
        params: CommParams,
    },
    /// `serve [--addr HOST:PORT] [--concurrency K] [--queue-depth N]
    /// [--reactor-threads R] [--port-file PATH]
    /// [--journal-dir DIR | --no-journal] [--idle-timeout-secs S]
    /// [--default-deadline-ms MS] [--max-deadline-ms MS]` — run the
    /// torus-serviced daemon until a `drain` request or SIGTERM, then
    /// print the final stats.
    Serve {
        /// Bind address (port 0 picks a free port).
        addr: String,
        /// Engine driver threads.
        concurrency: usize,
        /// Global admission queue depth.
        queue_depth: usize,
        /// Connection-plane reactor threads: every client socket is
        /// multiplexed onto this fixed pool, so thread count does not
        /// grow with connections.
        reactor_threads: usize,
        /// When set, the actually-bound `host:port` is written here
        /// (atomically: tmp + rename) once listening — lets scripts
        /// race-free discover port 0. Removed again on clean drain.
        port_file: Option<String>,
        /// Where the admission journal lives; `None` disables
        /// journaling (`--no-journal`). Defaults to `./torus-journal`.
        journal_dir: Option<String>,
        /// Reap connections quiet for this long that are owed nothing;
        /// 0 disables idle reaping (the default).
        idle_timeout_secs: u64,
        /// Deadline applied to jobs whose spec names none; `None`
        /// leaves such jobs unbounded (unless `--max-deadline-ms`).
        default_deadline_ms: Option<u64>,
        /// Hard ceiling on every job's deadline, including jobs that
        /// asked for none or for more.
        max_deadline_ms: Option<u64>,
    },
    /// `submit --spec JSON [--addr HOST:PORT] [--tenant NAME]` — send
    /// one job to a running daemon, wait for its `done` event, and check
    /// the daemon's delivery checksum against the one the spec implies.
    Submit {
        /// Daemon address.
        addr: String,
        /// Tenant to authenticate as.
        tenant: String,
        /// The job spec, inline JSON.
        spec: String,
        /// Emit a one-line JSON summary instead of a text line.
        json: bool,
    },
    /// `cancel --job-id N [--addr HOST:PORT] [--tenant NAME]` — cancel
    /// one job on a running daemon (only the owning tenant may).
    Cancel {
        /// Daemon address.
        addr: String,
        /// Tenant to authenticate as.
        tenant: String,
        /// The job id to cancel.
        job_id: u64,
    },
    /// `stats [--addr HOST:PORT]` — fetch a running daemon's service
    /// and per-tenant statistics (always JSON: it is the wire form).
    DaemonStats {
        /// Daemon address.
        addr: String,
    },
    /// `validate --spec JSON` — check and normalize a job spec locally
    /// (no daemon needed); prints the normalized spec.
    Validate {
        /// The job spec, inline JSON.
        spec: String,
    },
    /// `schema` — print the job-spec schema.
    Schema,
    /// `schedule --shape RxC [--json]` — static schedule export.
    Schedule {
        /// Torus shape.
        shape: Vec<u32>,
        /// Emit full JSON instead of a summary.
        json: bool,
    },
    /// `help`
    Help,
}

/// Parses a shape string like `"8x12"` or `"8x8x4"`.
pub(crate) fn parse_shape(s: &str) -> Result<Vec<u32>, String> {
    let dims: Result<Vec<u32>, _> = s.split(['x', 'X']).map(|p| p.trim().parse()).collect();
    match dims {
        Ok(d) if !d.is_empty() => Ok(d),
        _ => Err(format!("bad shape '{s}': expected e.g. 8x12 or 8x8x4")),
    }
}

/// Resolves an `--op` name for `collective` and `run-collective`; an
/// unknown name is refused with the names `CollectiveOp` knows.
fn parse_collective_op(
    name: &str,
    root: u32,
    reduce: torus_runtime::ReduceOp,
    dtype: torus_runtime::Dtype,
) -> Result<torus_runtime::CollectiveOp, String> {
    torus_runtime::CollectiveOp::from_parts(name, root, reduce, dtype).ok_or_else(|| {
        format!(
            "--op: unknown collective '{name}' ({})",
            torus_runtime::CollectiveOp::KINDS.join("|")
        )
    })
}

/// Parses command-line arguments (past argv\[0\]).
pub fn parse_args(args: &[String]) -> Result<Command, String> {
    if args.is_empty() {
        return Ok(Command::Help);
    }
    let cmd = args[0].as_str();
    let mut shape: Option<Vec<u32>> = None;
    let mut algo = "proposed".to_string();
    let mut op = String::new();
    let mut json = false;
    let mut threads: Option<usize> = None;
    let mut params = CommParams::cray_t3d_like();
    let mut faults: Option<String> = None;
    let mut retries: Option<u32> = None;
    let mut deadline_ms: Option<u64> = None;
    let mut root: Option<u32> = None;
    let mut reduce: Option<String> = None;
    let mut dtype: Option<String> = None;
    let mut on_failure = torus_runtime::OnFailure::default();
    let mut concurrency: usize = 4;
    let mut addr = "127.0.0.1:7077".to_string();
    let mut tenant = "default".to_string();
    let mut spec: Option<String> = None;
    let mut queue_depth: usize = 64;
    let mut reactor_threads: usize = 4;
    let mut port_file: Option<String> = None;
    let mut journal_dir = "./torus-journal".to_string();
    let mut no_journal = false;
    let mut idle_timeout_secs: u64 = 0;
    let mut default_deadline_ms: Option<u64> = None;
    let mut max_deadline_ms: Option<u64> = None;
    let mut job_id: Option<u64> = None;

    let mut i = 1;
    while i < args.len() {
        let key = args[i].as_str();
        let val = |i: &mut usize| -> Result<String, String> {
            *i += 1;
            args.get(*i)
                .cloned()
                .ok_or_else(|| format!("missing value for {key}"))
        };
        match key {
            "--shape" => shape = Some(parse_shape(&val(&mut i)?)?),
            "--algo" => algo = val(&mut i)?,
            "--op" => op = val(&mut i)?,
            "--json" => json = true,
            "--threads" => {
                threads = Some(
                    val(&mut i)?
                        .parse()
                        .map_err(|e| format!("--threads: {e}"))?,
                )
            }
            "--ts" => params.t_s = val(&mut i)?.parse().map_err(|e| format!("--ts: {e}"))?,
            "--tc" => params.t_c = val(&mut i)?.parse().map_err(|e| format!("--tc: {e}"))?,
            "--tl" => params.t_l = val(&mut i)?.parse().map_err(|e| format!("--tl: {e}"))?,
            "--rho" => params.rho = val(&mut i)?.parse().map_err(|e| format!("--rho: {e}"))?,
            "-m" | "--block-bytes" => {
                params.block_bytes = val(&mut i)?.parse().map_err(|e| format!("-m: {e}"))?
            }
            "--root" => root = Some(val(&mut i)?.parse().map_err(|e| format!("--root: {e}"))?),
            "--reduce" => reduce = Some(val(&mut i)?),
            "--dtype" => dtype = Some(val(&mut i)?),
            "--faults" => faults = Some(val(&mut i)?),
            "--retries" => {
                retries = Some(
                    val(&mut i)?
                        .parse()
                        .map_err(|e| format!("--retries: {e}"))?,
                )
            }
            "--deadline-ms" => {
                deadline_ms = Some(
                    val(&mut i)?
                        .parse()
                        .map_err(|e| format!("--deadline-ms: {e}"))?,
                )
            }
            "--concurrency" => {
                concurrency = val(&mut i)?
                    .parse()
                    .map_err(|e| format!("--concurrency: {e}"))?
            }
            "--addr" => addr = val(&mut i)?,
            "--tenant" => tenant = val(&mut i)?,
            "--spec" => spec = Some(val(&mut i)?),
            "--queue-depth" => {
                queue_depth = val(&mut i)?
                    .parse()
                    .map_err(|e| format!("--queue-depth: {e}"))?
            }
            "--reactor-threads" => {
                reactor_threads = val(&mut i)?
                    .parse()
                    .map_err(|e| format!("--reactor-threads: {e}"))?
            }
            "--port-file" => port_file = Some(val(&mut i)?),
            "--journal-dir" => journal_dir = val(&mut i)?,
            "--no-journal" => no_journal = true,
            "--idle-timeout-secs" => {
                idle_timeout_secs = val(&mut i)?
                    .parse()
                    .map_err(|e| format!("--idle-timeout-secs: {e}"))?
            }
            "--default-deadline-ms" => {
                let ms: u64 = val(&mut i)?
                    .parse()
                    .map_err(|e| format!("--default-deadline-ms: {e}"))?;
                if ms == 0 {
                    return Err("--default-deadline-ms must be positive".into());
                }
                default_deadline_ms = Some(ms);
            }
            "--max-deadline-ms" => {
                let ms: u64 = val(&mut i)?
                    .parse()
                    .map_err(|e| format!("--max-deadline-ms: {e}"))?;
                if ms == 0 {
                    return Err("--max-deadline-ms must be positive".into());
                }
                max_deadline_ms = Some(ms);
            }
            "--job-id" => {
                job_id = Some(val(&mut i)?.parse().map_err(|e| format!("--job-id: {e}"))?)
            }
            "--on-failure" => {
                on_failure = torus_runtime::OnFailure::parse(&val(&mut i)?)
                    .map_err(|e| format!("--on-failure: {e}"))?
            }
            other => return Err(format!("unknown flag '{other}' (try 'torus-xchg help')")),
        }
        i += 1;
    }

    // Only the byte-moving runtime has workers; the simulator is serial.
    const THREADED: [&str; 2] = ["run-real", "run-collective"];
    if threads.is_some() && !THREADED.contains(&cmd) {
        return Err(format!(
            "--threads applies only to {} (not '{cmd}')",
            THREADED.join(", ")
        ));
    }
    let need_shape = |s: Option<Vec<u32>>| s.ok_or_else(|| "--shape is required".to_string());
    match cmd {
        "run" => Ok(Command::Run {
            shape: need_shape(shape)?,
            algo,
            params,
        }),
        "run-real" => Ok(Command::RunReal {
            shape: need_shape(shape)?,
            params,
            threads,
            json,
            faults,
            retries,
            deadline_ms,
            on_failure,
        }),
        "run-collective" => {
            if op.is_empty() {
                return Err("--op is required for 'run-collective'".into());
            }
            // Mirror the daemon spec's strictness: flags an op cannot
            // use are refused, not silently dropped.
            let rooted = matches!(op.as_str(), "broadcast" | "scatter" | "gather" | "reduce");
            let combining = matches!(op.as_str(), "reduce" | "allreduce");
            if root.is_some() && !rooted {
                return Err(format!("--root: op '{op}' takes no root"));
            }
            if !combining {
                if reduce.is_some() {
                    return Err(format!("--reduce: op '{op}' does not reduce"));
                }
                if dtype.is_some() {
                    return Err(format!("--dtype: op '{op}' does not reduce"));
                }
            }
            let reduce_op = match &reduce {
                Some(s) => torus_runtime::ReduceOp::parse(s)
                    .ok_or_else(|| format!("--reduce: unknown op '{s}' (sum|min|max)"))?,
                None => torus_runtime::ReduceOp::Sum,
            };
            let lane = match &dtype {
                Some(s) => torus_runtime::Dtype::parse(s)
                    .ok_or_else(|| format!("--dtype: unknown dtype '{s}' (u64|f32)"))?,
                None => torus_runtime::Dtype::U64,
            };
            Ok(Command::RunCollective {
                op: parse_collective_op(&op, root.unwrap_or(0), reduce_op, lane)?,
                shape: need_shape(shape)?,
                params,
                threads,
                json,
                faults,
                retries,
                deadline_ms,
            })
        }
        "compare" => Ok(Command::Compare {
            shape: need_shape(shape)?,
            params,
        }),
        "collective" => {
            if op.is_empty() {
                return Err("--op is required for 'collective'".into());
            }
            let op = if op == torus_runtime::JobOp::Alltoall.name() {
                torus_runtime::JobOp::Alltoall
            } else {
                torus_runtime::JobOp::Collective(parse_collective_op(
                    &op,
                    0,
                    torus_runtime::ReduceOp::Sum,
                    torus_runtime::Dtype::U64,
                )?)
            };
            Ok(Command::Collective {
                op,
                shape: need_shape(shape)?,
                params,
            })
        }
        "serve" => Ok(Command::Serve {
            addr,
            concurrency: concurrency.max(1),
            queue_depth: queue_depth.max(1),
            reactor_threads: reactor_threads.max(1),
            port_file,
            journal_dir: if no_journal { None } else { Some(journal_dir) },
            idle_timeout_secs,
            default_deadline_ms,
            max_deadline_ms,
        }),
        "submit" => Ok(Command::Submit {
            addr,
            tenant,
            spec: spec.ok_or_else(|| "--spec is required for 'submit'".to_string())?,
            json,
        }),
        "cancel" => Ok(Command::Cancel {
            addr,
            tenant,
            job_id: job_id.ok_or_else(|| "--job-id is required for 'cancel'".to_string())?,
        }),
        "stats" => Ok(Command::DaemonStats { addr }),
        "validate" => Ok(Command::Validate {
            spec: spec.ok_or_else(|| "--spec is required for 'validate'".to_string())?,
        }),
        "schema" => Ok(Command::Schema),
        "schedule" => Ok(Command::Schedule {
            shape: need_shape(shape)?,
            json,
        }),
        "help" | "--help" | "-h" => Ok(Command::Help),
        other => Err(format!("unknown command '{other}' (try 'torus-xchg help')")),
    }
}

/// Usage text.
pub const USAGE: &str = "\
torus-xchg — all-to-all personalized exchange on torus networks (Suh & Shin, ICPP 1998)

USAGE:
  torus-xchg run        --shape 8x12 [--algo proposed|direct|ring|rowcol|mesh] [params]
  torus-xchg run-real   --shape 8x8 [--json] [--faults SPEC] [--retries N] [--deadline-ms MS]
                        [--on-failure abort|degrade] [--threads N] [params]
                        (moves real bytes, verifies bit-exactly; optional fault injection;
                         'degrade' quarantines failed nodes and completes for survivors)
  torus-xchg compare    --shape 8x8 [params]
  torus-xchg collective --op broadcast|scatter|gather|allgather|reduce|allreduce|alltoall --shape 8x8
  torus-xchg run-collective --op broadcast|scatter|gather|allgather|reduce|allreduce --shape 8x8
                        [--root N] [--reduce sum|min|max] [--dtype u64|f32] [--json]
                        [--faults SPEC] [--retries N] [--deadline-ms MS] [--threads N] [params]
                        (byte-real collective on the runtime with combining receives;
                         reduce/allreduce fold u64 or f32 lanes bit-deterministically;
                         verified against a serial reference replay)
  torus-xchg schedule   --shape 8x8 [--json]
  torus-xchg serve      [--addr 127.0.0.1:7077] [--concurrency K] [--queue-depth N]
                        [--reactor-threads R] [--port-file PATH]
                        [--journal-dir DIR | --no-journal]
                        [--idle-timeout-secs S] [--default-deadline-ms MS]
                        [--max-deadline-ms MS]
                        (torus-serviced daemon: newline-delimited JSON over TCP with
                         multi-tenant admission; all client sockets share a fixed
                         pool of R poll reactor threads; drains cleanly on SIGTERM
                         or 'drain'. Admissions are journaled to --journal-dir,
                         default ./torus-journal; on restart, accepted-but-
                         unfinished jobs re-run and pre-crash job ids answer
                         'status'. --idle-timeout-secs reaps quiet connections
                         owed nothing; jobs past their wall-clock deadline —
                         per-spec job.deadline_ms, --default-deadline-ms when
                         unset, always clamped by --max-deadline-ms, counted from
                         dispatch — abort at their next checkpoint as
                         'deadline_exceeded')
  torus-xchg submit     --spec '{\"shape\":[4,4],\"seed\":7}' [--addr HOST:PORT] [--tenant NAME] [--json]
                        (verifies the daemon's checksum against the spec's own;
                         exits non-zero on a mismatch)
  torus-xchg cancel     --job-id N [--addr HOST:PORT] [--tenant NAME]
                        (queued jobs finish as 'cancelled'; running jobs stop at the
                         next step boundary; only the owning tenant may cancel)
  torus-xchg stats      [--addr HOST:PORT]      (daemon service + per-tenant stats, JSON)
  torus-xchg validate   --spec JSON             (local spec check; prints normalized form)
  torus-xchg schema                             (job-spec schema, JSON)
  torus-xchg help

PARAMS (defaults are Cray-T3D-like):
  --ts µs   startup per message        --tc µs/B  per-byte transmission
  --tl µs   per-hop propagation        --rho µs/B rearrangement
  -m bytes  block size
  --threads N  runtime workers (run-real, run-collective;
               default: TORUS_THREADS, else the core count capped at 8)

FAULT SPEC (run-real): comma-separated key=value pairs —
  seed=N  drop=R  corrupt=R  truncate=R  duplicate=R  delay=R  delay-us=N
  kill=STEP:NODE  stall=STEP:NODE:MICROS     (rates R in [0, 1])
  e.g. --faults drop=0.01,corrupt=0.005,seed=42
  e.g. --faults kill=3:5 --on-failure degrade   (survivors still complete)
";

/// Writes `submit`'s result line for `done` into `out`, checking the
/// daemon's checksum against the one `spec` implies
/// ([`torus_serviced::checksum::expected_checksum`]). A failed job, or a
/// mismatch, is an error after the line is written, so the caller still
/// shows it; the mismatch error names both digests. A run without a
/// checksum (degraded or failed) has no verdict, and a spec the client
/// cannot parse implies no checksum, so it never verifies.
fn report_done(
    spec: &Json,
    done: &torus_serviced::DoneEvent,
    json: bool,
    out: &mut String,
) -> Result<(), String> {
    use torus_serviced::checksum::{expected_checksum, to_hex};
    let expected = torus_serviced::JobSpec::from_json(spec)
        .ok()
        .map(|spec| to_hex(expected_checksum(&spec)));
    let checksum_ok = done
        .checksum
        .as_ref()
        .map(|got| expected.as_ref() == Some(got));
    let _ = writeln!(out, "{}", render_done(done, checksum_ok, json));
    if !done.ok {
        let failed = || format!("job {} failed", done.job_id);
        return Err(done.error.clone().unwrap_or_else(failed));
    }
    if checksum_ok == Some(false) {
        return Err(format!(
            "job {}: checksum MISMATCH: the daemon reported {}, the spec implies {}",
            done.job_id,
            done.checksum.as_deref().unwrap_or_default(),
            expected
                .as_deref()
                .unwrap_or("none (it does not parse here)"),
        ));
    }
    Ok(())
}

/// One `submit` result line: a JSON summary with `checksum_ok`, or a text
/// line ending in the checksum verdict.
fn render_done(done: &torus_serviced::DoneEvent, checksum_ok: Option<bool>, json: bool) -> String {
    if json {
        return Json::obj([
            ("job_id", Json::u64(done.job_id)),
            ("ok", Json::Bool(done.ok)),
            ("degraded", Json::Bool(done.degraded)),
            ("cache_hit", Json::Bool(done.cache_hit)),
            ("wire_bytes", Json::u64(done.wire_bytes)),
            (
                "checksum",
                done.checksum.clone().map_or(Json::Null, Json::Str),
            ),
            ("checksum_ok", checksum_ok.map_or(Json::Null, Json::Bool)),
        ])
        .dump();
    }
    format!(
        "job {}: {}{}{}, {} wire bytes{}",
        done.job_id,
        if done.ok { "ok" } else { "FAILED" },
        if done.degraded { " (degraded)" } else { "" },
        if done.cache_hit { " (cached plan)" } else { "" },
        done.wire_bytes,
        match (&done.checksum, checksum_ok, &done.error) {
            (Some(c), Some(true), _) => format!(", checksum {c} verified"),
            (Some(c), _, _) => format!(", checksum {c} MISMATCH"),
            (None, _, Some(e)) => format!(": {e}"),
            _ => String::new(),
        },
    )
}

/// Writes a runtime run's outcome into `out`: the report as one JSON
/// document ([`runtime_report_json`]), or as the text summary. An
/// injected unrecoverable fault is a legitimate outcome of `--faults`,
/// so an aborted run shows its partial report, not a bare error; in
/// text the abort gets its own line, in JSON it is the `failure` field.
fn render_run(
    run: Result<torus_runtime::RuntimeReport, torus_runtime::RuntimeError>,
    json: bool,
    out: &mut String,
) -> Result<(), String> {
    let (report, failure) = match run {
        Ok(report) => (report, None),
        Err(torus_runtime::RuntimeError::Aborted { failure, report }) => (*report, Some(failure)),
        Err(e) => return Err(e.to_string()),
    };
    if json {
        let _ = writeln!(out, "{}", runtime_report_json(&report).dump());
        return Ok(());
    }
    let _ = writeln!(out, "{}", report.summary());
    if let Some(failure) = failure {
        let _ = writeln!(out, "run aborted: {failure}");
    }
    Ok(())
}

/// The JSON form of a static schedule, mirroring [`StaticSchedule`]:
/// canonical `dims`, then per phase its `name` and `steps`, each step's
/// `sends` as `{src, dst, dim, sign, hops}`.
fn schedule_json(sched: &StaticSchedule) -> Json {
    let step = |step: &alltoall_core::schedule::StaticStep| {
        let sends = step.sends.iter().map(|x| {
            Json::obj([
                ("src", Json::num(x.src)),
                ("dst", Json::num(x.dst)),
                ("dim", Json::num(x.dim)),
                ("sign", Json::num(x.sign)),
                ("hops", Json::num(x.hops)),
            ])
        });
        Json::obj([("sends", Json::Arr(sends.collect()))])
    };
    let phases = sched.phases.iter().map(|p| {
        Json::obj([
            ("name", Json::str(p.name.clone())),
            ("steps", Json::Arr(p.steps.iter().map(step).collect())),
        ])
    });
    Json::obj([
        (
            "dims",
            Json::Arr(sched.dims.iter().map(|&d| Json::num(d)).collect()),
        ),
        ("phases", Json::Arr(phases.collect())),
    ])
}

/// Executes a command, appending its stdout text to `out`. On an error
/// `out` keeps what the command wrote before failing (`submit`'s result
/// line when the job failed or its checksum did not verify).
pub fn execute_into(cmd: Command, out: &mut String) -> Result<(), String> {
    match cmd {
        Command::Help => out.push_str(USAGE),
        Command::Run {
            shape,
            algo,
            params,
        } => {
            let shape = TorusShape::new(&shape).map_err(|e| e.to_string())?;
            match algo.as_str() {
                "proposed" => {
                    let report = Exchange::new(&shape)
                        .map_err(|e| e.to_string())?
                        .run_counting(&params)
                        .map_err(|e| e.to_string())?;
                    let _ = writeln!(out, "{}", report.summary());
                    let _ = writeln!(
                        out,
                        "components: startup {:.1} + transmission {:.1} + rearrangement {:.1} + propagation {:.1} µs",
                        report.elapsed.startup,
                        report.elapsed.transmission,
                        report.elapsed.rearrangement,
                        report.elapsed.propagation
                    );
                    let _ = writeln!(
                        out,
                        "matches Table 1 closed form: {}",
                        report.matches_formula()
                    );
                }
                name => {
                    let algo: &dyn ExchangeAlgorithm = match name {
                        "direct" => &DirectExchange,
                        "ring" => &RingExchange,
                        "rowcol" | "row-column" => &RowColumnExchange,
                        "mesh" => &MeshExchange,
                        other => return Err(format!("unknown algorithm '{other}'")),
                    };
                    let r = algo.run(&shape, &params)?;
                    let _ = writeln!(
                        out,
                        "{} on {}: {} steps, {} blocks (critical), {} hops, {:.1} µs, verified: {}",
                        r.name,
                        shape,
                        r.counts.startup_steps,
                        r.counts.trans_blocks,
                        r.counts.prop_hops,
                        r.total_time(),
                        r.verified
                    );
                }
            }
        }
        Command::RunReal {
            shape,
            params,
            threads,
            json,
            faults,
            retries,
            deadline_ms,
            on_failure,
        } => {
            let shape = TorusShape::new(&shape).map_err(|e| e.to_string())?;
            let mut config = torus_runtime::RuntimeConfig::default()
                .with_block_bytes(params.block_bytes as usize)
                .with_params(params);
            if let Some(t) = threads {
                config = config.with_workers(t);
            }
            if let Some(spec) = &faults {
                let plan =
                    torus_runtime::FaultPlan::parse(spec).map_err(|e| format!("--faults: {e}"))?;
                config = config.with_faults(plan);
            }
            let mut retry = torus_runtime::RetryPolicy::default();
            if let Some(r) = retries {
                retry = retry.with_max_retries(r);
            }
            if let Some(ms) = deadline_ms {
                retry = retry.with_deadline(std::time::Duration::from_millis(ms));
            }
            config = config.with_retry(retry).with_on_failure(on_failure);
            let runtime = torus_runtime::Runtime::new(&shape, config).map_err(|e| e.to_string())?;
            render_run(runtime.run(), json, out)?;
        }
        Command::RunCollective {
            op,
            shape,
            params,
            threads,
            json,
            faults,
            retries,
            deadline_ms,
        } => {
            let shape = TorusShape::new(&shape).map_err(|e| e.to_string())?;
            let mut config = torus_runtime::RuntimeConfig::default()
                .with_block_bytes(params.block_bytes as usize)
                .with_params(params);
            if let Some(t) = threads {
                config = config.with_workers(t);
            }
            if let Some(spec) = &faults {
                let plan =
                    torus_runtime::FaultPlan::parse(spec).map_err(|e| format!("--faults: {e}"))?;
                config = config.with_faults(plan);
            }
            let mut retry = torus_runtime::RetryPolicy::default();
            if let Some(r) = retries {
                retry = retry.with_max_retries(r);
            }
            if let Some(ms) = deadline_ms {
                retry = retry.with_deadline(std::time::Duration::from_millis(ms));
            }
            config = config.with_retry(retry);
            let runtime = torus_runtime::CollectiveRuntime::new(&shape, op, config)
                .map_err(|e| e.to_string())?;
            render_run(runtime.run().map(|(report, _deliveries)| report), json, out)?;
        }
        Command::Compare { shape, params } => {
            let shape = TorusShape::new(&shape).map_err(|e| e.to_string())?;
            let _ = writeln!(
                out,
                "{:<16} {:>8} {:>12} {:>8} {:>12}",
                "algorithm", "steps", "crit blocks", "hops", "time (µs)"
            );
            let report = Exchange::new(&shape)
                .map_err(|e| e.to_string())?
                .run_counting(&params)
                .map_err(|e| e.to_string())?;
            let _ = writeln!(
                out,
                "{:<16} {:>8} {:>12} {:>8} {:>12.1}",
                "proposed",
                report.counts.startup_steps,
                report.counts.trans_blocks,
                report.counts.prop_hops,
                report.total_time()
            );
            for algo in [
                &DirectExchange as &dyn ExchangeAlgorithm,
                &RingExchange,
                &RowColumnExchange,
                &MeshExchange,
            ] {
                match algo.run(&shape, &params) {
                    Ok(r) => {
                        let _ = writeln!(
                            out,
                            "{:<16} {:>8} {:>12} {:>8} {:>12.1}",
                            r.name,
                            r.counts.startup_steps,
                            r.counts.trans_blocks,
                            r.counts.prop_hops,
                            r.total_time()
                        );
                    }
                    Err(e) => {
                        let _ = writeln!(out, "{:<16} (skipped: {e})", algo.name());
                    }
                }
            }
        }
        Command::Collective { op, shape, params } => {
            let shape = TorusShape::new(&shape).map_err(|e| e.to_string())?;
            let (name, counts, time, verified) = match op {
                torus_runtime::JobOp::Alltoall => {
                    let r = Exchange::new(&shape)
                        .map_err(|e| e.to_string())?
                        .run_counting(&params)
                        .map_err(|e| e.to_string())?;
                    ("alltoall", r.counts, r.total_time(), r.verified)
                }
                torus_runtime::JobOp::Collective(op) => {
                    let plan = torus_runtime::CollectivePlan::new(&shape, op)
                        .map_err(|e| e.to_string())?;
                    // One block per key; the reductions combine 8-lane vectors.
                    let blocks_per_key = if plan.is_combining() { 8 } else { 1 };
                    // `CollectivePlan::new` enforces the op's contract and
                    // `simulate` the one-port model: `Ok` is the check.
                    let r = collectives::simulate(&plan, &params, blocks_per_key)
                        .map_err(|e| e.to_string())?;
                    (r.name, r.counts, r.total_time(), true)
                }
            };
            let _ = writeln!(
                out,
                "{name} on {shape}: {} steps, {} blocks (critical), {} hops, {time:.1} µs, verified: {verified}",
                counts.startup_steps, counts.trans_blocks, counts.prop_hops,
            );
        }
        Command::Serve {
            addr,
            concurrency,
            queue_depth,
            reactor_threads,
            port_file,
            journal_dir,
            idle_timeout_secs,
            default_deadline_ms,
            max_deadline_ms,
        } => {
            let mut engine = torus_service::EngineConfig::default()
                .with_drivers(concurrency)
                .with_queue_depth(queue_depth);
            if let Some(ms) = default_deadline_ms {
                engine = engine.with_default_deadline(std::time::Duration::from_millis(ms));
            }
            if let Some(ms) = max_deadline_ms {
                engine = engine.with_max_deadline(std::time::Duration::from_millis(ms));
            }
            let daemon = torus_serviced::Daemon::bind(torus_serviced::DaemonConfig {
                addr,
                engine,
                reactor_threads,
                journal: journal_dir
                    .as_deref()
                    .map(torus_serviced::JournalConfig::new),
                idle_timeout: (idle_timeout_secs > 0)
                    .then(|| std::time::Duration::from_secs(idle_timeout_secs)),
                ..torus_serviced::DaemonConfig::default()
            })
            .map_err(|e| format!("serve: {e}"))?;
            let bound = daemon.local_addr().map_err(|e| e.to_string())?;
            // Announce readiness on stderr (stdout is for the final
            // stats) and, for scripts, in the port file. The write is
            // tmp + rename so a polling reader never sees a partial
            // address; a clean drain removes the file, so its presence
            // means a daemon is (or crashed while) running.
            eprintln!("torus-serviced listening on {bound}");
            if let Some(dir) = &journal_dir {
                eprintln!("torus-serviced journaling to {dir}");
            }
            if let Some(path) = &port_file {
                let tmp = format!("{path}.tmp");
                std::fs::write(&tmp, format!("{bound}\n"))
                    .map_err(|e| format!("--port-file {path}: {e}"))?;
                std::fs::rename(&tmp, path).map_err(|e| format!("--port-file {path}: {e}"))?;
            }
            let stats = daemon.run();
            if let Some(path) = &port_file {
                let _ = std::fs::remove_file(path);
            }
            let _ = writeln!(out, "drained: {}", stats.summary());
        }
        Command::Cancel {
            addr,
            tenant,
            job_id,
        } => {
            let mut client =
                torus_serviced::Client::connect(&addr).map_err(|e| format!("{addr}: {e}"))?;
            client.hello(&tenant).map_err(|e| e.to_string())?;
            let reply = client.cancel(job_id).map_err(|e| e.to_string())?;
            let _ = writeln!(
                out,
                "job {}: {}{}",
                reply.job_id,
                reply.outcome,
                match &reply.state {
                    Some(s) => format!(" ({s})"),
                    None => String::new(),
                },
            );
        }
        Command::Submit {
            addr,
            tenant,
            spec,
            json,
        } => {
            let spec = torus_serviced::json::parse(&spec).map_err(|e| format!("--spec: {e}"))?;
            let mut client =
                torus_serviced::Client::connect(&addr).map_err(|e| format!("{addr}: {e}"))?;
            client.hello(&tenant).map_err(|e| e.to_string())?;
            let job_id = client.submit_raw(spec.clone()).map_err(|e| e.to_string())?;
            let done = client.wait_done(job_id).map_err(|e| e.to_string())?;
            report_done(&spec, &done, json, out)?;
        }
        Command::DaemonStats { addr } => {
            let mut client =
                torus_serviced::Client::connect(&addr).map_err(|e| format!("{addr}: {e}"))?;
            let stats = client.stats().map_err(|e| e.to_string())?;
            let _ = writeln!(out, "{}", stats.dump());
        }
        Command::Validate { spec } => {
            let value = torus_serviced::json::parse(&spec).map_err(|e| format!("--spec: {e}"))?;
            let normalized = torus_serviced::JobSpec::from_json(&value)
                .map_err(|e| format!("invalid spec: {e}"))?;
            let _ = writeln!(out, "{}", normalized.to_json().dump());
        }
        Command::Schema => {
            let _ = writeln!(out, "{}", torus_serviced::JobSpec::schema().dump());
        }
        Command::Schedule { shape, json } => {
            let shape_dims = shape;
            let shape = TorusShape::new(&shape_dims).map_err(|e| e.to_string())?;
            let (_, canon) = shape.canonical_permutation();
            if !canon.all_multiple_of(4) || canon.ndims() < 2 {
                return Err(format!(
                    "static schedules require >=2 dims, multiples of 4 (got {shape})"
                ));
            }
            let sched = StaticSchedule::generate(&canon);
            sched.validate(&canon).map_err(|e| e.to_string())?;
            if json {
                let _ = writeln!(out, "{}", schedule_json(&sched).dump());
            } else {
                let _ = writeln!(
                    out,
                    "static schedule for {canon} (canonicalized from {shape}):"
                );
                let _ = writeln!(
                    out,
                    "  {} phases, {} total steps, contention-free: yes, destinations fixed per scatter phase: {}",
                    sched.phases.len(),
                    sched.total_steps(),
                    sched.destinations_fixed_within_phases()
                );
                for p in &sched.phases {
                    let _ = writeln!(
                        out,
                        "  {}: {} steps x {} sends",
                        p.name,
                        p.steps.len(),
                        p.steps.first().map(|s| s.sends.len()).unwrap_or(0)
                    );
                }
                let _ = writeln!(out, "  (use --json for the full machine-readable schedule)");
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Executes a command, returning its stdout text.
    fn execute(cmd: Command) -> Result<String, String> {
        let mut out = String::new();
        execute_into(cmd, &mut out).map(|()| out)
    }

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parse_shapes() {
        assert_eq!(parse_shape("8x12").unwrap(), vec![8, 12]);
        assert_eq!(parse_shape("4X4x4").unwrap(), vec![4, 4, 4]);
        assert!(parse_shape("abc").is_err());
        assert!(parse_shape("8x").is_err());
    }

    #[test]
    fn parse_run_command() {
        let cmd = parse_args(&argv("run --shape 8x8 --algo ring --ts 5 -m 128")).unwrap();
        match cmd {
            Command::Run {
                shape,
                algo,
                params,
            } => {
                assert_eq!(shape, vec![8, 8]);
                assert_eq!(algo, "ring");
                assert_eq!(params.t_s, 5.0);
                assert_eq!(params.block_bytes, 128);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn threads_flag_is_refused_where_nothing_runs_on_workers() {
        for cmd in ["run", "compare", "schedule"] {
            let err = parse_args(&argv(&format!("{cmd} --shape 8x8 --threads 4"))).unwrap_err();
            assert!(
                err.contains("--threads applies only to run-real, run-collective"),
                "{cmd}: {err}"
            );
        }
    }

    #[test]
    fn run_refuses_extents_above_1024_as_a_bad_shape() {
        let err = execute(parse_args(&argv("run --shape 1028x4")).unwrap()).unwrap_err();
        assert!(err.starts_with("bad shape:"), "{err}");
    }

    #[test]
    fn parse_run_real_command() {
        let cmd = parse_args(&argv("run-real --shape 4x4 -m 32")).unwrap();
        match cmd {
            Command::RunReal {
                shape,
                params,
                threads,
                json,
                faults,
                retries,
                deadline_ms,
                on_failure,
            } => {
                assert_eq!(shape, vec![4, 4]);
                assert_eq!(params.block_bytes, 32);
                assert_eq!(threads, None, "threads default to auto");
                assert!(!json);
                assert!(faults.is_none());
                assert!(retries.is_none());
                assert!(deadline_ms.is_none());
                assert_eq!(on_failure, torus_runtime::OnFailure::Abort);
            }
            other => panic!("{other:?}"),
        }
        let cmd = parse_args(&argv("run-real --shape 4x4 --threads 2 --json")).unwrap();
        match cmd {
            Command::RunReal { threads, json, .. } => {
                assert_eq!(threads, Some(2));
                assert!(json);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parse_run_real_fault_flags() {
        let cmd = parse_args(&argv(
            "run-real --shape 4x4 --faults drop=0.01,seed=7 --retries 2 --deadline-ms 50",
        ))
        .unwrap();
        match cmd {
            Command::RunReal {
                faults,
                retries,
                deadline_ms,
                ..
            } => {
                assert_eq!(faults.as_deref(), Some("drop=0.01,seed=7"));
                assert_eq!(retries, Some(2));
                assert_eq!(deadline_ms, Some(50));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn execute_run_real() {
        let out =
            execute(parse_args(&argv("run-real --shape 4x4 --threads 2 -m 16")).unwrap()).unwrap();
        assert!(out.contains("verified=true"), "{out}");
        assert!(out.contains("analytic model"), "{out}");
        assert!(out.contains("phase 1"), "{out}");
    }

    /// Parses a `--json` output: one JSON document on one line.
    fn parse_json(out: &str) -> Json {
        assert_eq!(out.lines().count(), 1, "{out}");
        torus_serviced::json::parse(out).unwrap_or_else(|e| panic!("{e}: {out}"))
    }

    #[test]
    fn execute_run_real_json() {
        let args = "run-real --shape 4x4 --threads 2 -m 16";
        let v =
            parse_json(&execute(parse_args(&argv(&format!("{args} --json"))).unwrap()).unwrap());
        assert_eq!(v.get("nodes").unwrap().as_u64(), Some(16));
        assert_eq!(v.get("verified").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("phases").unwrap().as_arr().unwrap().len(), 4);
        assert_eq!(v.get("failure"), Some(&Json::Null));
        // The schedule fixes the traffic, so a second run's text report
        // names the same wire bytes.
        let text = execute(parse_args(&argv(args)).unwrap()).unwrap();
        let wire_bytes = v.get("wire_bytes").unwrap().as_u64().unwrap();
        assert!(
            text.contains(&format!(" {wire_bytes} wire bytes")),
            "{text}"
        );
    }

    #[test]
    fn execute_run_real_json_kill_carries_the_failure() {
        let out = execute(
            parse_args(&argv(
                "run-real --shape 4x4 --threads 2 -m 16 --faults kill=0:1 --json",
            ))
            .unwrap(),
        )
        .unwrap();
        let v = parse_json(&out);
        assert_eq!(v.get("verified").unwrap().as_bool(), Some(false));
        let failure = v.get("failure").unwrap();
        assert_eq!(failure.get("node").unwrap().as_u64(), Some(1));
        let reason = failure.get("reason").unwrap();
        assert_eq!(reason.get("kind").unwrap().as_str(), Some("worker_killed"));
    }

    #[test]
    fn execute_run_real_with_recoverable_faults() {
        let out = execute(
            parse_args(&argv(
                "run-real --shape 4x4 --threads 2 -m 16 \
                 --faults drop=1.0,seed=9 --deadline-ms 20",
            ))
            .unwrap(),
        )
        .unwrap();
        assert!(out.contains("verified=true"), "{out}");
        assert!(out.contains("faults:"), "{out}");
        assert!(!out.contains("ABORTED"), "{out}");
    }

    #[test]
    fn execute_run_real_kill_prints_partial_report() {
        let out = execute(
            parse_args(&argv(
                "run-real --shape 4x4 --threads 2 -m 16 --faults kill=0:1",
            ))
            .unwrap(),
        )
        .unwrap();
        assert!(out.contains("ABORTED"), "{out}");
        assert!(out.contains("run aborted:"), "{out}");
        assert!(out.contains("verified=false"), "{out}");
    }

    #[test]
    fn parse_on_failure_policy() {
        let cmd = parse_args(&argv("run-real --shape 4x4 --on-failure degrade")).unwrap();
        match cmd {
            Command::RunReal { on_failure, .. } => {
                assert_eq!(on_failure, torus_runtime::OnFailure::Degrade);
            }
            other => panic!("{other:?}"),
        }
        let err = parse_args(&argv("run-real --shape 4x4 --on-failure explode")).unwrap_err();
        assert!(err.contains("--on-failure"), "{err}");
    }

    #[test]
    fn execute_run_real_kill_degrades_and_completes() {
        let out = execute(
            parse_args(&argv(
                "run-real --shape 4x4 --threads 2 -m 16 --faults kill=1:3 \
                 --deadline-ms 20 --on-failure degrade",
            ))
            .unwrap(),
        )
        .unwrap();
        assert!(out.contains("DEGRADED"), "{out}");
        assert!(out.contains("survivors verified"), "{out}");
        assert!(!out.contains("ABORTED"), "{out}");
        assert!(!out.contains("run aborted"), "{out}");
    }

    #[test]
    fn execute_run_real_rejects_bad_fault_spec() {
        let err = execute(parse_args(&argv("run-real --shape 4x4 --faults bogus=1")).unwrap())
            .unwrap_err();
        assert!(err.contains("--faults"), "{err}");
    }

    #[test]
    fn parse_serviced_commands() {
        match parse_args(&argv(
            "serve --addr 127.0.0.1:0 --concurrency 3 --queue-depth 9",
        ))
        .unwrap()
        {
            Command::Serve {
                addr,
                concurrency,
                queue_depth,
                reactor_threads,
                port_file,
                journal_dir,
                idle_timeout_secs,
                default_deadline_ms,
                max_deadline_ms,
            } => {
                assert_eq!(addr, "127.0.0.1:0");
                assert_eq!(concurrency, 3);
                assert_eq!(queue_depth, 9);
                assert_eq!(reactor_threads, 4, "reactor pool defaults to 4");
                assert!(port_file.is_none());
                assert_eq!(
                    journal_dir.as_deref(),
                    Some("./torus-journal"),
                    "journaling defaults on"
                );
                assert_eq!(idle_timeout_secs, 0, "idle reaping defaults off");
                assert_eq!(default_deadline_ms, None, "no default deadline");
                assert_eq!(max_deadline_ms, None, "no deadline ceiling");
            }
            other => panic!("{other:?}"),
        }
        match parse_args(&argv(
            "serve --idle-timeout-secs 30 --default-deadline-ms 5000 --max-deadline-ms 60000",
        ))
        .unwrap()
        {
            Command::Serve {
                idle_timeout_secs,
                default_deadline_ms,
                max_deadline_ms,
                ..
            } => {
                assert_eq!(idle_timeout_secs, 30);
                assert_eq!(default_deadline_ms, Some(5000));
                assert_eq!(max_deadline_ms, Some(60000));
            }
            other => panic!("{other:?}"),
        }
        assert!(
            parse_args(&argv("serve --max-deadline-ms 0")).is_err(),
            "a zero deadline ceiling reaps every job at dispatch — refuse it"
        );
        match parse_args(&argv("cancel --job-id 7 --addr 127.0.0.1:1 --tenant acme")).unwrap() {
            Command::Cancel {
                addr,
                tenant,
                job_id,
            } => {
                assert_eq!(addr, "127.0.0.1:1");
                assert_eq!(tenant, "acme");
                assert_eq!(job_id, 7);
            }
            other => panic!("{other:?}"),
        }
        assert!(
            parse_args(&argv("cancel")).is_err(),
            "cancel without --job-id must be refused"
        );
        match parse_args(&argv("serve --journal-dir /tmp/j --reactor-threads 2")).unwrap() {
            Command::Serve {
                journal_dir,
                reactor_threads,
                ..
            } => {
                assert_eq!(journal_dir.as_deref(), Some("/tmp/j"));
                assert_eq!(reactor_threads, 2);
            }
            other => panic!("{other:?}"),
        }
        match parse_args(&argv("serve --reactor-threads 0")).unwrap() {
            Command::Serve {
                reactor_threads, ..
            } => assert_eq!(reactor_threads, 1, "clamped to at least one reactor"),
            other => panic!("{other:?}"),
        }
        match parse_args(&argv("serve --no-journal")).unwrap() {
            Command::Serve { journal_dir, .. } => assert!(journal_dir.is_none()),
            other => panic!("{other:?}"),
        }
        match parse_args(&argv(
            "submit --spec {} --addr 127.0.0.1:9 --tenant acme --json",
        ))
        .unwrap()
        {
            Command::Submit {
                addr,
                tenant,
                spec,
                json,
            } => {
                assert_eq!(addr, "127.0.0.1:9");
                assert_eq!(tenant, "acme");
                assert_eq!(spec, "{}");
                assert!(json);
            }
            other => panic!("{other:?}"),
        }
        assert!(parse_args(&argv("submit")).is_err(), "--spec required");
        assert!(parse_args(&argv("validate")).is_err(), "--spec required");
        assert!(matches!(
            parse_args(&argv("stats")).unwrap(),
            Command::DaemonStats { .. }
        ));
        assert_eq!(parse_args(&argv("schema")).unwrap(), Command::Schema);
    }

    /// `submit` compares the daemon's checksum with the spec's: the
    /// matching digest verifies, a corrupted one is a mismatch in both
    /// output modes — the result line is still written and the error
    /// names both digests — and a degraded run (no checksum) has no
    /// verdict.
    #[test]
    fn submit_reports_a_corrupted_checksum_as_a_mismatch() {
        use torus_serviced::checksum::{expected_checksum, to_hex};
        let raw = r#"{"shape":[4,4],"block_bytes":32,"seed":3}"#;
        let spec = torus_serviced::json::parse(raw).unwrap();
        let good = to_hex(expected_checksum(
            &torus_serviced::JobSpec::from_json(&spec).unwrap(),
        ));
        let mut done = torus_serviced::DoneEvent {
            job_id: 7,
            ok: true,
            degraded: false,
            verified: true,
            cache_hit: false,
            wire_bytes: 1024,
            checksum: Some(good.clone()),
            error: None,
            state: "completed".to_string(),
        };
        let report = |done: &torus_serviced::DoneEvent, json: bool| {
            let mut out = String::new();
            let result = report_done(&spec, done, json, &mut out);
            (out, result)
        };
        let (out, result) = report(&done, false);
        assert_eq!(result, Ok(()));
        assert!(
            out.ends_with(&format!("checksum {good} verified\n")),
            "{out}"
        );
        let (out, result) = report(&done, true);
        assert_eq!(result, Ok(()));
        assert!(out.contains(r#""checksum_ok":true"#), "{out}");

        let mut corrupted = good.clone().into_bytes();
        corrupted[15] = if corrupted[15] == b'0' { b'1' } else { b'0' };
        let corrupted = String::from_utf8(corrupted).unwrap();
        done.checksum = Some(corrupted.clone());
        for json in [false, true] {
            let (out, result) = report(&done, json);
            let err = result.unwrap_err();
            assert!(err.contains("MISMATCH"), "{err}");
            assert!(err.contains(&corrupted) && err.contains(&good), "{err}");
            let verdict = if json {
                r#""checksum_ok":false"#
            } else {
                "MISMATCH"
            };
            assert!(out.contains(verdict), "{out}");
        }

        done.degraded = true;
        done.checksum = None;
        let (out, result) = report(&done, true);
        assert_eq!(result, Ok(()));
        assert!(
            out.contains(r#""checksum":null,"checksum_ok":null"#),
            "{out}"
        );
    }

    #[test]
    fn execute_validate_and_schema_locally() {
        let out = execute(
            parse_args(&[
                "validate".into(),
                "--spec".into(),
                r#"{"shape":[2,3]}"#.into(),
            ])
            .unwrap(),
        )
        .unwrap();
        assert!(out.contains("\"block_bytes\":64"), "defaults filled: {out}");

        let err = execute(
            parse_args(&[
                "validate".into(),
                "--spec".into(),
                r#"{"shape":[0]}"#.into(),
            ])
            .unwrap(),
        )
        .unwrap_err();
        assert!(err.contains("shape"), "{err}");

        let out = execute(parse_args(&argv("schema")).unwrap()).unwrap();
        assert!(out.contains("\"shape\""), "{out}");
        assert!(out.contains("\"fault\""), "{out}");
    }

    #[test]
    fn execute_serve_submit_stats_round_trip() {
        // `serve` blocks until drained, so run it on a thread and
        // discover the port through --port-file.
        let dir = std::env::temp_dir().join(format!("torus-xchg-cli-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let port_file = dir.join("port");
        let serve = {
            let args = vec![
                "serve".to_string(),
                "--addr".to_string(),
                "127.0.0.1:0".to_string(),
                "--concurrency".to_string(),
                "2".to_string(),
                "--port-file".to_string(),
                port_file.display().to_string(),
                "--journal-dir".to_string(),
                dir.join("journal").display().to_string(),
            ];
            std::thread::spawn(move || execute(parse_args(&args).unwrap()))
        };
        let addr = loop {
            if let Ok(s) = std::fs::read_to_string(&port_file) {
                if s.ends_with('\n') {
                    break s.trim().to_string();
                }
            }
            std::thread::sleep(std::time::Duration::from_millis(5));
        };

        let out = execute(
            parse_args(&[
                "submit".to_string(),
                "--spec".to_string(),
                r#"{"shape":[4,4],"seed":3}"#.to_string(),
                "--addr".to_string(),
                addr.clone(),
                "--tenant".to_string(),
                "cli-test".to_string(),
            ])
            .unwrap(),
        )
        .unwrap();
        assert!(out.contains("ok"), "{out}");
        assert!(out.contains("checksum"), "{out}");
        assert!(
            out.contains("verified"),
            "the spec's digest must match: {out}"
        );

        let out = execute(
            parse_args(&["stats".to_string(), "--addr".to_string(), addr.clone()]).unwrap(),
        )
        .unwrap();
        assert!(out.contains("\"jobs_completed\":1"), "{out}");
        assert!(out.contains("cli-test"), "{out}");

        // Drain: serve returns and prints the final books.
        let mut admin = torus_serviced::Client::connect(addr.as_str()).unwrap();
        admin.drain().unwrap();
        let served = serve.join().unwrap().unwrap();
        assert!(served.contains("drained:"), "{served}");
        assert!(served.contains("jobs 1/1 ok"), "{served}");
        assert!(!port_file.exists(), "clean drain must remove the port file");
        assert!(
            dir.join("journal").is_dir(),
            "serve must have created its journal dir"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn parse_errors() {
        assert!(parse_args(&argv("run")).is_err());
        assert!(parse_args(&argv("bogus --shape 4x4")).is_err());
        assert!(parse_args(&argv("run --shape 4x4 --nope 1")).is_err());
        assert!(parse_args(&argv("collective --shape 4x4")).is_err());
        assert_eq!(parse_args(&argv("help")).unwrap(), Command::Help);
        assert_eq!(parse_args(&[]).unwrap(), Command::Help);
    }

    #[test]
    fn execute_run_proposed() {
        let out = execute(parse_args(&argv("run --shape 8x8")).unwrap()).unwrap();
        assert!(out.contains("8x8"));
        assert!(out.contains("matches Table 1 closed form: true"));
    }

    #[test]
    fn execute_run_baselines() {
        for algo in ["direct", "ring", "rowcol", "mesh"] {
            let out =
                execute(parse_args(&argv(&format!("run --shape 4x4 --algo {algo}"))).unwrap())
                    .unwrap();
            assert!(out.contains("verified: true"), "{algo}: {out}");
        }
    }

    #[test]
    fn execute_compare() {
        let out = execute(parse_args(&argv("compare --shape 4x4")).unwrap()).unwrap();
        assert!(out.contains("proposed"));
        assert!(out.contains("direct"));
        assert!(out.contains("ring"));
    }

    #[test]
    fn execute_collectives() {
        for op in [
            "broadcast",
            "scatter",
            "gather",
            "allgather",
            "reduce",
            "allreduce",
            "alltoall",
        ] {
            let out =
                execute(parse_args(&argv(&format!("collective --op {op} --shape 4x4"))).unwrap())
                    .unwrap();
            assert!(out.contains("verified: true"), "{op}: {out}");
        }
    }

    #[test]
    fn collective_and_run_collective_share_op_names() {
        for kind in torus_runtime::CollectiveOp::KINDS {
            for cmd in ["collective", "run-collective"] {
                parse_args(&argv(&format!("{cmd} --op {kind} --shape 4x4"))).unwrap();
            }
        }
        for cmd in ["collective", "run-collective"] {
            let err = parse_args(&argv(&format!("{cmd} --op levitate --shape 4x4"))).unwrap_err();
            assert!(err.contains("'levitate'"), "{cmd}: {err}");
            assert!(
                err.contains("broadcast|scatter|gather|allgather|reduce|allreduce"),
                "{cmd}: {err}"
            );
        }
    }

    #[test]
    fn parse_run_collective_command() {
        match parse_args(&argv(
            "run-collective --op reduce --shape 4x4 --root 3 --reduce max --dtype f32 -m 32",
        ))
        .unwrap()
        {
            Command::RunCollective {
                op, shape, params, ..
            } => {
                assert_eq!(
                    op,
                    torus_runtime::CollectiveOp::Reduce {
                        root: 3,
                        op: torus_runtime::ReduceOp::Max,
                        dtype: torus_runtime::Dtype::F32,
                    }
                );
                assert_eq!(shape, vec![4, 4]);
                assert_eq!(params.block_bytes, 32);
            }
            other => panic!("{other:?}"),
        }
        // Defaults: root 0, sum, u64.
        match parse_args(&argv("run-collective --op allreduce --shape 4x4")).unwrap() {
            Command::RunCollective { op, .. } => {
                assert_eq!(
                    op,
                    torus_runtime::CollectiveOp::Allreduce {
                        op: torus_runtime::ReduceOp::Sum,
                        dtype: torus_runtime::Dtype::U64,
                    }
                );
            }
            other => panic!("{other:?}"),
        }
        // Strictness mirrors the daemon spec.
        for (args, needle) in [
            ("run-collective --shape 4x4", "--op"),
            ("run-collective --op levitate --shape 4x4", "--op"),
            (
                "run-collective --op allgather --shape 4x4 --root 1",
                "--root",
            ),
            (
                "run-collective --op broadcast --shape 4x4 --reduce sum",
                "--reduce",
            ),
            (
                "run-collective --op broadcast --shape 4x4 --dtype u64",
                "--dtype",
            ),
            (
                "run-collective --op allreduce --shape 4x4 --reduce xor",
                "--reduce",
            ),
            (
                "run-collective --op allreduce --shape 4x4 --dtype f64",
                "--dtype",
            ),
        ] {
            let err = parse_args(&argv(args)).unwrap_err();
            assert!(err.contains(needle), "{args}: {err}");
        }
    }

    #[test]
    fn execute_run_collective_byte_real() {
        for op in [
            "broadcast",
            "scatter",
            "gather",
            "allgather",
            "reduce",
            "allreduce",
        ] {
            let out = execute(
                parse_args(&argv(&format!(
                    "run-collective --op {op} --shape 4x4 --threads 2 -m 16"
                )))
                .unwrap(),
            )
            .unwrap();
            assert!(out.contains("verified=true"), "{op}: {out}");
        }
    }

    #[test]
    fn execute_run_collective_with_recoverable_faults() {
        let out = execute(
            parse_args(&argv(
                "run-collective --op allreduce --shape 4x4 --threads 2 -m 16 \
                 --faults drop=0.5,seed=9 --deadline-ms 50",
            ))
            .unwrap(),
        )
        .unwrap();
        assert!(out.contains("verified=true"), "{out}");
        assert!(out.contains("faults:"), "{out}");
    }

    #[test]
    fn execute_run_collective_json() {
        let out = execute(
            parse_args(&argv(
                "run-collective --op allgather --shape 4x4 --threads 2 -m 16 --json",
            ))
            .unwrap(),
        )
        .unwrap();
        let v = parse_json(&out);
        assert_eq!(v.get("verified").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("nodes").unwrap().as_u64(), Some(16));
    }

    #[test]
    fn execute_run_collective_rejects_bad_root() {
        let err = execute(
            parse_args(&argv("run-collective --op broadcast --shape 4x4 --root 99")).unwrap(),
        )
        .unwrap_err();
        assert!(err.contains("root"), "{err}");
    }

    #[test]
    fn execute_schedule_summary_and_json() {
        let out = execute(parse_args(&argv("schedule --shape 8x8")).unwrap()).unwrap();
        assert!(out.contains("4 phases"));
        assert!(out.contains("contention-free: yes"));
        let out = execute(parse_args(&argv("schedule --shape 8x8 --json")).unwrap()).unwrap();
        let v = parse_json(&out);
        let dims = v.get("dims").unwrap().as_arr().unwrap();
        assert_eq!(dims, [Json::u64(8), Json::u64(8)]);
        // Every send of every step is exported, in order.
        let sched = StaticSchedule::generate(&TorusShape::new(&[8, 8]).unwrap());
        let phases = v.get("phases").unwrap().as_arr().unwrap();
        assert_eq!(phases.len(), sched.phases.len());
        for (got, want) in phases.iter().zip(&sched.phases) {
            assert_eq!(got.get("name").unwrap().as_str(), Some(want.name.as_str()));
            let steps = got.get("steps").unwrap().as_arr().unwrap();
            let sends: Vec<usize> = steps
                .iter()
                .map(|s| s.get("sends").unwrap().as_arr().unwrap().len())
                .collect();
            let want_sends: Vec<usize> = want.steps.iter().map(|s| s.sends.len()).collect();
            assert_eq!(sends, want_sends, "{}", want.name);
        }
        let first = &phases[0].get("steps").unwrap().as_arr().unwrap()[0];
        let send = &first.get("sends").unwrap().as_arr().unwrap()[0];
        let want = sched.phases[0].steps[0].sends[0];
        assert_eq!(send.get("dst").unwrap().as_u64(), Some(want.dst as u64));
        assert_eq!(send.get("sign").unwrap().as_f64(), Some(want.sign as f64));
    }

    #[test]
    fn execute_schedule_rejects_unsupported() {
        assert!(execute(parse_args(&argv("schedule --shape 6x6")).unwrap()).is_err());
    }

    #[test]
    fn run_rejects_unknown_algo() {
        assert!(execute(parse_args(&argv("run --shape 4x4 --algo nope")).unwrap()).is_err());
    }
}
