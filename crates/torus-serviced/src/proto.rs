//! The wire protocol: newline-delimited JSON requests and responses.
//!
//! Every line a client sends is one JSON object with an `"op"` field;
//! every line the daemon sends is one JSON object with an `"ev"` field.
//! A connection is a plain request/response channel except for
//! `submit`, which streams: `accepted` immediately, `status` heartbeats
//! while the job is queued/running, and a final `done`.
//!
//! ```text
//! → {"op":"hello","tenant":"acme"}
//! ← {"ev":"hello_ok","tenant":"acme"}
//! → {"op":"submit","spec":{"shape":[4,4],"seed":7}}
//! ← {"ev":"accepted","job_id":1}
//! ← {"ev":"status","job_id":1,"state":"queued"}
//! ← {"ev":"status","job_id":1,"state":"running"}
//! ← {"ev":"done","job_id":1,"ok":true,"degraded":false,"cache_hit":false,
//!    "wire_bytes":61440,"checksum":"92c5…","error":null}
//! ```
//!
//! Requests never exceed [`MAX_LINE_BYTES`]; a longer line is a
//! protocol error and the daemon closes the connection after replying.

use std::time::Duration;

use torus_runtime::{
    DegradedReport, FailureReason, FaultEvent, FaultEventKind, FaultKind, NodeFailure, PhaseReport,
    RecoveryStats, RuntimeReport, WorkerFaultKind,
};
use torus_service::{LatencyStats, ServiceStats, TenantStats};
use torus_sim::Trace;

use crate::journal::JournalStats;
use crate::json::Json;

/// Longest accepted request line, including the newline. Specs are a
/// few hundred bytes; the cap keeps a hostile client from ballooning
/// the reader's buffer.
pub const MAX_LINE_BYTES: usize = 64 * 1024;

/// A parsed client request.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Authenticate the connection as `tenant`.
    Hello {
        /// The tenant id for every later submit on this connection.
        tenant: String,
    },
    /// Submit a job; `spec` is validated at dispatch so rejection
    /// responses can carry the typed cause.
    Submit {
        /// The raw spec object.
        spec: Json,
    },
    /// Validate a spec without running it.
    Validate {
        /// The raw spec object.
        spec: Json,
    },
    /// Look up one job by id — answers for live jobs and (on a
    /// journaling daemon) for jobs recovered from a pre-crash journal.
    Status {
        /// The engine-assigned job id to look up.
        job_id: u64,
    },
    /// Cancel one job by id. Tenant-scoped: only the connection's
    /// authenticated tenant may cancel its own jobs. Queued jobs finish
    /// immediately as `cancelled`; running jobs are asked to stop and
    /// report `cancelled` through the normal `done` stream.
    Cancel {
        /// The engine-assigned job id to cancel.
        job_id: u64,
    },
    /// Fetch service-wide and per-tenant statistics.
    Stats,
    /// Fetch the job-spec schema.
    Schema,
    /// Stop admission, drain every in-flight job, reply with final
    /// stats, and shut the daemon down.
    Drain,
    /// Liveness probe.
    Ping,
}

/// Why a request line could not be turned into a [`Request`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProtoError {
    /// Human-readable cause, echoed to the client in an `error` event.
    pub message: String,
}

impl ProtoError {
    fn new(message: impl Into<String>) -> Self {
        Self {
            message: message.into(),
        }
    }
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for ProtoError {}

/// Validates a tenant id: short, non-empty, shell-safe.
pub(crate) fn valid_tenant(tenant: &str) -> bool {
    !tenant.is_empty()
        && tenant.len() <= 64
        && tenant
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '_' || c == '.')
}

/// Parses one request line.
pub(crate) fn parse_request(line: &str) -> Result<Request, ProtoError> {
    let value = crate::json::parse(line).map_err(|e| ProtoError::new(e.to_string()))?;
    if value.as_obj().is_none() {
        return Err(ProtoError::new("request must be a JSON object"));
    }
    let op = value
        .get("op")
        .and_then(Json::as_str)
        .ok_or_else(|| ProtoError::new("missing string field 'op'"))?;
    match op {
        "hello" => {
            let tenant = value
                .get("tenant")
                .and_then(Json::as_str)
                .ok_or_else(|| ProtoError::new("hello requires a string 'tenant'"))?;
            if !valid_tenant(tenant) {
                return Err(ProtoError::new(
                    "tenant must be 1..=64 chars of [A-Za-z0-9._-]",
                ));
            }
            Ok(Request::Hello {
                tenant: tenant.to_string(),
            })
        }
        "submit" | "validate" => {
            let spec = value
                .get("spec")
                .cloned()
                .ok_or_else(|| ProtoError::new(format!("{op} requires a 'spec' object")))?;
            if op == "submit" {
                Ok(Request::Submit { spec })
            } else {
                Ok(Request::Validate { spec })
            }
        }
        "status" | "cancel" => {
            let job_id = value
                .get("job_id")
                .and_then(Json::as_u64)
                .ok_or_else(|| ProtoError::new(format!("{op} requires a numeric 'job_id'")))?;
            if op == "status" {
                Ok(Request::Status { job_id })
            } else {
                Ok(Request::Cancel { job_id })
            }
        }
        "stats" => Ok(Request::Stats),
        "schema" => Ok(Request::Schema),
        "drain" => Ok(Request::Drain),
        "ping" => Ok(Request::Ping),
        other => Err(ProtoError::new(format!("unknown op {other:?}"))),
    }
}

fn latency_json(lat: &LatencyStats) -> Json {
    Json::obj([
        ("count", Json::u64(lat.count)),
        ("p50", Json::u64(lat.p50)),
        ("p95", Json::u64(lat.p95)),
        ("p99", Json::u64(lat.p99)),
        ("max", Json::u64(lat.max)),
    ])
}

/// Per-op `{accepted, completed}` counter pairs, one entry per
/// [`JobOp`](torus_service::JobOp) slot, keyed by the op's wire name.
fn op_counts_json(stats: &ServiceStats) -> Json {
    Json::obj(
        torus_service::JobOp::NAMES
            .iter()
            .enumerate()
            .map(|(i, name)| {
                (
                    *name,
                    Json::obj([
                        ("accepted", Json::u64(stats.ops_accepted[i])),
                        ("completed", Json::u64(stats.ops_completed[i])),
                    ]),
                )
            }),
    )
}

/// The full JSON form of the engine's aggregate stats.
pub(crate) fn service_stats_json(stats: &ServiceStats) -> Json {
    Json::obj([
        ("jobs_accepted", Json::u64(stats.jobs_accepted)),
        ("jobs_rejected", Json::u64(stats.jobs_rejected)),
        ("jobs_completed", Json::u64(stats.jobs_completed)),
        ("jobs_failed", Json::u64(stats.jobs_failed)),
        ("jobs_cancelled", Json::u64(stats.jobs_cancelled)),
        (
            "jobs_deadline_exceeded",
            Json::u64(stats.jobs_deadline_exceeded),
        ),
        ("jobs_degraded", Json::u64(stats.jobs_degraded)),
        ("queue_high_water", Json::u64(stats.queue_high_water as u64)),
        ("cache_hits", Json::u64(stats.cache_hits)),
        ("cache_misses", Json::u64(stats.cache_misses)),
        ("wire_bytes", Json::u64(stats.wire_bytes)),
        ("bytes_copied", Json::u64(stats.bytes_copied)),
        ("ops", op_counts_json(stats)),
        ("queue_wait_us", latency_json(&stats.queue_wait)),
        ("run_time_us", latency_json(&stats.run_time)),
    ])
}

/// A duration as a `*_ms` float, the unit of the sweep snapshots.
fn ms(d: Duration) -> Json {
    Json::num(d.as_secs_f64() * 1e3)
}

fn u32s(values: &[u32]) -> Json {
    Json::Arr(values.iter().map(|&v| Json::num(v)).collect())
}

/// The JSON form of a per-step trace: per phase, its steps and the
/// critical-path blocks of each rearrangement recorded in it.
pub fn trace_json(trace: &Trace) -> Json {
    let phase = |p: &torus_sim::PhaseTrace| {
        let steps = p.steps.iter().map(|s| {
            Json::obj([
                ("messages", Json::num(s.messages)),
                ("total_blocks", Json::u64(s.total_blocks)),
                ("max_blocks", Json::u64(s.max_blocks)),
                ("max_hops", Json::num(s.max_hops)),
                ("retries", Json::u64(s.retries)),
                ("time_us", Json::num(s.time_us)),
            ])
        });
        Json::obj([
            ("name", Json::str(p.name.clone())),
            ("steps", Json::Arr(steps.collect())),
            (
                "rearrangements",
                Json::Arr(p.rearrangements.iter().map(|&b| Json::u64(b)).collect()),
            ),
        ])
    };
    Json::obj([(
        "phases",
        Json::Arr(trace.phases.iter().map(phase).collect()),
    )])
}

fn phase_report_json(p: &PhaseReport) -> Json {
    Json::obj([
        ("name", Json::str(p.name.clone())),
        ("steps", Json::u64(p.steps as u64)),
        ("wall_ms", ms(p.wall)),
        ("assembly_send_ms", ms(p.assembly_send)),
        ("assembly_recv_ms", ms(p.assembly_recv)),
        ("transport_ms", ms(p.transport)),
        ("rearrange_ms", ms(p.rearrange)),
        ("wire_bytes", Json::u64(p.wire_bytes)),
        ("rearranged_bytes", Json::u64(p.rearranged_bytes)),
        ("bytes_copied", Json::u64(p.bytes_copied)),
        ("allocations", Json::u64(p.allocations)),
        ("messages", Json::u64(p.messages)),
    ])
}

fn recovery_stats_json(f: &RecoveryStats) -> Json {
    Json::obj([
        ("injected_drops", Json::u64(f.injected_drops)),
        ("injected_corruptions", Json::u64(f.injected_corruptions)),
        ("injected_truncations", Json::u64(f.injected_truncations)),
        ("injected_duplicates", Json::u64(f.injected_duplicates)),
        ("injected_delays", Json::u64(f.injected_delays)),
        ("injected_stalls", Json::u64(f.injected_stalls)),
        ("injected_kills", Json::u64(f.injected_kills)),
        ("crc_failures", Json::u64(f.crc_failures)),
        ("decode_failures", Json::u64(f.decode_failures)),
        ("timeouts", Json::u64(f.timeouts)),
        ("retries", Json::u64(f.retries)),
        ("resends", Json::u64(f.resends)),
        ("stale_discarded", Json::u64(f.stale_discarded)),
        ("recovered", Json::u64(f.recovered)),
    ])
}

/// `{step, src, dst, attempt, fault, us}`: `fault` names the injection
/// (`drop`, `delay`, `duplicate`, `corrupt`, `truncate`, `kill`,
/// `stall`); `us` is the delay or stall length, `null` for the rest.
fn fault_event_json(e: &FaultEvent) -> Json {
    let (fault, us) = match e.kind {
        FaultEventKind::Message(FaultKind::Drop) => ("drop", None),
        FaultEventKind::Message(FaultKind::DelayMicros(us)) => ("delay", Some(us)),
        FaultEventKind::Message(FaultKind::Duplicate) => ("duplicate", None),
        FaultEventKind::Message(FaultKind::CorruptByte) => ("corrupt", None),
        FaultEventKind::Message(FaultKind::Truncate) => ("truncate", None),
        FaultEventKind::Worker(WorkerFaultKind::Kill) => ("kill", None),
        FaultEventKind::Worker(WorkerFaultKind::StallMicros(us)) => ("stall", Some(us)),
    };
    Json::obj([
        ("step", Json::u64(e.step as u64)),
        ("src", Json::num(e.src)),
        ("dst", Json::num(e.dst)),
        ("attempt", Json::num(e.attempt)),
        ("fault", Json::str(fault)),
        ("us", us.map_or(Json::Null, Json::u64)),
    ])
}

/// `{kind, node, detail}`: `node` is the node the reason names (the
/// silent or damaged peer for `retry_exhausted` and `integrity`), `null`
/// for run-wide reasons; `detail` is the human-readable text, which
/// carries the exact wire error of an `integrity` failure.
fn failure_reason_json(reason: &FailureReason) -> Json {
    let (kind, node) = match *reason {
        FailureReason::RetryExhausted { src } => ("retry_exhausted", Some(src)),
        FailureReason::Integrity { src, .. } => ("integrity", Some(src)),
        FailureReason::WorkerKilled { node } => ("worker_killed", Some(node)),
        FailureReason::NodeDead { node } => ("node_dead", Some(node)),
        FailureReason::ChannelClosed => ("channel_closed", None),
        FailureReason::Cancelled => ("cancelled", None),
        FailureReason::DeadlineExceeded => ("deadline_exceeded", None),
    };
    Json::obj([
        ("kind", Json::str(kind)),
        ("node", node.map_or(Json::Null, Json::num)),
        ("detail", Json::str(reason.to_string())),
    ])
}

fn node_failure_json(f: &NodeFailure) -> Json {
    Json::obj([
        ("node", Json::num(f.node)),
        ("phase", Json::str(f.phase.clone())),
        ("step", Json::u64(f.step as u64)),
        ("global_step", Json::u64(f.global_step as u64)),
        ("reason", failure_reason_json(&f.reason)),
    ])
}

fn degraded_json(d: &DegradedReport) -> Json {
    let dead = d.dead_nodes.iter().map(|n| {
        Json::obj([
            ("node", Json::num(n.node)),
            ("original", n.original.map_or(Json::Null, Json::num)),
            ("quarantine_step", Json::u64(n.quarantine_step as u64)),
            ("reason", failure_reason_json(&n.reason)),
        ])
    });
    let dropped = d.dropped.iter().map(|b| {
        Json::obj([
            ("src", Json::num(b.src)),
            ("dst", Json::num(b.dst)),
            ("holder", Json::num(b.holder)),
            ("step", Json::u64(b.step as u64)),
        ])
    });
    Json::obj([
        ("dead_nodes", Json::Arr(dead.collect())),
        ("dropped_blocks", Json::u64(d.dropped_blocks)),
        ("dropped", Json::Arr(dropped.collect())),
        ("contracted_rings", Json::u64(d.contracted_rings)),
        ("contracted_sends", Json::u64(d.contracted_sends)),
        ("fallback_steps", Json::u64(d.fallback_steps)),
        ("fallback_blocks", Json::u64(d.fallback_blocks)),
        ("baseline_wire_bytes", Json::u64(d.baseline_wire_bytes)),
        ("extra_wire_bytes", Json::Num(d.extra_wire_bytes as f64)),
        ("restarts", Json::num(d.restarts)),
        ("verified_degraded", Json::Bool(d.verified_degraded)),
    ])
}

/// The full JSON form of a runtime report: every field, durations as
/// `*_ms` floats, the analytic prediction as `*_us` components, and
/// `failure`/`degraded` as `null` when absent.
pub fn runtime_report_json(r: &RuntimeReport) -> Json {
    let a = &r.analytic;
    Json::obj([
        ("dims", u32s(&r.dims)),
        ("executed_dims", u32s(&r.executed_dims)),
        ("padded", Json::Bool(r.padded)),
        ("nodes", Json::num(r.nodes)),
        ("block_bytes", Json::u64(r.block_bytes as u64)),
        ("workers", Json::u64(r.workers as u64)),
        (
            "phases",
            Json::Arr(r.phases.iter().map(phase_report_json).collect()),
        ),
        ("wall_ms", ms(r.wall)),
        ("wire_bytes", Json::u64(r.wire_bytes)),
        ("rearranged_bytes", Json::u64(r.rearranged_bytes)),
        ("bytes_copied", Json::u64(r.bytes_copied)),
        ("allocations", Json::u64(r.allocations)),
        ("peak_node_bytes", Json::u64(r.peak_node_bytes)),
        ("messages", Json::u64(r.messages)),
        ("verified", Json::Bool(r.verified)),
        ("faults", recovery_stats_json(&r.faults)),
        (
            "fault_events",
            Json::Arr(r.fault_events.iter().map(fault_event_json).collect()),
        ),
        (
            "failure",
            r.failure.as_ref().map_or(Json::Null, node_failure_json),
        ),
        (
            "degraded",
            r.degraded.as_ref().map_or(Json::Null, degraded_json),
        ),
        (
            "analytic",
            Json::obj([
                ("startup_us", Json::num(a.startup)),
                ("transmission_us", Json::num(a.transmission)),
                ("rearrangement_us", Json::num(a.rearrangement)),
                ("propagation_us", Json::num(a.propagation)),
                ("total_us", Json::num(a.total())),
            ]),
        ),
        ("trace", trace_json(&r.trace)),
    ])
}

/// The JSON form of one tenant's stats.
pub(crate) fn tenant_stats_json(stats: &TenantStats) -> Json {
    Json::obj([
        ("tenant", Json::str(stats.tenant.clone())),
        ("jobs_accepted", Json::u64(stats.jobs_accepted)),
        ("jobs_rejected", Json::u64(stats.jobs_rejected)),
        ("jobs_completed", Json::u64(stats.jobs_completed)),
        ("jobs_failed", Json::u64(stats.jobs_failed)),
        ("jobs_cancelled", Json::u64(stats.jobs_cancelled)),
        (
            "jobs_deadline_exceeded",
            Json::u64(stats.jobs_deadline_exceeded),
        ),
        ("queue_wait_us", latency_json(&stats.queue_wait)),
        ("run_time_us", latency_json(&stats.run_time)),
    ])
}

/// `{"ev":"hello_ok","tenant":…}`
pub(crate) fn hello_ok(tenant: &str) -> Json {
    Json::obj([("ev", Json::str("hello_ok")), ("tenant", Json::str(tenant))])
}

/// `{"ev":"accepted","job_id":…}`
pub(crate) fn accepted(job_id: u64) -> Json {
    Json::obj([("ev", Json::str("accepted")), ("job_id", Json::u64(job_id))])
}

/// `{"ev":"status","job_id":…,"state":…}`
pub(crate) fn status(job_id: u64, state: &str) -> Json {
    Json::obj([
        ("ev", Json::str("status")),
        ("job_id", Json::u64(job_id)),
        ("state", Json::str(state)),
    ])
}

/// `{"ev":"rejected","reason":…,"detail":…}` — `reason` is a stable
/// machine-readable token, `detail` is for humans.
pub(crate) fn rejected(reason: &str, detail: &str) -> Json {
    Json::obj([
        ("ev", Json::str("rejected")),
        ("reason", Json::str(reason)),
        ("detail", Json::str(detail)),
    ])
}

/// `{"ev":"rejected","reason":…,"detail":…,"retry_after_ms":…}` — an
/// overload rejection carrying the engine's backoff hint, honored by
/// the client's `submit_with_retry`.
pub(crate) fn rejected_backoff(reason: &str, detail: &str, retry_after_ms: u64) -> Json {
    Json::obj([
        ("ev", Json::str("rejected")),
        ("reason", Json::str(reason)),
        ("detail", Json::str(detail)),
        ("retry_after_ms", Json::u64(retry_after_ms)),
    ])
}

/// `{"ev":"error","message":…}` — a malformed request (not a job
/// outcome).
pub(crate) fn error_event(message: &str) -> Json {
    Json::obj([("ev", Json::str("error")), ("message", Json::str(message))])
}

/// `{"ev":"pong"}`
pub(crate) fn pong() -> Json {
    Json::obj([("ev", Json::str("pong"))])
}

/// `{"ev":"valid","spec":…}` — the normalized (defaults filled) form.
pub(crate) fn valid(normalized: Json) -> Json {
    Json::obj([("ev", Json::str("valid")), ("spec", normalized)])
}

/// `{"ev":"job_status","job_id":…,"state":…,…}` — the reply to a
/// `status` op (distinct from the streamed `status` heartbeats so a
/// client can tell a lookup answer from a live-job transition). For a
/// terminal job the extra fields carry the recorded outcome; `recovered`
/// marks an answer reconstructed from the journal rather than from a
/// job this process executed.
pub(crate) fn job_status(
    job_id: u64,
    state: &str,
    ok: Option<bool>,
    degraded: Option<bool>,
    checksum: Option<&str>,
    error: Option<&str>,
    recovered: bool,
) -> Json {
    Json::obj([
        ("ev", Json::str("job_status")),
        ("job_id", Json::u64(job_id)),
        ("state", Json::str(state)),
        ("ok", ok.map_or(Json::Null, Json::Bool)),
        ("degraded", degraded.map_or(Json::Null, Json::Bool)),
        ("checksum", checksum.map_or(Json::Null, Json::str)),
        ("error", error.map_or(Json::Null, Json::str)),
        ("recovered", Json::Bool(recovered)),
    ])
}

/// `{"ev":"cancel","job_id":…,"outcome":…,"state":…}` — the reply to a
/// `cancel` op. `outcome` is a stable token:
///
/// * `cancelled` — the job was still queued and is now terminal;
/// * `cancelling` — the job is running and has been asked to stop; its
///   `done` event will follow with `state:"cancelled"`;
/// * `already_terminal` — the job finished first; `state` carries its
///   recorded terminal state;
/// * `forbidden` — the job belongs to another tenant;
/// * `unknown` — no live or remembered job with that id.
pub(crate) fn cancel_reply(job_id: u64, outcome: &str, state: Option<&str>) -> Json {
    Json::obj([
        ("ev", Json::str("cancel")),
        ("job_id", Json::u64(job_id)),
        ("outcome", Json::str(outcome)),
        ("state", state.map_or(Json::Null, Json::str)),
    ])
}

/// `{"ev":"schema","spec":…,"rejection":…}` — the spec schema plus the
/// shape of overload rejections (including the `retry_after_ms` backoff
/// hint clients should honor).
pub(crate) fn schema(spec_schema: Json) -> Json {
    Json::obj([
        ("ev", Json::str("schema")),
        ("spec", spec_schema),
        (
            "rejection",
            Json::obj([
                (
                    "reason",
                    Json::str("string token: queue_full | tenant_queue_full | rate_limited | draining | invalid_spec | unauthenticated | journal_unavailable"),
                ),
                ("detail", Json::str("string: human-readable cause")),
                (
                    "retry_after_ms",
                    Json::str(
                        "u64, present on queue_full/tenant_queue_full/rate_limited: suggested \
                         wait before resubmitting; honored by the client's submit_with_retry",
                    ),
                ),
            ]),
        ),
    ])
}

/// The JSON form of the journal's counters, including the group-commit
/// batching figures: `group_commit_batches` fsync batches have covered
/// `group_commit_records` admissions, and `mean_batch_size` is their
/// ratio (`null` before the first batch) — well above 1.0 under bursts.
pub(crate) fn journal_stats_json(stats: &JournalStats) -> Json {
    Json::obj([
        ("records_written", Json::u64(stats.records_written)),
        ("bytes_written", Json::u64(stats.bytes_written)),
        ("fsyncs", Json::u64(stats.fsyncs)),
        ("segments_compacted", Json::u64(stats.segments_compacted)),
        ("jobs_replayed", Json::u64(stats.jobs_replayed)),
        (
            "group_commit_batches",
            Json::u64(stats.group_commit_batches),
        ),
        (
            "group_commit_records",
            Json::u64(stats.group_commit_records),
        ),
        (
            "mean_batch_size",
            stats.mean_batch_size().map_or(Json::Null, Json::num),
        ),
    ])
}

/// `{"ev":"stats","service":…,"tenants":[…],"journal":…,"daemon":…}` —
/// `journal` is `null` when the daemon runs without one; `daemon`
/// carries front-door gauges (reactor pool size, registry occupancy)
/// and is `null` only for embedders that have no daemon layer.
pub(crate) fn stats(
    service: &ServiceStats,
    tenants: &[TenantStats],
    journal: Option<&JournalStats>,
    daemon: Option<&Json>,
) -> Json {
    Json::obj([
        ("ev", Json::str("stats")),
        ("service", service_stats_json(service)),
        (
            "tenants",
            Json::Arr(tenants.iter().map(tenant_stats_json).collect()),
        ),
        ("journal", journal.map_or(Json::Null, journal_stats_json)),
        ("daemon", daemon.map_or(Json::Null, Json::clone)),
    ])
}

/// `{"ev":"drained","service":…}` — the final aggregate snapshot.
pub(crate) fn drained(service: &ServiceStats) -> Json {
    Json::obj([
        ("ev", Json::str("drained")),
        ("service", service_stats_json(service)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_every_op() {
        assert_eq!(
            parse_request(r#"{"op":"hello","tenant":"a-1.b_c"}"#).unwrap(),
            Request::Hello {
                tenant: "a-1.b_c".to_string()
            }
        );
        assert!(matches!(
            parse_request(r#"{"op":"submit","spec":{"shape":[2,2]}}"#).unwrap(),
            Request::Submit { .. }
        ));
        assert!(matches!(
            parse_request(r#"{"op":"validate","spec":{}}"#).unwrap(),
            Request::Validate { .. }
        ));
        assert_eq!(parse_request(r#"{"op":"stats"}"#).unwrap(), Request::Stats);
        assert_eq!(
            parse_request(r#"{"op":"status","job_id":9}"#).unwrap(),
            Request::Status { job_id: 9 }
        );
        assert_eq!(
            parse_request(r#"{"op":"cancel","job_id":11}"#).unwrap(),
            Request::Cancel { job_id: 11 }
        );
        assert_eq!(
            parse_request(r#"{"op":"schema"}"#).unwrap(),
            Request::Schema
        );
        assert_eq!(parse_request(r#"{"op":"drain"}"#).unwrap(), Request::Drain);
        assert_eq!(parse_request(r#"{"op":"ping"}"#).unwrap(), Request::Ping);
    }

    #[test]
    fn rejects_bad_requests_with_reasons() {
        for (line, needle) in [
            ("", "invalid JSON"),
            ("not json", "invalid JSON"),
            ("[1,2]", "must be a JSON object"),
            (r#"{"noop":1}"#, "missing string field 'op'"),
            (r#"{"op":"levitate"}"#, "unknown op"),
            (r#"{"op":"hello"}"#, "tenant"),
            (r#"{"op":"hello","tenant":""}"#, "tenant"),
            (r#"{"op":"hello","tenant":"sp ace"}"#, "tenant"),
            (r#"{"op":"submit"}"#, "'spec'"),
            (r#"{"op":"status"}"#, "'job_id'"),
            (r#"{"op":"cancel"}"#, "'job_id'"),
        ] {
            let err = parse_request(line).unwrap_err();
            assert!(
                err.message.contains(needle),
                "line {line:?} produced {:?}, wanted {needle:?}",
                err.message
            );
        }
    }

    #[test]
    fn stats_event_carries_per_op_counters() {
        let mut service = ServiceStats::default();
        let allreduce = torus_service::JobOp::NAMES
            .iter()
            .position(|&n| n == "allreduce")
            .unwrap();
        service.ops_accepted[allreduce] = 4;
        service.ops_completed[allreduce] = 3;
        let event = stats(&service, &[], None, None);
        let ops = event.get("service").unwrap().get("ops").unwrap();
        for name in torus_service::JobOp::NAMES {
            let slot = ops
                .get(name)
                .unwrap_or_else(|| panic!("missing op slot {name}"));
            let expect = if name == "allreduce" { (4, 3) } else { (0, 0) };
            assert_eq!(slot.get("accepted").unwrap().as_u64(), Some(expect.0));
            assert_eq!(slot.get("completed").unwrap().as_u64(), Some(expect.1));
        }
        assert_eq!(crate::json::parse(&event.dump()).unwrap(), event);
    }

    #[test]
    fn runtime_report_json_covers_clean_aborted_and_degraded_runs() {
        use torus_runtime::{FaultPlan, OnFailure, Runtime, RuntimeConfig, RuntimeError};
        let shape = torus_topology::TorusShape::new(&[4, 4]).unwrap();
        let run = |config: RuntimeConfig| {
            let config = config.with_workers(2).with_block_bytes(16);
            Runtime::new(&shape, config).unwrap().run()
        };
        let reparse = |r: &RuntimeReport| {
            let v = runtime_report_json(r);
            assert_eq!(crate::json::parse(&v.dump()).unwrap(), v);
            v
        };

        let clean = run(RuntimeConfig::default()).unwrap();
        let v = reparse(&clean);
        assert_eq!(v.get("nodes").unwrap().as_u64(), Some(16));
        assert_eq!(v.get("verified").unwrap().as_bool(), Some(true));
        assert_eq!(
            v.get("wire_bytes").unwrap().as_u64(),
            Some(clean.wire_bytes)
        );
        let phases = v.get("phases").unwrap().as_arr().unwrap();
        assert_eq!(phases.len(), 4);
        let steps: u64 = phases
            .iter()
            .map(|p| p.get("steps").unwrap().as_u64().unwrap())
            .sum();
        assert_eq!(steps, clean.total_steps() as u64);
        let trace = v.get("trace").unwrap().get("phases").unwrap();
        assert_eq!(trace.as_arr().unwrap().len(), 4);
        assert_eq!(v.get("failure"), Some(&Json::Null));
        assert_eq!(v.get("degraded"), Some(&Json::Null));
        assert!(v.get("analytic").unwrap().get("total_us").unwrap().as_f64() > Some(0.0));

        let kill = || RuntimeConfig::default().with_faults(FaultPlan::parse("kill=0:1").unwrap());
        let Err(RuntimeError::Aborted { report, .. }) = run(kill()) else {
            panic!("a pinned kill aborts under the default policy");
        };
        let v = reparse(&report);
        let reason = v.get("failure").unwrap().get("reason").unwrap();
        assert_eq!(reason.get("kind").unwrap().as_str(), Some("worker_killed"));
        assert_eq!(reason.get("node").unwrap().as_u64(), Some(1));
        let events = v.get("fault_events").unwrap().as_arr().unwrap();
        assert_eq!(events[0].get("fault").unwrap().as_str(), Some("kill"));
        assert_eq!(events[0].get("us"), Some(&Json::Null));

        let degraded = run(kill().with_on_failure(OnFailure::Degrade)).unwrap();
        let v = reparse(&degraded);
        let d = v.get("degraded").unwrap();
        let dead = d.get("dead_nodes").unwrap().as_arr().unwrap();
        assert_eq!(dead[0].get("node").unwrap().as_u64(), Some(1));
        assert_eq!(d.get("verified_degraded").unwrap().as_bool(), Some(true));
        let dropped = d.get("dropped").unwrap().as_arr().unwrap();
        assert_eq!(
            dropped.len() as u64,
            d.get("dropped_blocks").unwrap().as_u64().unwrap()
        );
    }

    #[test]
    fn tenant_validation_bounds() {
        assert!(valid_tenant("a"));
        assert!(valid_tenant(&"x".repeat(64)));
        assert!(!valid_tenant(&"x".repeat(65)));
        assert!(!valid_tenant("has/slash"));
        assert!(!valid_tenant("new\nline"));
    }

    #[test]
    fn stats_event_nests_latencies() {
        let mut service = ServiceStats {
            jobs_accepted: 3,
            ..Default::default()
        };
        service.queue_wait.p99 = 250;
        let event = stats(&service, &[], None, None);
        assert_eq!(event.get("ev").unwrap().as_str(), Some("stats"));
        assert_eq!(event.get("journal"), Some(&Json::Null));
        assert_eq!(event.get("daemon"), Some(&Json::Null));
        let svc = event.get("service").unwrap();
        assert_eq!(svc.get("jobs_accepted").unwrap().as_u64(), Some(3));
        assert_eq!(
            svc.get("queue_wait_us")
                .unwrap()
                .get("p99")
                .unwrap()
                .as_u64(),
            Some(250)
        );
        // The whole event round-trips through the wire form.
        assert_eq!(crate::json::parse(&event.dump()).unwrap(), event);
    }
}
