//! Validated job specifications: the wire form of one exchange request.
//!
//! A [`JobSpec`] is what a client puts in a `submit` request's `spec`
//! field. Parsing is *strict* — unknown fields, wrong types, and
//! out-of-range values are all typed [`SpecError`]s naming the offending
//! field — so a daemon never silently runs something other than what the
//! client meant, and `validate`/`schema` give clients a way to check
//! specs without submitting them.

use std::time::Duration;

use torus_runtime::{
    CollectiveOp, Dtype, FaultPlan, JobOp, OnFailure, ReduceOp, RetryPolicy, RuntimeConfig,
    WorkerFaultKind,
};
use torus_service::{Exchange, PayloadSpec};
use torus_topology::TorusShape;

use crate::json::Json;

/// Largest accepted per-pair block, matching the CLI's sanity bound.
pub const MAX_BLOCK_BYTES: usize = 1 << 20;

/// Largest accepted per-job worker request.
pub const MAX_WORKERS: usize = 4096;

/// Largest accepted per-job wall-clock deadline (24 hours). The
/// daemon's own `--max-deadline` clamps further; this bound only keeps
/// the wire value sane.
pub const MAX_DEADLINE_MS: u64 = 86_400_000;

/// Largest accepted injected worker stall (10 minutes), so a chaos
/// spec cannot park a pool thread forever past any plausible deadline.
pub const MAX_STALL_US: u64 = 600_000_000;

/// A spec rejected by validation: which field, and why.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpecError {
    /// Dotted path of the offending field (e.g. `fault.drop_rate`).
    pub field: String,
    /// Human-readable cause.
    pub message: String,
}

impl SpecError {
    fn new(field: &str, message: impl Into<String>) -> Self {
        Self {
            field: field.to_string(),
            message: message.into(),
        }
    }
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid spec field '{}': {}", self.field, self.message)
    }
}

impl std::error::Error for SpecError {}

/// An optional injected fault plan, mirroring the runtime's
/// [`FaultPlan`] knobs the service exposes.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultSpec {
    /// Per-message drop probability in `[0, 1)`.
    pub drop_rate: f64,
    /// Per-message corruption probability in `[0, 1)`.
    pub corrupt_rate: f64,
    /// Seed for the fault RNG.
    pub seed: u64,
    /// Kill the worker hosting node `.0` when it reaches step `.1`.
    pub worker_kill: Option<(u32, usize)>,
    /// Stall the worker hosting node `.0` at step `.1` for `.2`
    /// microseconds — the knob deadline tests use to pin a job past its
    /// wall-clock budget without killing anything.
    pub worker_stall: Option<(u32, usize, u64)>,
}

/// An optional retry-policy override.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RetrySpec {
    /// Receive deadline, milliseconds (1..=60000).
    pub deadline_ms: u64,
    /// Recovery attempts after the first failed wait.
    pub max_retries: u32,
    /// Base backoff, microseconds.
    pub backoff_us: u64,
}

/// One validated exchange request.
#[derive(Clone, Debug, PartialEq)]
pub struct JobSpec {
    /// Torus extents, e.g. `[4, 4]`.
    pub shape: Vec<u32>,
    /// The operation to run: all-to-all (default) or a collective,
    /// from the wire `op` object. Default [`JobOp::Alltoall`].
    pub op: JobOp,
    /// Bytes each node sends every other node. Default 64.
    pub block_bytes: usize,
    /// What the blocks carry. Default [`PayloadSpec::Pattern`].
    pub payload: PayloadSpec,
    /// Worker-thread override; `None` uses the engine's sizing.
    pub workers: Option<usize>,
    /// Failure policy. Default [`OnFailure::Abort`].
    pub on_failure: OnFailure,
    /// Injected faults, if any.
    pub fault: Option<FaultSpec>,
    /// Retry override, if any.
    pub retry: Option<RetrySpec>,
    /// Wall-clock deadline measured from dispatch, from
    /// `job.deadline_ms`. `None` falls back to the daemon's default
    /// (and is always clamped by its max).
    pub deadline: Option<Duration>,
}

impl Default for JobSpec {
    fn default() -> Self {
        Self {
            shape: vec![4, 4],
            op: JobOp::Alltoall,
            block_bytes: 64,
            payload: PayloadSpec::Pattern,
            workers: None,
            on_failure: OnFailure::Abort,
            fault: None,
            retry: None,
            deadline: None,
        }
    }
}

/// Reads `obj[key]` as a bounded uint; errors blame `label` (the
/// dotted path, which differs from `key` inside nested objects).
fn field_u64(obj: &Json, key: &str, label: &str, max: u64) -> Result<Option<u64>, SpecError> {
    match obj.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(v) => {
            let n = v
                .as_u64()
                .ok_or_else(|| SpecError::new(label, "must be a non-negative integer"))?;
            if n > max {
                return Err(SpecError::new(label, format!("must be at most {max}")));
            }
            Ok(Some(n))
        }
    }
}

fn field_rate(obj: &Json, key: &str, label: &str) -> Result<f64, SpecError> {
    match obj.get(key) {
        None | Some(Json::Null) => Ok(0.0),
        Some(v) => {
            let r = v
                .as_f64()
                .ok_or_else(|| SpecError::new(label, "must be a number"))?;
            if !(0.0..1.0).contains(&r) {
                return Err(SpecError::new(label, "must be in [0, 1)"));
            }
            Ok(r)
        }
    }
}

/// Parses the wire `op` object into a [`JobOp`], validating every part
/// against the job's shape and block size. Absent (or `null`) means
/// all-to-all, the pre-collectives wire default.
fn parse_op(value: Option<&Json>, num_nodes: u32, block_bytes: usize) -> Result<JobOp, SpecError> {
    let obj = match value {
        None | Some(Json::Null) => return Ok(JobOp::Alltoall),
        Some(v) => v,
    };
    check_known_fields(obj, "op", &["kind", "root", "reduce", "dtype"])?;
    let kind = obj
        .get("kind")
        .ok_or_else(|| SpecError::new("op.kind", "required when 'op' is given"))?
        .as_str()
        .ok_or_else(|| SpecError::new("op.kind", "must be a string"))?
        .to_string();
    if !JobOp::NAMES.contains(&kind.as_str()) {
        return Err(SpecError::new(
            "op.kind",
            format!("unknown op; allowed: {}", JobOp::NAMES.join(", ")),
        ));
    }
    let rooted = matches!(kind.as_str(), "broadcast" | "scatter" | "gather" | "reduce");
    let combining = matches!(kind.as_str(), "reduce" | "allreduce");
    let root = match obj.get("root") {
        None | Some(Json::Null) => 0,
        Some(_) if !rooted => {
            return Err(SpecError::new(
                "op.root",
                format!("op '{kind}' takes no root"),
            ))
        }
        Some(r) => {
            let n = r
                .as_u64()
                .filter(|&n| n <= u32::MAX as u64)
                .ok_or_else(|| SpecError::new("op.root", "must be a non-negative integer"))?
                as u32;
            if n >= num_nodes {
                return Err(SpecError::new(
                    "op.root",
                    format!("root {n} does not exist on a {num_nodes}-node torus"),
                ));
            }
            n
        }
    };
    let reduce = match obj.get("reduce") {
        None | Some(Json::Null) => ReduceOp::Sum,
        Some(_) if !combining => {
            return Err(SpecError::new(
                "op.reduce",
                format!("op '{kind}' takes no reduction operator"),
            ))
        }
        Some(r) => {
            let s = r
                .as_str()
                .ok_or_else(|| SpecError::new("op.reduce", "must be a string"))?;
            ReduceOp::parse(s).ok_or_else(|| {
                SpecError::new(
                    "op.reduce",
                    format!("unknown operator; allowed: {}", ReduceOp::NAMES.join(", ")),
                )
            })?
        }
    };
    let dtype = match obj.get("dtype") {
        None | Some(Json::Null) => Dtype::U64,
        Some(_) if !combining => {
            return Err(SpecError::new(
                "op.dtype",
                format!("op '{kind}' takes no dtype"),
            ))
        }
        Some(d) => {
            let s = d
                .as_str()
                .ok_or_else(|| SpecError::new("op.dtype", "must be a string"))?;
            Dtype::parse(s).ok_or_else(|| {
                SpecError::new(
                    "op.dtype",
                    format!("unknown dtype; allowed: {}", Dtype::NAMES.join(", ")),
                )
            })?
        }
    };
    if combining && !block_bytes.is_multiple_of(dtype.lane_bytes()) {
        return Err(SpecError::new(
            "op.dtype",
            format!(
                "block_bytes {block_bytes} is not a whole number of {} lanes ({} bytes each)",
                dtype.name(),
                dtype.lane_bytes()
            ),
        ));
    }
    if kind == "alltoall" {
        return Ok(JobOp::Alltoall);
    }
    Ok(JobOp::Collective(
        CollectiveOp::from_parts(&kind, root, reduce, dtype).expect("kind checked against NAMES"),
    ))
}

fn check_known_fields(obj: &Json, scope: &str, known: &[&str]) -> Result<(), SpecError> {
    let pairs = obj
        .as_obj()
        .ok_or_else(|| SpecError::new(scope, "must be a JSON object"))?;
    for (key, _) in pairs {
        if !known.contains(&key.as_str()) {
            let field = if scope.is_empty() {
                key.clone()
            } else {
                format!("{scope}.{key}")
            };
            return Err(SpecError::new(&field, "unknown field"));
        }
    }
    Ok(())
}

impl JobSpec {
    /// Parses and validates a spec from its wire form.
    pub fn from_json(value: &Json) -> Result<Self, SpecError> {
        check_known_fields(
            value,
            "",
            &[
                "shape",
                "op",
                "block_bytes",
                "seed",
                "payload",
                "workers",
                "on_failure",
                "fault",
                "retry",
                "job",
            ],
        )?;

        let shape_json = value
            .get("shape")
            .ok_or_else(|| SpecError::new("shape", "required"))?;
        let dims = shape_json
            .as_arr()
            .ok_or_else(|| SpecError::new("shape", "must be an array of extents"))?;
        let mut shape = Vec::with_capacity(dims.len());
        for d in dims {
            let extent = d
                .as_u64()
                .filter(|&e| e <= u32::MAX as u64)
                .ok_or_else(|| SpecError::new("shape", "extents must be positive integers"))?;
            shape.push(extent as u32);
        }
        // Reuse the topology crate's validation (dimension count, zero
        // extents, node-count cap) so the daemon and the library agree.
        let torus = TorusShape::new(&shape).map_err(|e| SpecError::new("shape", e.to_string()))?;

        let block_bytes = field_u64(value, "block_bytes", "block_bytes", MAX_BLOCK_BYTES as u64)?
            .unwrap_or(64) as usize;
        if block_bytes == 0 {
            return Err(SpecError::new("block_bytes", "must be at least 1"));
        }

        let payload = match (value.get("seed"), value.get("payload")) {
            (Some(_), Some(_)) => {
                return Err(SpecError::new(
                    "seed",
                    "give either 'seed' or 'payload', not both",
                ))
            }
            (Some(s), None) => PayloadSpec::Seeded {
                seed: s
                    .as_u64()
                    .ok_or_else(|| SpecError::new("seed", "must be a non-negative integer"))?,
            },
            (None, Some(p)) => match p.as_str() {
                Some("pattern") => PayloadSpec::Pattern,
                _ => return Err(SpecError::new("payload", "must be the string \"pattern\"")),
            },
            (None, None) => PayloadSpec::Pattern,
        };

        let workers =
            field_u64(value, "workers", "workers", MAX_WORKERS as u64)?.map(|w| w as usize);
        if workers == Some(0) {
            return Err(SpecError::new("workers", "must be at least 1"));
        }

        let on_failure = match value.get("on_failure") {
            None | Some(Json::Null) => OnFailure::Abort,
            Some(v) => {
                let s = v
                    .as_str()
                    .ok_or_else(|| SpecError::new("on_failure", "must be a string"))?;
                OnFailure::parse(s).map_err(|e| SpecError::new("on_failure", e))?
            }
        };

        let num_nodes = shape.iter().product::<u32>();
        let op = parse_op(value.get("op"), num_nodes, block_bytes)?;
        if op == JobOp::Alltoall {
            // The plan build's own check (dimension count, padded extents
            // the schedule's shift counters can hold).
            Exchange::new(&torus).map_err(|e| SpecError::new("shape", e.to_string()))?;
        }
        if matches!(op, JobOp::Collective(_)) && on_failure == OnFailure::Degrade {
            return Err(SpecError::new(
                "on_failure",
                "degraded mode is not supported for collective ops",
            ));
        }

        let fault = match value.get("fault") {
            None | Some(Json::Null) => None,
            Some(f) => {
                check_known_fields(
                    f,
                    "fault",
                    &[
                        "drop_rate",
                        "corrupt_rate",
                        "seed",
                        "worker_kill",
                        "worker_stall",
                    ],
                )?;
                let worker_kill = match f.get("worker_kill") {
                    None | Some(Json::Null) => None,
                    Some(wk) => {
                        let pair = wk.as_arr().filter(|a| a.len() == 2).ok_or_else(|| {
                            SpecError::new("fault.worker_kill", "must be [node, step]")
                        })?;
                        let node = pair[0]
                            .as_u64()
                            .filter(|&n| n <= u32::MAX as u64)
                            .ok_or_else(|| {
                                SpecError::new("fault.worker_kill", "node must be a u32")
                            })?;
                        let step = pair[1].as_u64().ok_or_else(|| {
                            SpecError::new("fault.worker_kill", "step must be an integer")
                        })?;
                        Some((node as u32, step as usize))
                    }
                };
                let worker_stall = match f.get("worker_stall") {
                    None | Some(Json::Null) => None,
                    Some(ws) => {
                        let triple = ws.as_arr().filter(|a| a.len() == 3).ok_or_else(|| {
                            SpecError::new("fault.worker_stall", "must be [node, step, micros]")
                        })?;
                        let node = triple[0]
                            .as_u64()
                            .filter(|&n| n <= u32::MAX as u64)
                            .ok_or_else(|| {
                                SpecError::new("fault.worker_stall", "node must be a u32")
                            })?;
                        let step = triple[1].as_u64().ok_or_else(|| {
                            SpecError::new("fault.worker_stall", "step must be an integer")
                        })?;
                        let micros = triple[2]
                            .as_u64()
                            .filter(|&us| us <= MAX_STALL_US)
                            .ok_or_else(|| {
                                SpecError::new(
                                    "fault.worker_stall",
                                    format!("micros must be at most {MAX_STALL_US}"),
                                )
                            })?;
                        Some((node as u32, step as usize, micros))
                    }
                };
                Some(FaultSpec {
                    drop_rate: field_rate(f, "drop_rate", "fault.drop_rate")?,
                    corrupt_rate: field_rate(f, "corrupt_rate", "fault.corrupt_rate")?,
                    seed: field_u64(f, "seed", "fault.seed", u64::MAX - 1)?.unwrap_or(0),
                    worker_kill,
                    worker_stall,
                })
            }
        };

        let retry = match value.get("retry") {
            None | Some(Json::Null) => None,
            Some(r) => {
                check_known_fields(r, "retry", &["deadline_ms", "max_retries", "backoff_us"])?;
                let deadline_ms =
                    field_u64(r, "deadline_ms", "retry.deadline_ms", 60_000)?.unwrap_or(500);
                if deadline_ms == 0 {
                    return Err(SpecError::new("retry.deadline_ms", "must be at least 1"));
                }
                Some(RetrySpec {
                    deadline_ms,
                    max_retries: field_u64(r, "max_retries", "retry.max_retries", 64)?.unwrap_or(4)
                        as u32,
                    backoff_us: field_u64(r, "backoff_us", "retry.backoff_us", 1_000_000)?
                        .unwrap_or(500),
                })
            }
        };

        let deadline = match value.get("job") {
            None | Some(Json::Null) => None,
            Some(j) => {
                check_known_fields(j, "job", &["deadline_ms"])?;
                let ms = field_u64(j, "deadline_ms", "job.deadline_ms", MAX_DEADLINE_MS)?;
                if ms == Some(0) {
                    return Err(SpecError::new("job.deadline_ms", "must be at least 1"));
                }
                ms.map(Duration::from_millis)
            }
        };

        Ok(Self {
            shape,
            op,
            block_bytes,
            payload,
            workers,
            on_failure,
            fault,
            retry,
            deadline,
        })
    }

    /// The spec's wire form (inverse of [`from_json`](Self::from_json)).
    pub fn to_json(&self) -> Json {
        let mut pairs: Vec<(String, Json)> = vec![
            (
                "shape".to_string(),
                Json::Arr(self.shape.iter().map(|&d| Json::u64(d as u64)).collect()),
            ),
            (
                "block_bytes".to_string(),
                Json::u64(self.block_bytes as u64),
            ),
        ];
        // The op object is emitted only for collectives, so journals
        // written before (and specs without) collectives stay
        // byte-identical to the all-to-all wire form.
        if let JobOp::Collective(op) = self.op {
            let mut parts: Vec<(String, Json)> = vec![("kind".to_string(), Json::str(op.kind()))];
            if let Some(root) = op.root() {
                parts.push(("root".to_string(), Json::u64(root as u64)));
            }
            if let Some((reduce, dtype)) = op.reduce() {
                parts.push(("reduce".to_string(), Json::str(reduce.name())));
                parts.push(("dtype".to_string(), Json::str(dtype.name())));
            }
            pairs.push(("op".to_string(), Json::Obj(parts)));
        }
        match self.payload {
            PayloadSpec::Pattern => pairs.push(("payload".to_string(), Json::str("pattern"))),
            PayloadSpec::Seeded { seed } => pairs.push(("seed".to_string(), Json::u64(seed))),
        }
        if let Some(w) = self.workers {
            pairs.push(("workers".to_string(), Json::u64(w as u64)));
        }
        if self.on_failure != OnFailure::Abort {
            pairs.push((
                "on_failure".to_string(),
                Json::str(self.on_failure.to_string()),
            ));
        }
        if let Some(f) = &self.fault {
            let mut fp: Vec<(String, Json)> = vec![
                ("drop_rate".to_string(), Json::Num(f.drop_rate)),
                ("corrupt_rate".to_string(), Json::Num(f.corrupt_rate)),
                ("seed".to_string(), Json::u64(f.seed)),
            ];
            if let Some((node, step)) = f.worker_kill {
                fp.push((
                    "worker_kill".to_string(),
                    Json::Arr(vec![Json::u64(node as u64), Json::u64(step as u64)]),
                ));
            }
            if let Some((node, step, micros)) = f.worker_stall {
                fp.push((
                    "worker_stall".to_string(),
                    Json::Arr(vec![
                        Json::u64(node as u64),
                        Json::u64(step as u64),
                        Json::u64(micros),
                    ]),
                ));
            }
            pairs.push(("fault".to_string(), Json::Obj(fp)));
        }
        if let Some(r) = &self.retry {
            pairs.push((
                "retry".to_string(),
                Json::Obj(vec![
                    ("deadline_ms".to_string(), Json::u64(r.deadline_ms)),
                    ("max_retries".to_string(), Json::u64(r.max_retries as u64)),
                    ("backoff_us".to_string(), Json::u64(r.backoff_us)),
                ]),
            ));
        }
        if let Some(d) = self.deadline {
            pairs.push((
                "job".to_string(),
                Json::Obj(vec![(
                    "deadline_ms".to_string(),
                    Json::u64(d.as_millis() as u64),
                )]),
            ));
        }
        Json::Obj(pairs)
    }

    /// The validated torus shape.
    pub(crate) fn torus_shape(&self) -> TorusShape {
        TorusShape::new(&self.shape).expect("validated at parse time")
    }

    /// Lowers the spec into the runtime knobs the engine executes.
    pub fn runtime_config(&self) -> RuntimeConfig {
        let mut cfg = RuntimeConfig::default()
            .with_block_bytes(self.block_bytes)
            .with_on_failure(self.on_failure);
        if let Some(w) = self.workers {
            cfg = cfg.with_workers(w);
        }
        if let Some(f) = &self.fault {
            let mut plan = FaultPlan::seeded(f.seed)
                .with_drop_rate(f.drop_rate)
                .with_corrupt_rate(f.corrupt_rate);
            if let Some((node, step)) = f.worker_kill {
                plan = plan.with_worker_fault(step, node, WorkerFaultKind::Kill);
            }
            if let Some((node, step, micros)) = f.worker_stall {
                plan = plan.with_worker_fault(step, node, WorkerFaultKind::StallMicros(micros));
            }
            cfg = cfg.with_faults(plan);
        }
        if let Some(r) = &self.retry {
            cfg = cfg.with_retry(
                RetryPolicy::default()
                    .with_deadline(Duration::from_millis(r.deadline_ms))
                    .with_max_retries(r.max_retries)
                    .with_backoff(Duration::from_micros(r.backoff_us)),
            );
        }
        cfg
    }

    /// A machine-readable description of every accepted field, served by
    /// the daemon's `schema` op so clients can discover the contract.
    pub fn schema() -> Json {
        Json::obj([
            (
                "shape",
                Json::str("required: array of torus extents, e.g. [4,4]; product bounded by the topology crate"),
            ),
            (
                "op",
                Json::str(format!(
                    "optional object {{kind one of: {}; root uint < nodes (broadcast/scatter/gather/reduce); \
                     reduce one of: {} and dtype one of: {} (reduce/allreduce, block_bytes must be \
                     a whole number of lanes)}}; absent means alltoall",
                    JobOp::NAMES.join(", "),
                    ReduceOp::NAMES.join(", "),
                    Dtype::NAMES.join(", "),
                )),
            ),
            (
                "block_bytes",
                Json::str(format!(
                    "optional uint, default 64, range 1..={MAX_BLOCK_BYTES}: bytes per (src,dst) block"
                )),
            ),
            (
                "seed",
                Json::str("optional uint: per-job seeded payload stream (exclusive with 'payload')"),
            ),
            (
                "payload",
                Json::str("optional, only \"pattern\": the shared deterministic pattern stream"),
            ),
            (
                "workers",
                Json::str(format!("optional uint 1..={MAX_WORKERS}: worker-thread override")),
            ),
            (
                "on_failure",
                Json::str("optional, \"abort\" (default) or \"degrade\""),
            ),
            (
                "fault",
                Json::str("optional object {drop_rate, corrupt_rate in [0,1); seed uint; worker_kill [node, step]; worker_stall [node, step, micros]}"),
            ),
            (
                "retry",
                Json::str("optional object {deadline_ms 1..=60000, max_retries 0..=64, backoff_us 0..=1000000}"),
            ),
            (
                "job",
                Json::str(format!(
                    "optional object {{deadline_ms 1..={MAX_DEADLINE_MS}: wall-clock deadline from dispatch; clamped by the daemon's max}}"
                )),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    fn spec(text: &str) -> Result<JobSpec, SpecError> {
        JobSpec::from_json(&parse(text).unwrap())
    }

    #[test]
    fn minimal_spec_uses_defaults() {
        let s = spec(r#"{"shape":[4,4]}"#).unwrap();
        assert_eq!(s.block_bytes, 64);
        assert_eq!(s.payload, PayloadSpec::Pattern);
        assert_eq!(s.on_failure, OnFailure::Abort);
        assert_eq!(s.deadline, None);
        assert_eq!(s.torus_shape().num_nodes(), 16);
    }

    #[test]
    fn full_spec_round_trips_through_json() {
        let s = spec(
            r#"{"shape":[2,3,4],"block_bytes":96,"seed":9,"workers":3,
                "on_failure":"degrade",
                "fault":{"drop_rate":0.1,"corrupt_rate":0.05,"seed":7,"worker_kill":[1,3],
                         "worker_stall":[2,1,5000]},
                "retry":{"deadline_ms":50,"max_retries":2,"backoff_us":300},
                "job":{"deadline_ms":2500}}"#,
        )
        .unwrap();
        assert_eq!(s.payload, PayloadSpec::Seeded { seed: 9 });
        assert_eq!(s.fault.as_ref().unwrap().worker_kill, Some((1, 3)));
        assert_eq!(s.fault.as_ref().unwrap().worker_stall, Some((2, 1, 5000)));
        assert_eq!(s.deadline, Some(Duration::from_millis(2500)));
        let round = JobSpec::from_json(&s.to_json()).unwrap();
        assert_eq!(round, s);
    }

    #[test]
    fn rejections_name_the_field() {
        for (text, field) in [
            (r#"{}"#, "shape"),
            (r#"{"shape":"4x4"}"#, "shape"),
            (r#"{"shape":[4,0]}"#, "shape"),
            (r#"{"shape":[1028,4]}"#, "shape"),
            (r#"{"shape":[4,4],"block_bytes":0}"#, "block_bytes"),
            (r#"{"shape":[4,4],"block_bytes":99999999}"#, "block_bytes"),
            (r#"{"shape":[4,4],"seed":-1}"#, "seed"),
            (r#"{"shape":[4,4],"seed":1,"payload":"pattern"}"#, "seed"),
            (r#"{"shape":[4,4],"payload":"noise"}"#, "payload"),
            (r#"{"shape":[4,4],"workers":0}"#, "workers"),
            (r#"{"shape":[4,4],"on_failure":"explode"}"#, "on_failure"),
            (r#"{"shape":[4,4],"turbo":true}"#, "turbo"),
            (
                r#"{"shape":[4,4],"fault":{"drop_rate":1.5}}"#,
                "fault.drop_rate",
            ),
            (r#"{"shape":[4,4],"fault":{"zap":1}}"#, "fault.zap"),
            (
                r#"{"shape":[4,4],"fault":{"worker_kill":[1]}}"#,
                "fault.worker_kill",
            ),
            (
                r#"{"shape":[4,4],"fault":{"worker_stall":[1,2]}}"#,
                "fault.worker_stall",
            ),
            (
                r#"{"shape":[4,4],"fault":{"worker_stall":[1,2,999999999999]}}"#,
                "fault.worker_stall",
            ),
            (
                r#"{"shape":[4,4],"job":{"deadline_ms":0}}"#,
                "job.deadline_ms",
            ),
            (
                r#"{"shape":[4,4],"job":{"deadline_ms":99999999999}}"#,
                "job.deadline_ms",
            ),
            (
                r#"{"shape":[4,4],"job":{"retry_after":1}}"#,
                "job.retry_after",
            ),
            (
                r#"{"shape":[4,4],"retry":{"deadline_ms":0}}"#,
                "retry.deadline_ms",
            ),
            (
                r#"{"shape":[4,4],"retry":{"deadline_ms":600000}}"#,
                "retry.deadline_ms",
            ),
        ] {
            let err = spec(text).unwrap_err();
            assert_eq!(err.field, field, "spec {text} blamed {:?}", err.field);
        }
    }

    #[test]
    fn collective_ops_parse_and_round_trip() {
        let s = spec(r#"{"shape":[4,4],"op":{"kind":"broadcast","root":5}}"#).unwrap();
        assert_eq!(s.op, JobOp::Collective(CollectiveOp::Broadcast { root: 5 }));
        let round = JobSpec::from_json(&s.to_json()).unwrap();
        assert_eq!(round, s);

        let s = spec(
            r#"{"shape":[2,3],"block_bytes":32,
                "op":{"kind":"allreduce","reduce":"max","dtype":"f32"}}"#,
        )
        .unwrap();
        assert_eq!(
            s.op,
            JobOp::Collective(CollectiveOp::Allreduce {
                op: ReduceOp::Max,
                dtype: Dtype::F32,
            })
        );
        assert_eq!(JobSpec::from_json(&s.to_json()).unwrap(), s);

        // Defaults: root 0, reduce sum, dtype u64; explicit alltoall.
        let s = spec(r#"{"shape":[4,4],"op":{"kind":"reduce"}}"#).unwrap();
        assert_eq!(
            s.op,
            JobOp::Collective(CollectiveOp::Reduce {
                root: 0,
                op: ReduceOp::Sum,
                dtype: Dtype::U64,
            })
        );
        let s = spec(r#"{"shape":[4,4],"op":{"kind":"alltoall"}}"#).unwrap();
        assert_eq!(s.op, JobOp::Alltoall);
        // Alltoall emits no op object, so old journals replay unchanged.
        assert!(s.to_json().get("op").is_none());
    }

    #[test]
    fn malformed_ops_are_typed_rejections() {
        for (text, field) in [
            (r#"{"shape":[4,4],"op":"broadcast"}"#, "op"),
            (r#"{"shape":[4,4],"op":{}}"#, "op.kind"),
            (r#"{"shape":[4,4],"op":{"kind":"transpose"}}"#, "op.kind"),
            (r#"{"shape":[4,4],"op":{"kind":7}}"#, "op.kind"),
            (
                r#"{"shape":[4,4],"op":{"kind":"broadcast","root":16}}"#,
                "op.root",
            ),
            (
                r#"{"shape":[4,4],"op":{"kind":"broadcast","root":-1}}"#,
                "op.root",
            ),
            (
                r#"{"shape":[4,4],"op":{"kind":"allgather","root":0}}"#,
                "op.root",
            ),
            (
                r#"{"shape":[4,4],"op":{"kind":"reduce","reduce":"xor"}}"#,
                "op.reduce",
            ),
            (
                r#"{"shape":[4,4],"op":{"kind":"broadcast","reduce":"sum"}}"#,
                "op.reduce",
            ),
            (
                r#"{"shape":[4,4],"op":{"kind":"allreduce","dtype":"f64"}}"#,
                "op.dtype",
            ),
            (
                r#"{"shape":[4,4],"op":{"kind":"gather","dtype":"u64"}}"#,
                "op.dtype",
            ),
            (
                r#"{"shape":[4,4],"block_bytes":12,"op":{"kind":"allreduce"}}"#,
                "op.dtype",
            ),
            (
                r#"{"shape":[4,4],"op":{"kind":"broadcast","turbo":1}}"#,
                "op.turbo",
            ),
            (
                r#"{"shape":[4,4],"on_failure":"degrade","op":{"kind":"broadcast"}}"#,
                "on_failure",
            ),
        ] {
            let err = spec(text).unwrap_err();
            assert_eq!(err.field, field, "spec {text} blamed {:?}", err.field);
        }
    }

    #[test]
    fn runtime_config_carries_the_knobs() {
        let s = spec(
            r#"{"shape":[4,4],"block_bytes":32,"workers":2,"on_failure":"degrade",
                "fault":{"worker_kill":[1,3]},"retry":{"deadline_ms":20}}"#,
        )
        .unwrap();
        let cfg = s.runtime_config();
        assert_eq!(cfg.block_bytes, 32);
        assert_eq!(cfg.workers, Some(2));
        assert_eq!(cfg.on_failure, OnFailure::Degrade);
        assert_eq!(cfg.retry.deadline, std::time::Duration::from_millis(20));
    }

    #[test]
    fn schema_mentions_every_field() {
        let schema = JobSpec::schema();
        for field in [
            "shape",
            "block_bytes",
            "seed",
            "payload",
            "workers",
            "on_failure",
            "fault",
            "retry",
            "job",
        ] {
            assert!(schema.get(field).is_some(), "schema missing {field}");
        }
    }
}
