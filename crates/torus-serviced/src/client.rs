//! Client library for the daemon's wire protocol.
//!
//! One [`Client`] owns one connection. Because `submit` streams
//! (`accepted` now, `status`/`done` later) while other requests are
//! strict request/response, events for in-flight jobs can interleave
//! with the reply the caller is waiting for. The client routes instead
//! of assuming order: `status` events accumulate in a per-job trace
//! (kept for the [`STATUS_TRACE_JOBS`] most recent jobs),
//! `done` events park in a buffer until [`Client::wait_done`] claims
//! them, and everything else is handed to whichever call is pending.

use std::collections::{BTreeMap, HashMap};
use std::io::{self, BufRead, BufReader, ErrorKind, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use crate::json::Json;
use crate::spec::JobSpec;

/// Every client's read timeout. Generous — drains of deep queues
/// legitimately take a while — but finite, so a wedged daemon fails a
/// test instead of hanging it.
pub const DEFAULT_READ_TIMEOUT: Duration = Duration::from_secs(120);

/// Jobs per connection whose status trace [`Client::status_trace`] keeps;
/// past this the oldest (lowest-id: a daemon's job ids only grow) job's
/// trace is evicted, so a long-lived connection's memory does not grow
/// with the jobs it has seen.
pub const STATUS_TRACE_JOBS: usize = 1024;

/// The final `done` event for one job, decoded.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DoneEvent {
    /// Engine-assigned job id.
    pub job_id: u64,
    /// `true` when the job finished without error.
    pub ok: bool,
    /// `true` when the job completed in degraded mode (dead nodes
    /// quarantined, survivors exchanged).
    pub degraded: bool,
    /// The runtime's own end-to-end verification verdict.
    pub verified: bool,
    /// Whether the exchange plan came from the engine's cache.
    pub cache_hit: bool,
    /// Bytes the exchange put on the (simulated) wire.
    pub wire_bytes: u64,
    /// The delivery digest of the delivered blocks
    /// ([`torus_runtime::digest`]), hex; `None` for degraded or failed
    /// runs.
    pub checksum: Option<String>,
    /// Failure description when `ok` is false.
    pub error: Option<String>,
    /// Terminal state token: `"completed"`, `"failed"`, `"cancelled"`,
    /// or `"deadline_exceeded"`. Derived from `ok` when talking to a
    /// daemon predating the field.
    pub state: String,
}

impl DoneEvent {
    fn from_json(event: &Json) -> Result<Self, ClientError> {
        let field = |k: &str| {
            event
                .get(k)
                .ok_or_else(|| ClientError::Protocol(format!("done event missing {k:?}")))
        };
        let ok = field("ok")?.as_bool().unwrap_or(false);
        Ok(Self {
            job_id: field("job_id")?
                .as_u64()
                .ok_or_else(|| ClientError::Protocol("done.job_id not a u64".into()))?,
            ok,
            degraded: field("degraded")?.as_bool().unwrap_or(false),
            verified: field("verified")?.as_bool().unwrap_or(false),
            cache_hit: field("cache_hit")?.as_bool().unwrap_or(false),
            wire_bytes: field("wire_bytes")?.as_u64().unwrap_or(0),
            checksum: field("checksum")?.as_str().map(str::to_string),
            error: field("error")?.as_str().map(str::to_string),
            state: event
                .get("state")
                .and_then(Json::as_str)
                .map(str::to_string)
                .unwrap_or_else(|| if ok { "completed" } else { "failed" }.to_string()),
        })
    }
}

/// Everything that can go wrong talking to the daemon.
#[derive(Debug)]
pub enum ClientError {
    /// Socket-level failure (includes read timeouts).
    Io(io::Error),
    /// The connection died mid-conversation — EOF, `ECONNRESET`, or a
    /// broken pipe, typically a daemon crash. Distinct from [`Io`](Self::Io)
    /// so retry logic can reconnect and *resume* via the `status` op
    /// (on a journaling daemon the job survived) instead of blindly
    /// resubmitting and double-running the job.
    Disconnected {
        /// A one-line description of the last streamed event seen
        /// before the connection died (e.g. `"status job 3: running"`),
        /// when any arrived.
        last_event: Option<String>,
    },
    /// The daemon sent something the client could not interpret.
    Protocol(String),
    /// The daemon refused the request with a typed reason
    /// (`queue_full`, `tenant_queue_full`, `rate_limited`,
    /// `invalid_spec`, `draining`, `unauthenticated`).
    Rejected {
        /// Stable machine-readable reason token.
        reason: String,
        /// Human-readable elaboration.
        detail: String,
        /// The daemon's backoff hint, present on overload rejections;
        /// [`Client::submit_with_retry`] honors it.
        retry_after_ms: Option<u64>,
    },
    /// The daemon answered with an `error` event (malformed request).
    Daemon(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Io(e) => write!(f, "i/o error: {e}"),
            Self::Disconnected { last_event } => match last_event {
                Some(ev) => write!(f, "connection lost (last event: {ev})"),
                None => write!(f, "connection lost"),
            },
            Self::Protocol(m) => write!(f, "protocol error: {m}"),
            Self::Rejected { reason, detail, .. } => {
                write!(f, "rejected ({reason}): {detail}")
            }
            Self::Daemon(m) => write!(f, "daemon error: {m}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        Self::Io(e)
    }
}

/// The decoded reply to a `status` lookup (`ev:"job_status"`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JobStatusReply {
    /// The queried job id.
    pub job_id: u64,
    /// `"queued"`, `"running"`, `"completed"`, `"failed"`,
    /// `"cancelled"`, `"deadline_exceeded"`, or `"unknown"`.
    pub state: String,
    /// Terminal outcome, when the job is terminal.
    pub ok: Option<bool>,
    /// Whether the run completed degraded, when terminal.
    pub degraded: Option<bool>,
    /// The delivery digest (hex), when recorded: `None` for degraded or
    /// failed runs, and for jobs recovered from a version-1 journal.
    pub checksum: Option<String>,
    /// The failure description, when the job failed.
    pub error: Option<String>,
    /// `true` when the answer came from a recovered journal rather
    /// than a job this daemon process executed.
    pub recovered: bool,
}

/// The decoded reply to a `cancel` op (`ev:"cancel"`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CancelReply {
    /// The job the cancel addressed.
    pub job_id: u64,
    /// Stable outcome token: `"cancelled"` (was queued, now terminal),
    /// `"cancelling"` (running; its `done` will report
    /// `state:"cancelled"`), `"already_terminal"`, `"forbidden"`
    /// (another tenant's job), or `"unknown"`.
    pub outcome: String,
    /// For `already_terminal`, the recorded terminal state when known.
    pub state: Option<String>,
}

/// One connection to a running daemon.
pub struct Client {
    reader: BufReader<TcpStream>,
    /// `done` events read while waiting for something else, keyed by
    /// job id, until `wait_done` collects them.
    parked_done: HashMap<u64, DoneEvent>,
    /// Every `status` state seen per job, in arrival order (duplicates
    /// from heartbeats collapsed), for the most recent
    /// [`STATUS_TRACE_JOBS`] jobs, ordered by id for eviction.
    status_trace: BTreeMap<u64, Vec<String>>,
    /// One-line description of the last streamed event, carried in
    /// [`ClientError::Disconnected`] when the connection dies.
    last_event: Option<String>,
}

impl Client {
    /// Connects; does not authenticate (see [`Client::hello`]). Reads
    /// time out after [`DEFAULT_READ_TIMEOUT`].
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(DEFAULT_READ_TIMEOUT))?;
        stream.set_nodelay(true).ok();
        Ok(Self {
            reader: BufReader::new(stream),
            parked_done: HashMap::new(),
            status_trace: BTreeMap::new(),
            last_event: None,
        })
    }

    /// Classifies a socket error: a dead peer becomes `Disconnected`
    /// (carrying the last streamed event), everything else stays `Io`.
    fn map_io(&self, e: io::Error) -> ClientError {
        match e.kind() {
            ErrorKind::ConnectionReset
            | ErrorKind::ConnectionAborted
            | ErrorKind::BrokenPipe
            | ErrorKind::UnexpectedEof => ClientError::Disconnected {
                last_event: self.last_event.clone(),
            },
            _ => ClientError::Io(e),
        }
    }

    fn send_line(&mut self, request: &Json) -> Result<(), ClientError> {
        let mut line = request.dump();
        line.push('\n');
        self.reader
            .get_mut()
            .write_all(line.as_bytes())
            .map_err(|e| self.map_io(e))
    }

    /// Reads the next event of any kind.
    fn read_event(&mut self) -> Result<Json, ClientError> {
        let mut line = String::new();
        let n = self
            .reader
            .read_line(&mut line)
            .map_err(|e| self.map_io(e))?;
        if n == 0 {
            // EOF mid-conversation: the daemon is gone (crash or kill),
            // not merely misbehaving.
            return Err(ClientError::Disconnected {
                last_event: self.last_event.clone(),
            });
        }
        crate::json::parse(line.trim_end())
            .map_err(|e| ClientError::Protocol(format!("unparseable event: {e}")))
    }

    /// Reads until a non-streaming event arrives, parking `status` and
    /// `done` events for their jobs along the way.
    fn next_reply(&mut self) -> Result<Json, ClientError> {
        loop {
            let event = self.read_event()?;
            match event.get("ev").and_then(Json::as_str) {
                Some("status") => self.record_status(&event),
                Some("done") => {
                    let done = DoneEvent::from_json(&event)?;
                    self.last_event = Some(format!("done job {}", done.job_id));
                    self.parked_done.insert(done.job_id, done);
                }
                Some(_) => return Ok(event),
                None => {
                    return Err(ClientError::Protocol(format!(
                        "event without 'ev': {}",
                        event.dump()
                    )))
                }
            }
        }
    }

    fn record_status(&mut self, event: &Json) {
        let (Some(id), Some(state)) = (
            event.get("job_id").and_then(Json::as_u64),
            event.get("state").and_then(Json::as_str),
        ) else {
            return;
        };
        self.last_event = Some(format!("status job {id}: {state}"));
        let trace = self.status_trace.entry(id).or_default();
        if trace.last().map(String::as_str) != Some(state) {
            trace.push(state.to_string());
        }
        if self.status_trace.len() > STATUS_TRACE_JOBS {
            self.status_trace.pop_first();
        }
    }

    /// Converts a reply into `Err` when it is `rejected` or `error`.
    fn expect_ev(&mut self, want: &str) -> Result<Json, ClientError> {
        let event = self.next_reply()?;
        match event.get("ev").and_then(Json::as_str) {
            Some(ev) if ev == want => Ok(event),
            Some("rejected") => Err(ClientError::Rejected {
                reason: event
                    .get("reason")
                    .and_then(Json::as_str)
                    .unwrap_or("unknown")
                    .to_string(),
                detail: event
                    .get("detail")
                    .and_then(Json::as_str)
                    .unwrap_or_default()
                    .to_string(),
                retry_after_ms: event.get("retry_after_ms").and_then(Json::as_u64),
            }),
            Some("error") => Err(ClientError::Daemon(
                event
                    .get("message")
                    .and_then(Json::as_str)
                    .unwrap_or("unspecified")
                    .to_string(),
            )),
            _ => Err(ClientError::Protocol(format!(
                "expected {want:?}, got {}",
                event.dump()
            ))),
        }
    }

    /// Authenticates the connection as `tenant`. Must precede submits.
    pub fn hello(&mut self, tenant: &str) -> Result<(), ClientError> {
        self.send_line(&Json::obj([
            ("op", Json::str("hello")),
            ("tenant", Json::str(tenant)),
        ]))?;
        self.expect_ev("hello_ok").map(|_| ())
    }

    /// Submits a job, returning its id once the daemon accepts it. The
    /// job then runs asynchronously; collect it with
    /// [`Client::wait_done`].
    pub fn submit(&mut self, spec: &JobSpec) -> Result<u64, ClientError> {
        self.submit_raw(spec.to_json())
    }

    /// Submits a raw spec object verbatim — lets tests send invalid
    /// specs through the real admission path.
    pub fn submit_raw(&mut self, spec: Json) -> Result<u64, ClientError> {
        self.send_line(&Json::obj([("op", Json::str("submit")), ("spec", spec)]))?;
        let event = self.expect_ev("accepted")?;
        event
            .get("job_id")
            .and_then(Json::as_u64)
            .ok_or_else(|| ClientError::Protocol("accepted without job_id".into()))
    }

    /// Pipelines `specs` down the socket as one burst — every `submit`
    /// line is written before any reply is read — then collects the
    /// replies in order. This is how a latency-insensitive producer
    /// should talk to the daemon: parked submits arriving within one
    /// reactor iteration share a single journal group-commit, so the
    /// fsync cost amortizes across the burst. Returns one result per
    /// spec, `Ok(job_id)` or the typed rejection, in submission order;
    /// socket-level failures abort the whole call.
    pub fn submit_batch(
        &mut self,
        specs: &[JobSpec],
    ) -> Result<Vec<Result<u64, ClientError>>, ClientError> {
        let raw: Vec<Json> = specs.iter().map(JobSpec::to_json).collect();
        self.submit_batch_raw(&raw)
    }

    /// [`Client::submit_batch`] over raw spec objects sent verbatim —
    /// lets tests pipeline bursts that mix valid and invalid specs
    /// through the real admission path and check that each positional
    /// reply lands on the spec that caused it.
    pub fn submit_batch_raw(
        &mut self,
        specs: &[Json],
    ) -> Result<Vec<Result<u64, ClientError>>, ClientError> {
        let mut burst = String::new();
        for spec in specs {
            burst
                .push_str(&Json::obj([("op", Json::str("submit")), ("spec", spec.clone())]).dump());
            burst.push('\n');
        }
        self.reader
            .get_mut()
            .write_all(burst.as_bytes())
            .map_err(|e| self.map_io(e))?;
        let mut replies = Vec::with_capacity(specs.len());
        for _ in specs {
            let reply = self.expect_ev("accepted").and_then(|event| {
                event
                    .get("job_id")
                    .and_then(Json::as_u64)
                    .ok_or_else(|| ClientError::Protocol("accepted without job_id".into()))
            });
            match reply {
                Ok(id) => replies.push(Ok(id)),
                Err(rej @ ClientError::Rejected { .. }) => replies.push(Err(rej)),
                Err(fatal) => return Err(fatal),
            }
        }
        Ok(replies)
    }

    /// Submits with bounded-jitter exponential backoff on overload:
    /// `queue_full`, `tenant_queue_full`, and `rate_limited` rejections
    /// are retried up to `max_attempts` times, sleeping the daemon's
    /// `retry_after_ms` hint (or a doubling fallback when absent, the
    /// base capped at 5 s) plus deterministic jitter in `[0%, +50%]` of
    /// the base. The wait is never shorter than the hint: the engine
    /// computes it exactly, so a shorter wait would arrive early and be
    /// refused again. Every other error — including the final overload
    /// rejection — propagates unchanged, so overload degrades to slower
    /// admission rather than hard failure.
    pub fn submit_with_retry(
        &mut self,
        spec: &JobSpec,
        max_attempts: u32,
    ) -> Result<u64, ClientError> {
        let max_attempts = max_attempts.max(1);
        // Deterministic jitter (an LCG stepped per retry): calibrated
        // backoff without pulling in a clock or an RNG dependency, and
        // reproducible in tests.
        let mut rng: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut fallback_ms: u64 = 10;
        for attempt in 1..=max_attempts {
            match self.submit(spec) {
                Ok(id) => return Ok(id),
                Err(ClientError::Rejected {
                    reason,
                    detail,
                    retry_after_ms,
                }) => {
                    let overload = matches!(
                        reason.as_str(),
                        "queue_full" | "tenant_queue_full" | "rate_limited"
                    );
                    if !overload || attempt == max_attempts {
                        return Err(ClientError::Rejected {
                            reason,
                            detail,
                            retry_after_ms,
                        });
                    }
                    let base = retry_after_ms.unwrap_or(fallback_ms).clamp(1, 5_000);
                    rng = rng
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    let jitter = (rng >> 33) % (base / 2 + 1);
                    std::thread::sleep(Duration::from_millis(base + jitter));
                    fallback_ms = (fallback_ms * 2).min(5_000);
                }
                Err(other) => return Err(other),
            }
        }
        unreachable!("loop returns on the final attempt")
    }

    /// Looks up one job by id — including, on a journaling daemon, jobs
    /// accepted by a pre-crash process this client never talked to.
    pub fn status(&mut self, job_id: u64) -> Result<JobStatusReply, ClientError> {
        self.send_line(&Json::obj([
            ("op", Json::str("status")),
            ("job_id", Json::u64(job_id)),
        ]))?;
        let event = self.expect_ev("job_status")?;
        Ok(JobStatusReply {
            job_id: event
                .get("job_id")
                .and_then(Json::as_u64)
                .ok_or_else(|| ClientError::Protocol("job_status without job_id".into()))?,
            state: event
                .get("state")
                .and_then(Json::as_str)
                .ok_or_else(|| ClientError::Protocol("job_status without state".into()))?
                .to_string(),
            ok: event.get("ok").and_then(Json::as_bool),
            degraded: event.get("degraded").and_then(Json::as_bool),
            checksum: event
                .get("checksum")
                .and_then(Json::as_str)
                .map(str::to_string),
            error: event
                .get("error")
                .and_then(Json::as_str)
                .map(str::to_string),
            recovered: event
                .get("recovered")
                .and_then(Json::as_bool)
                .unwrap_or(false),
        })
    }

    /// Cancels one job by id. Only jobs submitted by this connection's
    /// tenant are cancellable; a `cancelling` outcome means the job is
    /// running and its `done` event (with `state:"cancelled"`) follows
    /// on the submitting connection.
    pub fn cancel(&mut self, job_id: u64) -> Result<CancelReply, ClientError> {
        self.send_line(&Json::obj([
            ("op", Json::str("cancel")),
            ("job_id", Json::u64(job_id)),
        ]))?;
        let event = self.expect_ev("cancel")?;
        Ok(CancelReply {
            job_id: event
                .get("job_id")
                .and_then(Json::as_u64)
                .ok_or_else(|| ClientError::Protocol("cancel without job_id".into()))?,
            outcome: event
                .get("outcome")
                .and_then(Json::as_str)
                .ok_or_else(|| ClientError::Protocol("cancel without outcome".into()))?
                .to_string(),
            state: event
                .get("state")
                .and_then(Json::as_str)
                .map(str::to_string),
        })
    }

    /// Blocks until `job_id`'s `done` event arrives (tolerating any
    /// interleaved events for other jobs) and returns it.
    pub fn wait_done(&mut self, job_id: u64) -> Result<DoneEvent, ClientError> {
        loop {
            if let Some(done) = self.parked_done.remove(&job_id) {
                return Ok(done);
            }
            let event = self.read_event()?;
            match event.get("ev").and_then(Json::as_str) {
                Some("status") => self.record_status(&event),
                Some("done") => {
                    let done = DoneEvent::from_json(&event)?;
                    self.last_event = Some(format!("done job {}", done.job_id));
                    self.parked_done.insert(done.job_id, done);
                }
                Some(other) => {
                    return Err(ClientError::Protocol(format!(
                        "unexpected {other:?} event while waiting for job {job_id}"
                    )))
                }
                None => {
                    return Err(ClientError::Protocol(format!(
                        "event without 'ev': {}",
                        event.dump()
                    )))
                }
            }
        }
    }

    /// The distinct status states seen for `job_id`, in order. Empty once
    /// [`STATUS_TRACE_JOBS`] newer jobs have been traced on this
    /// connection.
    pub fn status_trace(&self, job_id: u64) -> &[String] {
        self.status_trace.get(&job_id).map_or(&[], Vec::as_slice)
    }

    /// Fetches the `stats` event (service aggregate + per-tenant).
    pub fn stats(&mut self) -> Result<Json, ClientError> {
        self.send_line(&Json::obj([("op", Json::str("stats"))]))?;
        self.expect_ev("stats")
    }

    /// Validates a spec server-side; returns the normalized form.
    pub fn validate(&mut self, spec: Json) -> Result<Json, ClientError> {
        self.send_line(&Json::obj([("op", Json::str("validate")), ("spec", spec)]))?;
        let event = self.expect_ev("valid")?;
        event
            .get("spec")
            .cloned()
            .ok_or_else(|| ClientError::Protocol("valid without spec".into()))
    }

    /// Fetches the daemon's job-spec schema.
    pub fn schema(&mut self) -> Result<Json, ClientError> {
        self.send_line(&Json::obj([("op", Json::str("schema"))]))?;
        let event = self.expect_ev("schema")?;
        event
            .get("spec")
            .cloned()
            .ok_or_else(|| ClientError::Protocol("schema without spec".into()))
    }

    /// Asks the daemon to drain and shut down; blocks until every
    /// admitted job finishes, then returns the final service stats
    /// object. Jobs submitted on this connection get their `done`
    /// events parked as usual, so `wait_done` still works afterwards.
    pub fn drain(&mut self) -> Result<Json, ClientError> {
        self.send_line(&Json::obj([("op", Json::str("drain"))]))?;
        let event = self.expect_ev("drained")?;
        event
            .get("service")
            .cloned()
            .ok_or_else(|| ClientError::Protocol("drained without service".into()))
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> Result<(), ClientError> {
        self.send_line(&Json::obj([("op", Json::str("ping"))]))?;
        self.expect_ev("pong").map(|_| ())
    }

    /// Sends raw bytes down the socket — for protocol-robustness tests
    /// that need to speak garbage.
    pub fn send_raw_bytes(&mut self, bytes: &[u8]) -> Result<(), ClientError> {
        self.reader.get_mut().write_all(bytes)?;
        Ok(())
    }

    /// Reads one event without interpretation — paired with
    /// [`Client::send_raw_bytes`] in robustness tests.
    pub fn read_raw_event(&mut self) -> Result<Json, ClientError> {
        self.read_event()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// A connection that streams status events for 5 000 jobs holds the
    /// traces of only the most recent [`STATUS_TRACE_JOBS`].
    #[test]
    fn status_traces_are_kept_for_the_most_recent_jobs_only() {
        const JOBS: u64 = 5_000;
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut socket, _) = listener.accept().unwrap();
            let mut lines = String::new();
            for id in 1..=JOBS {
                for state in ["queued", "running"] {
                    lines.push_str(&format!(
                        "{{\"ev\":\"status\",\"job_id\":{id},\"state\":\"{state}\"}}\n"
                    ));
                }
            }
            lines.push_str("{\"ev\":\"pong\"}\n");
            socket.write_all(lines.as_bytes()).unwrap();
            // Hold the socket open until the client has read the pong.
            let mut ping = [0u8; 64];
            let _ = std::io::Read::read(&mut socket, &mut ping);
        });
        let mut client = Client::connect(addr).unwrap();
        client.ping().unwrap();
        assert_eq!(client.status_trace.len(), STATUS_TRACE_JOBS);
        assert_eq!(client.status_trace(JOBS), ["queued", "running"]);
        let oldest_kept = JOBS - STATUS_TRACE_JOBS as u64 + 1;
        assert_eq!(client.status_trace(oldest_kept).len(), 2);
        assert!(client.status_trace(oldest_kept - 1).is_empty());
        drop(client);
        server.join().unwrap();
    }
}
