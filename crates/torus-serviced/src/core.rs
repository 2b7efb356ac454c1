//! The reactor's decisions, with no I/O.
//!
//! [`Core`] owns what only the reactor thread touches: each
//! connection's buffers, ordered reply queue and tracked jobs, the drain
//! flag, idle reaping, the close deadline and the accept backoff. It
//! changes only in [`Core::handle`] and [`Core::next`], from an instant
//! the shell passes in and an [`Input`]; it reads no clock and touches
//! no fd. Engine, journal and registry calls go through [`Backend`]:
//! the daemon's shared state is its one real implementation, and the
//! tests script another, so an interleaving of inputs replays from a
//! seed with no socket, no sleep and no real clock.
//!
//! An iteration feeds what `poll` found ([`Input::Read`], `Eof`,
//! `Closed`, `Accepted`, `Drain` on SIGTERM, `Drained` once the drain
//! helper's verdict is in), then one [`Input::Tick`]: every complete
//! line is handled, and if admissions parked, the tick returns the
//! sequence to sync and finishes on [`Input::Durable`] — drain verdicts
//! out, then every tracked job read through [`Backend::poll`]. The shell
//! writes [`Core::unflushed`] and reports [`Input::Written`]; last,
//! [`Core::next`] sweeps connections and, from that fresh state, exits
//! or says how to poll.
//!
//! ## Admission batching and the durability barrier
//!
//! Each admission appends its journal record ([`Backend::append`]) and
//! parks in the connection's pending list; the one sync the tick asks
//! for covers every admission any connection parked in the iteration,
//! and no client hears `accepted` before it.
//!
//! To keep per-connection reply order intact, the pending list is an
//! *ordered reply queue*, not just a durability ledger: a submit that
//! resolves immediately while earlier admissions are parked — a
//! `queue_full` or `invalid_spec` rejection mid-burst — parks its reply
//! in the same queue rather than jumping to the wire, so a positional
//! client ([`Client::submit_batch`]) always attributes each reply to
//! the right spec. And a connection with parked submits defers any
//! *non*-submit request to the next iteration: consecutive pipelined
//! submits coalesce into the batch, but a `ping` behind a `submit`
//! never overtakes its `accepted`.
//!
//! [`Client::submit_batch`]: crate::client::Client::submit_batch
//!
//! An admission the journal cannot make durable is taken back
//! ([`Backend::reject_undurable`]) and rejected as `journal_unavailable`.

use std::time::{Duration, Instant};

use torus_service::SubmitError;

use crate::json::Json;
use crate::proto::{self, Request, MAX_LINE_BYTES};
use crate::server::DaemonConfig;
use crate::spec::JobSpec;

/// A client that stops reading while events stream is disconnected once
/// this many bytes are queued for it, bounding daemon memory per
/// connection.
const MAX_WRITE_BUFFER: usize = 4 * 1024 * 1024;

/// How long a closing daemon keeps trying to flush final events
/// (`done`, `drained`) to slow clients before giving up.
const CLOSE_FLUSH_DEADLINE: Duration = Duration::from_secs(5);

/// Poll timeout while no connection is owed a tick. New connections
/// and the drain helper's close wake the reactor through the listener
/// and the wake pipe, so this only bounds how long a SIGTERM (a flag,
/// which wakes nothing) goes unnoticed by an idle daemon.
const IDLE_POLL: Duration = Duration::from_millis(50);

/// How long the listener stays out of the poll set after an accept
/// error other than `WouldBlock`/`Interrupted` (`EMFILE`, say), so a
/// full fd table cannot spin the reactor.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(5);

/// Everything the core asks of the engine, the journal and the job
/// registry: the one seam between the reactor's decisions and the rest
/// of the daemon.
pub(crate) trait Backend {
    /// The core's handle on one admitted job.
    type Job;
    /// Submits a validated spec for `tenant`: the job's id and handle,
    /// or the engine's refusal.
    fn submit(&self, tenant: &str, spec: &JobSpec) -> Result<(u64, Self::Job), SubmitError>;
    /// Appends job `id`'s admission record: its sequence for the tick's
    /// sync, `None` on a daemon without a journal, or why it failed.
    fn append(&self, id: u64, tenant: &str, spec: &JobSpec) -> Result<Option<u64>, String>;
    /// The admission is durable: `status` and `cancel` can find the job.
    fn accept(&self, job: &Self::Job, tenant: &str);
    /// The admission could not be made durable: take the job back.
    fn reject_undurable(&self, job: Self::Job, tenant: &str);
    /// A tracked job's status, with its `done` event once terminal.
    fn poll(&self, job: &Self::Job) -> JobPoll;
    /// Wakes the reactor when `job` finishes.
    fn wake_on_finish(&self, job: &Self::Job);
    /// The reply to a `status` request.
    fn status(&self, job_id: u64) -> Json;
    /// The reply to a `cancel` request from `tenant`.
    fn cancel(&self, job_id: u64, tenant: &str) -> Json;
    /// The reply to a `stats` request.
    fn stats(&self, idle_reaped: u64) -> Json;
    /// Starts the drain: the engine stops admitting and finishes every
    /// job, then its verdict comes back as [`Input::Drained`].
    fn start_drain(&self);
}

/// A tracked job, as [`Backend::poll`] finds it.
pub(crate) enum JobPoll {
    Queued,
    Running,
    /// Terminal: the job's `done` event.
    Done(Json),
}

/// One thing that happened, for [`Core::handle`]. Connections are
/// numbered by position: [`Input::Accepted`] appends one, and
/// [`Core::next`] names each one it drops.
pub(crate) enum Input<'a> {
    /// A new connection.
    Accepted,
    /// Accepting failed with something other than `WouldBlock`.
    AcceptFailed,
    /// Bytes read from connection `.0`.
    Read(usize, &'a [u8]),
    /// The peer closed its write half.
    Eof(usize),
    /// `.1` bytes of [`Core::unflushed`] reached connection `.0`.
    Written(usize, usize),
    /// The socket failed: the connection is gone.
    Closed(usize),
    /// SIGTERM: drain as a `drain` request would.
    Drain,
    /// The drain helper's verdict: the engine has drained, and the
    /// daemon closes.
    Drained(Json),
    /// Handle every complete line, then every tracked job.
    Tick,
    /// The journal sync a [`Input::Tick`] asked for, through admission
    /// sequence `.0`, and how it went.
    Durable(u64, Result<(), String>),
}

/// How the shell polls next.
pub(crate) struct Poll {
    pub(crate) timeout: Duration,
    /// Whether the listener is in the poll set.
    pub(crate) accept: bool,
}

/// One job whose lifecycle this connection streams.
struct JobTrack<J> {
    id: u64,
    job: J,
    last_state: &'static str,
    polls: u32,
    /// The job rings the reactor when it finishes.
    wakes_on_finish: bool,
}

/// One slot in a connection's parked submit-reply queue. Replies to a
/// pipelined burst go on the wire strictly in request order, so once an
/// admission is parked awaiting durability, every later submit's reply
/// parks behind it — including replies that already resolved (a
/// rejection needs no fsync, but it must not overtake an earlier
/// `accepted` that a positional client would attribute to it).
enum PendingReply<J> {
    /// An admission whose journal record is appended but not yet
    /// durable; resolves at the tick's durability barrier.
    Admission { id: u64, job: J, seq: u64 },
    /// A reply that resolved immediately (a rejection) but is queued
    /// behind earlier parked admissions to keep its place in line.
    Resolved(Json),
}

/// Per-connection state.
struct Conn<J> {
    rbuf: Vec<u8>,
    wbuf: Vec<u8>,
    /// Bytes of `wbuf` already written to the socket.
    wpos: usize,
    tenant: Option<String>,
    tracks: Vec<JobTrack<J>>,
    /// Submit replies owed in request order; non-empty only between a
    /// parked admission and the tick's durability barrier.
    pending: Vec<PendingReply<J>>,
    /// A `drain` reply is owed; requests queue behind it.
    await_drain: bool,
    /// Peer closed its write half; we stop reading but keep streaming
    /// tracked jobs until done.
    eof: bool,
    dead: bool,
    /// When the peer last sent bytes; drives idle reaping.
    last_activity: Instant,
}

impl<J> Conn<J> {
    fn has_unflushed(&self) -> bool {
        self.wpos < self.wbuf.len()
    }

    /// Whether anything is still owed to this connection: unflushed
    /// bytes, a tracked job's events, a parked reply or, when
    /// `drain_reply`, the drain verdict. One owed nothing is done at
    /// EOF, may be reaped when idle, and does not hold up the exit.
    fn owed(&self, drain_reply: bool) -> bool {
        self.has_unflushed()
            || !self.tracks.is_empty()
            || !self.pending.is_empty()
            || (drain_reply && self.await_drain)
    }
}

fn queue_event(wbuf: &mut Vec<u8>, event: &Json) {
    wbuf.extend_from_slice(event.dump().as_bytes());
    wbuf.push(b'\n');
}

/// The reactor's state and decisions; see the [module docs](self).
pub(crate) struct Core<B: Backend> {
    backend: B,
    conns: Vec<Conn<B::Job>>,
    /// How often a busy reactor polls its tracked jobs.
    status_poll: Duration,
    /// Resend a job's status every this many polls.
    heartbeat_polls: u32,
    idle_timeout: Option<Duration>,
    /// Admission stopped and the drain helper claimed, by the first
    /// drain trigger (the `drain` op or SIGTERM).
    draining: bool,
    /// The drain verdict, once in: the daemon is closed, stops
    /// accepting, flushes final events and exits.
    drained: Option<Json>,
    close_deadline: Option<Instant>,
    /// The listener is left out of the poll set until this instant.
    accept_resume: Option<Instant>,
    /// Connections closed for idling past `idle_timeout`.
    idle_reaped: u64,
    /// The highest admission sequence parked this tick, on a
    /// journaling daemon.
    parked: Option<u64>,
    /// The highest admission sequence a successful sync covered.
    durable_through: u64,
}

impl<B: Backend> Core<B> {
    pub(crate) fn new(backend: B, config: &DaemonConfig) -> Self {
        Self {
            backend,
            conns: Vec::new(),
            status_poll: config.status_poll,
            heartbeat_polls: config.heartbeat_polls.max(1),
            idle_timeout: config.idle_timeout,
            draining: false,
            drained: None,
            close_deadline: None,
            accept_resume: None,
            idle_reaped: 0,
            parked: None,
            durable_through: 0,
        }
    }

    /// Applies one input at `now`. Only [`Input::Tick`] returns
    /// something: the admission sequence to make durable before the tick
    /// can finish, answered by [`Input::Durable`].
    pub(crate) fn handle(&mut self, now: Instant, input: Input<'_>) -> Option<u64> {
        match input {
            Input::Accepted => self.conns.push(Conn {
                rbuf: Vec::new(),
                wbuf: Vec::new(),
                wpos: 0,
                tenant: None,
                tracks: Vec::new(),
                pending: Vec::new(),
                await_drain: false,
                eof: false,
                dead: false,
                last_activity: now,
            }),
            Input::AcceptFailed => self.accept_resume = Some(now + ACCEPT_BACKOFF),
            Input::Read(i, bytes) => {
                let conn = &mut self.conns[i];
                conn.rbuf.extend_from_slice(bytes);
                conn.last_activity = now;
            }
            Input::Eof(i) => self.conns[i].eof = true,
            Input::Written(i, n) => {
                let conn = &mut self.conns[i];
                conn.wpos += n;
                if conn.wpos == conn.wbuf.len() {
                    conn.wbuf.clear();
                    conn.wpos = 0;
                }
            }
            Input::Closed(i) => self.conns[i].dead = true,
            Input::Drain => self.begin_drain(),
            Input::Drained(verdict) => self.drained = Some(verdict),
            Input::Tick => {
                // Parse and handle requests; admissions park in `pending`.
                for i in 0..self.conns.len() {
                    self.process_lines(i);
                }
                if self.parked.is_some() {
                    return self.parked.take();
                }
                self.finish_tick();
            }
            Input::Durable(seq, synced) => {
                // The sync covers every parked admission. After a failed
                // sync, one an earlier sync covered is still durable.
                if synced.is_ok() {
                    self.durable_through = self.durable_through.max(seq);
                }
                for i in 0..self.conns.len() {
                    for reply in std::mem::take(&mut self.conns[i].pending) {
                        match reply {
                            PendingReply::Admission { id, job, seq }
                                if seq <= self.durable_through =>
                            {
                                self.accept(i, id, job)
                            }
                            PendingReply::Admission { job, .. } => {
                                let err = synced.as_ref().err().map_or("", String::as_str);
                                self.reject_undurable(i, job, err)
                            }
                            PendingReply::Resolved(event) => self.send(i, &event),
                        }
                    }
                }
                self.finish_tick();
            }
        }
        None
    }

    /// Sweeps connections that are done (EOF and owed nothing), over
    /// their write-queue bound, or idle past the timeout, calling
    /// `gone(i)` for each, highest index first, as it swap-removes it.
    /// Then decides from that fresh state: `None` when the daemon exits,
    /// else how to poll.
    pub(crate) fn next(&mut self, now: Instant, mut gone: impl FnMut(usize)) -> Option<Poll> {
        for conn in &mut self.conns {
            if conn.wbuf.len() - conn.wpos > MAX_WRITE_BUFFER || (conn.eof && !conn.owed(true)) {
                conn.dead = true;
            } else if self.idle_timeout.is_some_and(|idle| {
                !conn.dead && !conn.owed(true) && now.duration_since(conn.last_activity) >= idle
            }) {
                // Abandoned sockets must not hold poll slots forever.
                conn.dead = true;
                self.idle_reaped += 1;
            }
        }
        for i in (0..self.conns.len()).rev() {
            if self.conns[i].dead {
                self.conns.swap_remove(i);
                gone(i);
            }
        }
        let closed = self.drained.is_some();
        if closed {
            let deadline = *self
                .close_deadline
                .get_or_insert(now + CLOSE_FLUSH_DEADLINE);
            if now >= deadline || self.conns.iter().all(|c| !c.owed(true)) {
                return None;
            }
        }
        // Keep accepting until the engine has drained: a client that
        // connects mid-drain gets a typed reply (`draining` on submit,
        // the verdict on `drain`) instead of a reset.
        let resume = self.accept_resume.filter(|&at| now < at && !closed);
        // Not the drain verdict: the drain helper's wake delivers it.
        let busy = self.conns.iter().any(|c| c.owed(false));
        let mut timeout = if busy || closed {
            self.status_poll.max(Duration::from_millis(1))
        } else {
            IDLE_POLL
        };
        if let Some(at) = resume {
            timeout = timeout.min((at - now).max(Duration::from_millis(1)));
        }
        Some(Poll {
            timeout,
            accept: !closed && resume.is_none(),
        })
    }

    /// Whether connection `i` still reads its socket.
    pub(crate) fn reading(&self, i: usize) -> bool {
        !self.conns[i].eof && !self.conns[i].dead
    }

    /// Whether to poll connection `i` for reading and for writing.
    /// Reading pauses (backpressure, not disconnect) while deferred
    /// complete lines pile up past the write-queue bound; they drain as
    /// soon as the parked batch or drain reply resolves.
    pub(crate) fn interest(&self, i: usize) -> (bool, bool) {
        let conn = &self.conns[i];
        (
            self.reading(i) && conn.rbuf.len() <= MAX_WRITE_BUFFER,
            conn.has_unflushed() && !conn.dead,
        )
    }

    /// The bytes queued for connection `i`, none once it is dead.
    pub(crate) fn unflushed(&self, i: usize) -> &[u8] {
        let conn = &self.conns[i];
        &conn.wbuf[if conn.dead {
            conn.wbuf.len()
        } else {
            conn.wpos
        }..]
    }

    /// Stops admission and, on the first trigger, starts the drain.
    fn begin_drain(&mut self) {
        if !std::mem::replace(&mut self.draining, true) {
            self.backend.start_drain();
        }
    }

    fn send(&mut self, i: usize, event: &Json) {
        queue_event(&mut self.conns[i].wbuf, event);
    }

    /// The rest of a tick, after the durability barrier: the drain
    /// verdict to every connection owed it, then every tracked job.
    fn finish_tick(&mut self) {
        if let Some(verdict) = &self.drained {
            for conn in self.conns.iter_mut().filter(|c| c.await_drain) {
                queue_event(&mut conn.wbuf, verdict);
                conn.await_drain = false;
            }
        }
        for i in 0..self.conns.len() {
            self.pump_tracks(i);
        }
    }

    /// Parses and handles every complete line in connection `i`'s read
    /// buffer, stopping early to preserve reply order (non-submit behind
    /// a parked submit) or when a drain reply is owed.
    fn process_lines(&mut self, i: usize) {
        if self.conns[i].dead {
            return;
        }
        let mut consumed = 0usize;
        while !self.conns[i].await_drain {
            let conn = &self.conns[i];
            let Some(nl) = conn.rbuf[consumed..].iter().position(|&b| b == b'\n') else {
                break;
            };
            let line = String::from_utf8_lossy(&conn.rbuf[consumed..consumed + nl]).into_owned();
            if line.trim().is_empty() {
                consumed += nl + 1;
                continue;
            }
            let request = proto::parse_request(&line);
            // Ordering: once submits are parked awaiting durability,
            // only further submits may join the batch — anything else
            // would need its reply queued ahead of their `accepted`
            // lines, so it waits for the next iteration.
            if !conn.pending.is_empty() && !matches!(request, Ok(Request::Submit { .. })) {
                break;
            }
            consumed += nl + 1;
            match request {
                // Malformed lines get a reply but keep the connection: a
                // client with one buggy request shouldn't lose its jobs.
                Err(e) => self.send(i, &proto::error_event(&e.message)),
                Ok(request) => self.dispatch(i, request),
            }
        }
        let conn = &mut self.conns[i];
        conn.rbuf.drain(..consumed);
        if oversized_tail(&conn.rbuf) {
            queue_event(
                &mut conn.wbuf,
                &proto::error_event(&format!("request line exceeds {MAX_LINE_BYTES} bytes")),
            );
            conn.eof = true; // stop reading; flush the error, then close
            conn.rbuf.clear();
        }
    }

    /// Handles one parsed request.
    fn dispatch(&mut self, i: usize, request: Request) {
        let reply = match request {
            Request::Hello { tenant } => {
                let event = proto::hello_ok(&tenant);
                self.conns[i].tenant = Some(tenant);
                event
            }
            Request::Ping => proto::pong(),
            Request::Schema => proto::schema(JobSpec::schema()),
            Request::Validate { spec } => match JobSpec::from_json(&spec) {
                Ok(s) => proto::valid(s.to_json()),
                Err(e) => proto::rejected("invalid_spec", &e.to_string()),
            },
            Request::Stats => self.backend.stats(self.idle_reaped),
            Request::Status { job_id } => self.backend.status(job_id),
            Request::Cancel { job_id } => match &self.conns[i].tenant {
                Some(tenant) => self.backend.cancel(job_id, tenant),
                None => unauthenticated(),
            },
            Request::Drain => {
                // The engine drain can take arbitrarily long: the drain
                // helper waits it out, and its verdict answers every
                // connection owed a `drained` reply.
                self.begin_drain();
                match &self.drained {
                    Some(verdict) => verdict.clone(),
                    None => {
                        self.conns[i].await_drain = true;
                        return;
                    }
                }
            }
            Request::Submit { spec } => return self.submit(i, &spec),
        };
        self.send(i, &reply);
    }

    /// Queues a submit reply in request order: while earlier admissions
    /// sit parked awaiting durability, an already-resolved reply (a
    /// rejection) parks behind them instead of overtaking their
    /// `accepted` lines on the wire — clients match burst replies
    /// positionally.
    fn submit_reply(&mut self, i: usize, event: Json) {
        if self.conns[i].pending.is_empty() {
            self.send(i, &event);
        } else {
            self.conns[i].pending.push(PendingReply::Resolved(event));
        }
    }

    /// Admission: engine submit, then journal append (durability parked
    /// for the tick's barrier) or immediate acceptance without a
    /// journal.
    fn submit(&mut self, i: usize, spec: &Json) {
        if self.draining {
            return self.submit_reply(i, draining());
        }
        let Some(tenant) = self.conns[i].tenant.clone() else {
            return self.submit_reply(i, unauthenticated());
        };
        let spec = match JobSpec::from_json(spec) {
            Ok(s) => s,
            Err(e) => return self.submit_reply(i, proto::rejected("invalid_spec", &e.to_string())),
        };
        match self.backend.submit(&tenant, &spec) {
            Ok((id, job)) => match self.backend.append(id, &tenant, &spec) {
                Ok(Some(seq)) => {
                    self.parked = self.parked.max(Some(seq));
                    let reply = PendingReply::Admission { id, job, seq };
                    self.conns[i].pending.push(reply);
                }
                Ok(None) => self.accept(i, id, job),
                Err(e) => self.reject_undurable(i, job, &e),
            },
            Err(refused) => self.submit_reply(i, refusal(refused)),
        }
    }

    /// The admission is durable (or the daemon runs journal-free):
    /// register it, acknowledge it, and start streaming its lifecycle.
    fn accept(&mut self, i: usize, id: u64, job: B::Job) {
        let conn = &mut self.conns[i];
        self.backend
            .accept(&job, conn.tenant.as_deref().unwrap_or(""));
        queue_event(&mut conn.wbuf, &proto::accepted(id));
        conn.tracks.push(JobTrack {
            id,
            job,
            last_state: "",
            polls: 0,
            wakes_on_finish: false,
        });
    }

    /// The journal could not make the admission durable: the daemon must
    /// not acknowledge a job it could lose, so it takes the job back and
    /// rejects with the typed `journal_unavailable` reason.
    fn reject_undurable(&mut self, i: usize, job: B::Job, err: &str) {
        self.backend
            .reject_undurable(job, self.conns[i].tenant.as_deref().unwrap_or(""));
        self.submit_reply(
            i,
            proto::rejected(
                "journal_unavailable",
                &format!("admission journal unavailable: {err}"),
            ),
        );
    }

    /// Streams connection `i`'s tracked jobs: a `status` line per
    /// transition (plus periodic heartbeats), then the final `done`,
    /// after which the track is dropped.
    fn pump_tracks(&mut self, i: usize) {
        let conn = &mut self.conns[i];
        if conn.tracks.is_empty() || conn.dead {
            return;
        }
        let (backend, heartbeat_polls) = (&self.backend, self.heartbeat_polls);
        let lone = conn.tracks.len() == 1;
        conn.tracks.retain_mut(|track| {
            let state = match backend.poll(&track.job) {
                JobPoll::Queued => "queued",
                JobPoll::Running => {
                    // The connection's only job, still running at a
                    // later pump than the admitting one: ring the
                    // reactor when it finishes, so its `done` goes out
                    // then rather than on the next poll. Without this a
                    // job's latency is its run time rounded up to the
                    // poll grid, which jumps by a whole `status_poll`
                    // when the run time crosses a tick. Short jobs, and
                    // connections with several in flight, stay with the
                    // poll: a wake per job costs a pipe write and a
                    // reactor iteration, and each wake's iteration saw
                    // the next running job and armed it in turn, which
                    // cost `wire_burst` its batching (ROADMAP item 3).
                    if lone && !track.wakes_on_finish && track.polls > 0 {
                        backend.wake_on_finish(&track.job);
                        track.wakes_on_finish = true;
                    }
                    "running"
                }
                JobPoll::Done(event) => {
                    queue_event(&mut conn.wbuf, &event);
                    return false;
                }
            };
            if state != track.last_state || track.polls.is_multiple_of(heartbeat_polls) {
                queue_event(&mut conn.wbuf, &proto::status(track.id, state));
                track.last_state = state;
            }
            track.polls += 1;
            true
        });
    }
}

fn draining() -> Json {
    proto::rejected("draining", "daemon is draining; no new jobs")
}

fn unauthenticated() -> Json {
    proto::rejected("unauthenticated", "send hello with a tenant first")
}

/// The typed rejection for an engine refusal.
fn refusal(refused: SubmitError) -> Json {
    match refused {
        SubmitError::QueueFull {
            depth,
            retry_after_ms,
        } => proto::rejected_backoff(
            "queue_full",
            &format!("global queue at depth {depth}"),
            retry_after_ms,
        ),
        SubmitError::TenantQueueFull {
            tenant,
            max_queued,
            retry_after_ms,
        } => proto::rejected_backoff(
            "tenant_queue_full",
            &format!("tenant {tenant:?} at its queued-jobs quota ({max_queued})"),
            retry_after_ms,
        ),
        SubmitError::RateLimited {
            tenant,
            retry_after_ms,
        } => proto::rejected_backoff(
            "rate_limited",
            &format!("tenant {tenant:?} is over its admission rate"),
            retry_after_ms,
        ),
        SubmitError::ShuttingDown => draining(),
    }
}

/// Whether the read buffer holds a single line past [`MAX_LINE_BYTES`].
/// Only the unterminated tail (bytes after the last newline) counts:
/// complete lines legitimately sit buffered when they are deferred
/// behind parked submits or an owed drain reply, and any number of
/// small deferred lines must not be mistaken for one oversized line.
fn oversized_tail(rbuf: &[u8]) -> bool {
    let tail_start = rbuf
        .iter()
        .rposition(|&b| b == b'\n')
        .map_or(0, |pos| pos + 1);
    rbuf.len() - tail_start > MAX_LINE_BYTES
}

#[cfg(test)]
mod tests;
