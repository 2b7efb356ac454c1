//! The poll reactor: one thread driving the listener and every
//! connection.
//!
//! The daemon's first connection plane spent one reader thread per
//! connection plus one pump thread per submitted job — fine for tens of
//! clients, hopeless for thousands. This module replaces both with a
//! hand-rolled `poll(2)` reactor, in keeping with the workspace's
//! no-async-runtime, threads-and-locks style:
//!
//! * **One thread.** [`Daemon::run`](crate::server::Daemon::run) runs
//!   the reactor on its calling thread. It polls the listening socket
//!   with the connections and, when the listener is readable, accepts
//!   until `WouldBlock`. Daemon thread count is the reactor + engine
//!   drivers + worker pool, independent of connection and job counts.
//!   The listen backlog is widened to [`LISTEN_BACKLOG`], so a connect
//!   storm that arrives while the reactor is mid-iteration waits in the
//!   kernel's queue instead of losing SYNs.
//! * **Non-blocking sockets, `poll` via direct FFI.** The container
//!   vendors no libc crate, so the syscall entry points the reactor
//!   needs (`poll`, `pipe`, `listen`, plus raw `read`/`write`/`close`
//!   for the wake pipe) are declared `extern "C"` directly, the same way
//!   [`crate::signal`] declares `signal`.
//! * **Per-connection write queues.** Events are appended to an owned
//!   byte buffer and flushed on `POLLOUT`, replacing the mutex-guarded
//!   writer clone the pump threads shared. A client that stops reading
//!   past [`MAX_WRITE_BUFFER`] queued bytes is disconnected rather than
//!   ballooning the daemon.
//! * **Inline job pumping.** Each reactor iteration polls the tracked
//!   jobs of every connection (`status` transitions, heartbeats, final
//!   `done`), so a connection with a thousand in-flight jobs costs one
//!   scan, not a thousand threads. A busy reactor's `poll` times out
//!   every `status_poll`; a connection's only job, if still running at
//!   a later iteration than the one that admitted it, also rings the
//!   reactor's waker when it finishes ([`JobHandle::on_finish`]), so a
//!   long job's `done` leaves as it finishes instead of on the next
//!   tick.
//!
//! ## Admission batching and the durability barrier
//!
//! Submissions do not fsync individually. Each admission appends its
//! journal record via [`Journal::append_accepted`] and parks in the
//! connection's pending list; once the iteration has drained every
//! readable socket, the reactor itself calls [`Journal::sync`] once, on
//! the highest pending sequence, and that one `sync_data` covers them
//! all. The reactor blocks for that sync, and every connection waits
//! with it. Only after that barrier does any client hear `accepted` —
//! the documented "fsync before the client hears accepted" invariant
//! holds per admission while fsyncs-per-job drops well below one under
//! bursts, across connections and across pipelined submits on a single
//! connection.
//!
//! To keep per-connection reply order intact, the pending list is an
//! *ordered reply queue*, not just a durability ledger: a submit that
//! resolves immediately while earlier admissions are parked — a
//! `queue_full` or `invalid_spec` rejection mid-burst — parks its
//! reply in the same queue rather than jumping to the wire, so a
//! positional client ([`Client::submit_batch`]) always attributes each
//! reply to the right spec. And a connection with parked submits
//! defers any *non*-submit request to the next iteration: consecutive
//! pipelined submits coalesce into the batch, but a `ping` behind a
//! `submit` never overtakes its `accepted`.
//!
//! [`Client::submit_batch`]: crate::client::Client::submit_batch
//!
//! If the journal cannot make an admission durable, the job is
//! cancelled out of the engine queue ([`Engine::cancel_queued`]) and
//! the client gets a typed `journal_unavailable` rejection instead of
//! an acknowledgment the daemon could not honor.
//!
//! [`Engine::cancel_queued`]: torus_service::Engine::cancel_queued

use std::io::{self, ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::os::raw::{c_int, c_ulong, c_void};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use torus_service::{CancelOutcome, JobHandle, JobStatus, SubmitError};

use crate::journal::JournalError;
use crate::json::Json;
use crate::proto::{self, Request, MAX_LINE_BYTES};
use crate::server::{done_event, CancelLookup, DaemonShared, Terminal};
use crate::signal;
use crate::spec::JobSpec;

/// A client that stops reading while events stream is disconnected once
/// this many bytes are queued for it, bounding daemon memory per
/// connection.
pub(crate) const MAX_WRITE_BUFFER: usize = 4 * 1024 * 1024;

/// How long a closing reactor keeps trying to flush final events
/// (`done`, `drained`) to slow clients before giving up.
const CLOSE_FLUSH_DEADLINE: Duration = Duration::from_secs(5);

/// Poll timeout while no connection has live jobs or unflushed output.
/// New connections and the drain helper's close wake the reactor through
/// the listener and the wake pipe, so this only bounds how long a SIGTERM
/// (a flag, which wakes nothing) goes unnoticed by an idle daemon.
const IDLE_POLL: Duration = Duration::from_millis(50);

/// How long the reactor stops polling the listener after an accept error
/// other than `WouldBlock`/`Interrupted` (`EMFILE`, say), so a full fd
/// table cannot spin it.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(5);

/// The listen backlog [`widen_backlog`] asks for; the kernel caps it at
/// `net.core.somaxconn`. `std`'s `TcpListener::bind` listens with 128,
/// which a burst of thousands of connects overflows while the reactor
/// is busy in an iteration: the dropped SYNs wait out a whole-second
/// retransmit.
const LISTEN_BACKLOG: c_int = 4096;

fn lk<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

// ---------------------------------------------------------------------
// poll(2) FFI — declared directly; the container vendors no libc crate.
// ---------------------------------------------------------------------

#[repr(C)]
struct PollFd {
    fd: c_int,
    events: i16,
    revents: i16,
}

const POLLIN: i16 = 0x001;
const POLLOUT: i16 = 0x004;
const POLLERR: i16 = 0x008;
const POLLHUP: i16 = 0x010;

extern "C" {
    fn poll(fds: *mut PollFd, nfds: c_ulong, timeout: c_int) -> c_int;
    fn pipe(fds: *mut c_int) -> c_int;
    fn read(fd: c_int, buf: *mut c_void, count: usize) -> isize;
    fn write(fd: c_int, buf: *const c_void, count: usize) -> isize;
    fn close(fd: c_int) -> c_int;
    fn listen(fd: c_int, backlog: c_int) -> c_int;
}

/// Re-runs `listen(2)` on a bound listener with [`LISTEN_BACKLOG`];
/// on an already listening socket that only resizes the accept queue.
pub(crate) fn widen_backlog(listener: &TcpListener) -> io::Result<()> {
    // SAFETY: `listen` takes no pointers, and the fd is the listener's
    // own, open for as long as the borrow lasts.
    if unsafe { listen(listener.as_raw_fd(), LISTEN_BACKLOG) } != 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(())
}

/// The reactor's self-pipe wakeup. The write end is signalled by the
/// drain helper once it has published the final stats and closed the
/// daemon, and by a connection's lone long job when it finishes; the
/// reactor polls the read end alongside its sockets.
///
/// The pipe stays in blocking mode on purpose: the reactor only reads
/// it after `POLLIN`, and a read never asks for more than one buffer
/// (pipe reads return what is available), so it cannot block. Writes
/// are elided while one is already pending, so at most a handful of
/// bytes ever sit in the pipe — far below its buffer.
pub(crate) struct Waker {
    rd: c_int,
    wr: c_int,
    pending: AtomicBool,
}

impl Waker {
    pub(crate) fn new() -> io::Result<Self> {
        let mut fds = [0 as c_int; 2];
        if unsafe { pipe(fds.as_mut_ptr()) } != 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(Self {
            rd: fds[0],
            wr: fds[1],
            pending: AtomicBool::new(false),
        })
    }

    /// Makes the reactor's next (or current) `poll` return promptly.
    pub(crate) fn wake(&self) {
        if !self.pending.swap(true, Ordering::SeqCst) {
            let byte = 1u8;
            unsafe {
                write(self.wr, (&byte as *const u8).cast::<c_void>(), 1);
            }
        }
    }

    /// Clears the pipe after `POLLIN`. The byte is consumed *before*
    /// the flag is cleared: a wake landing in between is elided (the
    /// flag is still set), but what it announced (the published verdict,
    /// `closed`) is read before the reactor next blocks in `poll`, while
    /// a wake after the clear writes a fresh byte. The reverse order could consume a byte written
    /// *after* the flag was re-armed, leaving `pending` true over an
    /// empty pipe — every later wake elided, the reactor reduced to
    /// its poll timeout forever.
    fn drain(&self) {
        let mut buf = [0u8; 64];
        unsafe {
            read(self.rd, buf.as_mut_ptr().cast::<c_void>(), buf.len());
        }
        self.pending.store(false, Ordering::SeqCst);
    }
}

impl Drop for Waker {
    fn drop(&mut self) {
        unsafe {
            close(self.rd);
            close(self.wr);
        }
    }
}

/// One job whose lifecycle this connection streams.
struct JobTrack {
    handle: JobHandle,
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
enum PendingReply {
    /// An admission whose journal record is appended but not yet
    /// durable; resolves at the iteration's durability barrier.
    Admission { handle: JobHandle, seq: u64 },
    /// A reply that resolved immediately (a rejection) but is queued
    /// behind earlier parked admissions to keep its place in line.
    Resolved(Json),
}

/// Per-connection state, owned by the reactor thread.
struct Conn {
    stream: TcpStream,
    rbuf: Vec<u8>,
    wbuf: Vec<u8>,
    /// Bytes of `wbuf` already written to the socket.
    wpos: usize,
    tenant: Option<String>,
    tracks: Vec<JobTrack>,
    /// Submit replies owed in request order; non-empty only between a
    /// parked admission and the iteration's durability barrier.
    pending: Vec<PendingReply>,
    /// A `drain` reply is owed; requests queue behind it.
    await_drain: bool,
    /// Peer closed its write half; we stop reading but keep streaming
    /// tracked jobs until done, matching the old reader/pump split.
    eof: bool,
    dead: bool,
    /// When the peer last sent bytes; drives idle reaping. Only truly
    /// quiet connections are reaped — one with tracked jobs, parked
    /// replies, or unflushed output is never idle.
    last_activity: Instant,
}

impl Conn {
    fn new(stream: TcpStream) -> io::Result<Self> {
        stream.set_nonblocking(true)?;
        stream.set_nodelay(true).ok();
        Ok(Self {
            stream,
            rbuf: Vec::new(),
            wbuf: Vec::new(),
            wpos: 0,
            tenant: None,
            tracks: Vec::new(),
            pending: Vec::new(),
            await_drain: false,
            eof: false,
            dead: false,
            last_activity: Instant::now(),
        })
    }

    fn has_unflushed(&self) -> bool {
        self.wpos < self.wbuf.len()
    }

    /// Whether the closing reactor still owes this connection anything.
    fn has_final_work(&self) -> bool {
        !self.dead
            && (self.has_unflushed()
                || !self.tracks.is_empty()
                || !self.pending.is_empty()
                || self.await_drain)
    }
}

fn queue_event(wbuf: &mut Vec<u8>, event: &Json) {
    wbuf.extend_from_slice(event.dump().as_bytes());
    wbuf.push(b'\n');
}

/// The reactor, woken by `shared.waker`. Runs until the daemon is
/// closed and every final event is flushed (or the flush deadline
/// passes).
pub(crate) fn reactor_loop(shared: &Arc<DaemonShared>, listener: &TcpListener) {
    let waker = &shared.waker;
    let mut conns: Vec<Conn> = Vec::new();
    let mut fds: Vec<PollFd> = Vec::new();
    let mut close_deadline: Option<Instant> = None;
    // The listener is left out of the poll set until this instant.
    let mut accept_resume = Instant::now();

    loop {
        if signal::triggered() {
            shared.begin_drain();
        }
        // Decide the exit from fresh state, before blocking again: the
        // drain helper's wake closes the daemon mid-iteration.
        let closed = shared.closed.load(Ordering::SeqCst);
        let now = Instant::now();
        if closed {
            let deadline = *close_deadline.get_or_insert(now + CLOSE_FLUSH_DEADLINE);
            if now >= deadline || conns.iter().all(|c| !c.has_final_work()) {
                // Dropping the connections closes them; clients see EOF
                // after their final events.
                return;
            }
        }
        // Keep accepting until the engine has drained: a client that
        // connected mid-drain is read and gets a typed reply (`draining`
        // on submit, the verdict on `drain`) instead of a reset when the
        // listener drops.
        let accepting = !closed && now >= accept_resume;

        // Poll: the wake pipe, the listener, then every live socket.
        fds.clear();
        fds.push(PollFd {
            fd: waker.rd,
            events: POLLIN,
            revents: 0,
        });
        fds.push(PollFd {
            fd: listener.as_raw_fd(),
            events: if accepting { POLLIN } else { 0 },
            revents: 0,
        });
        for conn in &conns {
            let mut events = 0i16;
            // Stop reading (backpressure, not disconnect) when deferred
            // complete lines have piled up past the write-queue bound —
            // they drain as soon as the pending batch or drain reply
            // resolves.
            if !conn.eof && !conn.dead && conn.rbuf.len() <= MAX_WRITE_BUFFER {
                events |= POLLIN;
            }
            if conn.has_unflushed() && !conn.dead {
                events |= POLLOUT;
            }
            fds.push(PollFd {
                fd: conn.stream.as_raw_fd(),
                events,
                revents: 0,
            });
        }
        let busy = conns
            .iter()
            .any(|c| !c.tracks.is_empty() || !c.pending.is_empty() || c.has_unflushed());
        let mut timeout = if busy || closed {
            shared.status_poll.max(Duration::from_millis(1))
        } else {
            IDLE_POLL
        };
        if !closed && !accepting {
            timeout = timeout.min((accept_resume - now).max(Duration::from_millis(1)));
        }
        let rc = unsafe {
            poll(
                fds.as_mut_ptr(),
                fds.len() as c_ulong,
                timeout.as_millis().min(i32::MAX as u128) as c_int,
            )
        };
        if rc < 0 {
            let err = io::Error::last_os_error();
            if err.kind() != ErrorKind::Interrupted {
                // poll itself failing is unrecoverable for this thread;
                // drop the connections rather than spinning.
                return;
            }
            continue;
        }
        if fds[0].revents & POLLIN != 0 {
            waker.drain();
        }

        // Read every readable socket fully (edge towards exhaustion so
        // pipelined requests land in one iteration and batch).
        for (conn, fd) in conns.iter_mut().zip(&fds[2..]) {
            if fd.revents & (POLLIN | POLLHUP | POLLERR) != 0 && !conn.eof && !conn.dead {
                read_ready(conn);
            }
        }

        // Accept until `WouldBlock`, so a connect storm drains the
        // backlog in one pass instead of one connection per iteration.
        if fds[1].revents & POLLIN != 0 {
            loop {
                match listener.accept() {
                    Ok((stream, _peer)) => {
                        if let Ok(conn) = Conn::new(stream) {
                            conns.push(conn);
                        }
                    }
                    Err(e) if e.kind() == ErrorKind::Interrupted => {}
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(_) => {
                        accept_resume = Instant::now() + ACCEPT_BACKOFF;
                        break;
                    }
                }
            }
        }

        // Parse and handle requests; admissions park in `pending`.
        for conn in &mut conns {
            process_lines(conn, shared);
        }

        // Durability barrier: one sync on the highest sequence parked
        // this iteration covers every admission before it. Replies drain
        // in request order, so a rejection parked mid-burst stays behind
        // the earlier admissions' `accepted` lines.
        let highest = conns
            .iter()
            .flat_map(|c| &c.pending)
            .filter_map(|reply| match reply {
                PendingReply::Admission { seq, .. } => Some(*seq),
                PendingReply::Resolved(_) => None,
            })
            .max();
        // A `Resolved` reply only parks behind an `Admission`, and
        // admissions only park on a journaling daemon.
        if let (Some(highest), Some(journal)) = (highest, &shared.journal) {
            let synced = journal.sync(highest).is_ok();
            for conn in &mut conns {
                for reply in std::mem::take(&mut conn.pending) {
                    match reply {
                        PendingReply::Admission { handle, seq } => {
                            // After a failed sync, `sync(seq)` still
                            // answers `Ok` for an admission an earlier
                            // sync covered (durability first).
                            let durable = if synced { Ok(()) } else { journal.sync(seq) };
                            match durable {
                                Ok(()) => accept_job(conn, shared, handle),
                                Err(e) => reject_undurable(conn, shared, handle, &e),
                            }
                        }
                        PendingReply::Resolved(event) => queue_event(&mut conn.wbuf, &event),
                    }
                }
            }
        }

        // Deliver the drain verdict: once the (single) drain helper has
        // published the final stats, every connection owed a `drained`
        // reply gets it.
        if conns.iter().any(|c| c.await_drain) {
            if let Some(event) = lk(&shared.drained_event).clone() {
                for conn in &mut conns {
                    if conn.await_drain {
                        queue_event(&mut conn.wbuf, &event);
                        conn.await_drain = false;
                    }
                }
            }
        }

        // Pump tracked jobs: transitions, heartbeats, final `done`.
        for conn in &mut conns {
            pump_tracks(conn, shared);
        }

        // Flush write queues.
        for conn in &mut conns {
            if conn.has_unflushed() && !conn.dead {
                flush_writes(conn);
            }
            // A connection at EOF with nothing left to stream is done.
            if conn.eof && conn.tracks.is_empty() && !conn.has_unflushed() && !conn.await_drain {
                conn.dead = true;
            }
        }

        // Idle reaping: a connection that has sent nothing for the
        // configured timeout and is owed nothing (no tracked jobs, no
        // parked replies, no unflushed bytes) is closed so abandoned
        // sockets cannot accumulate poll slots forever.
        if let Some(idle) = shared.idle_timeout {
            let now = Instant::now();
            for conn in &mut conns {
                if !conn.dead
                    && conn.tracks.is_empty()
                    && conn.pending.is_empty()
                    && !conn.await_drain
                    && !conn.has_unflushed()
                    && now.duration_since(conn.last_activity) >= idle
                {
                    conn.dead = true;
                    shared.idle_reaped.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        conns.retain(|c| !c.dead);
    }
}

/// Drains the socket into the connection's read buffer.
fn read_ready(conn: &mut Conn) {
    let mut chunk = [0u8; 4096];
    loop {
        match conn.stream.read(&mut chunk) {
            Ok(0) => {
                conn.eof = true;
                return;
            }
            Ok(n) => {
                conn.rbuf.extend_from_slice(&chunk[..n]);
                conn.last_activity = Instant::now();
                if n < chunk.len() {
                    return;
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => return,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => {
                conn.dead = true;
                return;
            }
        }
    }
}

/// Parses and handles every complete line in the read buffer, stopping
/// early to preserve reply order (non-submit behind a parked submit)
/// or when a drain reply is owed.
fn process_lines(conn: &mut Conn, shared: &Arc<DaemonShared>) {
    if conn.dead {
        return;
    }
    let mut consumed = 0usize;
    while !conn.await_drain {
        let Some(nl) = conn.rbuf[consumed..].iter().position(|&b| b == b'\n') else {
            break;
        };
        let line = String::from_utf8_lossy(&conn.rbuf[consumed..consumed + nl]).into_owned();
        if line.trim().is_empty() {
            consumed += nl + 1;
            continue;
        }
        let request = proto::parse_request(&line);
        // Ordering: once submits are parked awaiting durability, only
        // further submits may join the batch — anything else would need
        // its reply queued ahead of their `accepted` lines, so it waits
        // for the next iteration.
        if !conn.pending.is_empty() && !matches!(request, Ok(Request::Submit { .. })) {
            break;
        }
        consumed += nl + 1;
        match request {
            // Malformed lines get a reply but keep the connection: a
            // client with one buggy request shouldn't lose its jobs.
            Err(e) => queue_event(&mut conn.wbuf, &proto::error_event(&e.message)),
            Ok(request) => dispatch(conn, request, shared),
        }
    }
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

/// Handles one parsed request.
fn dispatch(conn: &mut Conn, request: Request, shared: &Arc<DaemonShared>) {
    match request {
        Request::Hello { tenant } => {
            let event = proto::hello_ok(&tenant);
            conn.tenant = Some(tenant);
            queue_event(&mut conn.wbuf, &event);
        }
        Request::Ping => queue_event(&mut conn.wbuf, &proto::pong()),
        Request::Schema => queue_event(&mut conn.wbuf, &proto::schema(JobSpec::schema())),
        Request::Validate { spec } => match JobSpec::from_json(&spec) {
            Ok(s) => queue_event(&mut conn.wbuf, &proto::valid(s.to_json())),
            Err(e) => queue_event(
                &mut conn.wbuf,
                &proto::rejected("invalid_spec", &e.to_string()),
            ),
        },
        Request::Stats => {
            let journal_stats = shared
                .journal
                .as_deref()
                .map(crate::journal::Journal::stats);
            let (live, terminal) = shared.registry.counts();
            let daemon = Json::obj([
                ("registry_live", Json::u64(live as u64)),
                ("registry_terminal", Json::u64(terminal as u64)),
                (
                    "idle_reaped",
                    Json::u64(shared.idle_reaped.load(Ordering::Relaxed)),
                ),
            ]);
            queue_event(
                &mut conn.wbuf,
                &proto::stats(
                    &shared.engine.stats(),
                    &shared.engine.tenant_stats(),
                    journal_stats.as_ref(),
                    Some(&daemon),
                ),
            );
        }
        Request::Status { job_id } => {
            let reply = crate::server::status_reply(shared, job_id);
            queue_event(&mut conn.wbuf, &reply);
        }
        Request::Cancel { job_id } => {
            let Some(tenant) = conn.tenant.clone() else {
                queue_event(
                    &mut conn.wbuf,
                    &proto::rejected("unauthenticated", "send hello with a tenant first"),
                );
                return;
            };
            let reply = cancel_job(shared, job_id, &tenant);
            queue_event(&mut conn.wbuf, &reply);
        }
        Request::Drain => {
            // The engine drain can take arbitrarily long; the single
            // drain helper waits it out and wakes the reactor, which
            // then delivers the `drained` reply to every waiting
            // connection.
            shared.begin_drain();
            // Already drained: answer from the cached verdict.
            if let Some(event) = lk(&shared.drained_event).clone() {
                queue_event(&mut conn.wbuf, &event);
                return;
            }
            conn.await_drain = true;
        }
        Request::Submit { spec } => handle_submit(conn, spec, shared),
    }
}

/// Resolves a tenant-scoped cancel. Ownership is checked against the
/// registry before the engine is asked anything, so one tenant can
/// neither cancel nor probe another tenant's job ids. The engine
/// racing a cancelled job to terminal is fine: the registry's
/// event-hook record or a final [`CancelOutcome::Unknown`] both map to
/// `already_terminal`.
fn cancel_job(shared: &DaemonShared, job_id: u64, tenant: &str) -> Json {
    match shared.registry.cancel_lookup(job_id, tenant) {
        CancelLookup::Unknown => proto::cancel_reply(job_id, "unknown", None),
        CancelLookup::Forbidden => proto::cancel_reply(job_id, "forbidden", None),
        CancelLookup::Terminal(state) => {
            proto::cancel_reply(job_id, "already_terminal", Some(state))
        }
        CancelLookup::Live => match shared.engine.cancel(job_id) {
            CancelOutcome::Cancelled => proto::cancel_reply(job_id, "cancelled", None),
            CancelOutcome::Cancelling => proto::cancel_reply(job_id, "cancelling", None),
            // Raced to terminal between the registry lookup and the
            // engine call; the event hook has (or is about to have)
            // recorded the outcome.
            CancelOutcome::Unknown => proto::cancel_reply(job_id, "already_terminal", None),
        },
    }
}

/// Queues a submit reply in request order: while earlier admissions sit
/// parked awaiting durability, an already-resolved reply (a rejection)
/// parks behind them instead of overtaking their `accepted` lines on
/// the wire — clients match burst replies positionally.
fn submit_reply(conn: &mut Conn, event: Json) {
    if conn.pending.is_empty() {
        queue_event(&mut conn.wbuf, &event);
    } else {
        conn.pending.push(PendingReply::Resolved(event));
    }
}

/// Admission: engine submit, then journal append (durability parked for
/// the iteration barrier) or immediate acceptance without a journal.
fn handle_submit(conn: &mut Conn, spec: Json, shared: &Arc<DaemonShared>) {
    if shared.draining.load(Ordering::SeqCst) {
        submit_reply(
            conn,
            proto::rejected("draining", "daemon is draining; no new jobs"),
        );
        return;
    }
    let Some(tenant) = conn.tenant.clone() else {
        submit_reply(
            conn,
            proto::rejected("unauthenticated", "send hello with a tenant first"),
        );
        return;
    };
    let spec = match JobSpec::from_json(&spec) {
        Ok(s) => s,
        Err(e) => {
            submit_reply(conn, proto::rejected("invalid_spec", &e.to_string()));
            return;
        }
    };
    let submitted = shared.engine.submit_op_with_deadline(
        &tenant,
        spec.torus_shape(),
        spec.op,
        spec.payload,
        spec.runtime_config(),
        spec.deadline,
    );
    match submitted {
        Ok(handle) => match &shared.journal {
            Some(journal) => match journal.append_accepted(handle.id(), &tenant, spec.to_json()) {
                Ok(seq) => conn.pending.push(PendingReply::Admission { handle, seq }),
                Err(e) => reject_undurable(conn, shared, handle, &e),
            },
            None => accept_job(conn, shared, handle),
        },
        Err(SubmitError::QueueFull {
            depth,
            retry_after_ms,
        }) => {
            submit_reply(
                conn,
                proto::rejected_backoff(
                    "queue_full",
                    &format!("global queue at depth {depth}"),
                    retry_after_ms,
                ),
            );
        }
        Err(SubmitError::TenantQueueFull {
            tenant,
            max_queued,
            retry_after_ms,
        }) => {
            submit_reply(
                conn,
                proto::rejected_backoff(
                    "tenant_queue_full",
                    &format!("tenant {tenant:?} at its queued-jobs quota ({max_queued})"),
                    retry_after_ms,
                ),
            );
        }
        Err(SubmitError::RateLimited {
            tenant,
            retry_after_ms,
        }) => {
            submit_reply(
                conn,
                proto::rejected_backoff(
                    "rate_limited",
                    &format!("tenant {tenant:?} is over its admission rate"),
                    retry_after_ms,
                ),
            );
        }
        Err(SubmitError::ShuttingDown) => submit_reply(
            conn,
            proto::rejected("draining", "daemon is draining; no new jobs"),
        ),
    }
}

/// The admission is durable (or the daemon runs journal-free): register
/// it, acknowledge it, and start streaming its lifecycle.
fn accept_job(conn: &mut Conn, shared: &DaemonShared, handle: JobHandle) {
    let tenant = conn.tenant.as_deref().unwrap_or("");
    shared.registry.register_live(handle.clone(), tenant);
    queue_event(&mut conn.wbuf, &proto::accepted(handle.id()));
    conn.tracks.push(JobTrack {
        handle,
        last_state: "",
        polls: 0,
        wakes_on_finish: false,
    });
}

/// The journal could not make the admission durable: the daemon must
/// not acknowledge a job it could lose, so cancel it out of the queue
/// and reject with the typed `journal_unavailable` reason.
fn reject_undurable(conn: &mut Conn, shared: &DaemonShared, handle: JobHandle, err: &JournalError) {
    let id = handle.id();
    let canceled = shared.engine.cancel_queued(id);
    if canceled {
        // Best-effort terminal record: if the appended admission ever
        // reaches disk (page cache surviving this process's sync
        // failure), replay must not resurrect a job whose client heard
        // `rejected`.
        if let Some(journal) = &shared.journal {
            let _ = journal.record_done(
                id,
                false,
                false,
                None,
                Some("canceled: admission journal unavailable"),
            );
        }
        shared.registry.finish(
            id,
            conn.tenant.as_deref(),
            Terminal {
                ok: false,
                degraded: false,
                checksum: None,
                error: Some("canceled: admission journal unavailable".into()),
                recovered: false,
                status: JobStatus::Failed,
            },
        );
    } else {
        // A driver claimed the job before the cancel landed; it runs to
        // completion engine-side. The client still gets the rejection —
        // the admission was never durable — but the registry keeps the
        // handle so `status` stays answerable.
        shared
            .registry
            .register_live(handle, conn.tenant.as_deref().unwrap_or(""));
    }
    submit_reply(
        conn,
        proto::rejected(
            "journal_unavailable",
            &format!("admission journal unavailable: {err}"),
        ),
    );
}

/// Streams tracked jobs: a `status` line per transition (plus periodic
/// heartbeats), then the final `done`, after which the track is
/// dropped.
fn pump_tracks(conn: &mut Conn, shared: &DaemonShared) {
    if conn.tracks.is_empty() || conn.dead {
        return;
    }
    let mut tracks = std::mem::take(&mut conn.tracks);
    let lone = tracks.len() == 1;
    tracks.retain_mut(|track| {
        let state = match track.handle.try_status() {
            JobStatus::Queued => "queued",
            JobStatus::Running => {
                // The connection's only job, still running at a later
                // pump than the admitting one: ring the reactor when it
                // finishes, so its `done` goes out then rather than on
                // the next poll. Without this a job's latency is its run
                // time rounded up to the poll grid, which jumps by a
                // whole `status_poll` when the run time crosses a tick.
                // Short jobs, and connections with several in flight,
                // stay with the poll: a wake per job costs a pipe write
                // and a reactor iteration, and each wake's iteration saw
                // the next running job and armed it in turn, which cost
                // `wire_burst` its batching (ROADMAP item 3).
                if lone && !track.wakes_on_finish && track.polls > 0 {
                    let waker = Arc::clone(&shared.waker);
                    track.handle.on_finish(move || waker.wake());
                    track.wakes_on_finish = true;
                }
                "running"
            }
            status => {
                // Terminal (completed, failed, cancelled, or past its
                // deadline), so `wait` returns without blocking.
                let result = track.handle.wait();
                queue_event(&mut conn.wbuf, &done_event(status, &result));
                return false;
            }
        };
        if state != track.last_state || track.polls.is_multiple_of(shared.heartbeat_polls) {
            queue_event(&mut conn.wbuf, &proto::status(track.handle.id(), state));
            track.last_state = state;
        }
        track.polls += 1;
        true
    });
    conn.tracks = tracks;
}

/// Writes as much queued output as the socket accepts.
fn flush_writes(conn: &mut Conn) {
    while conn.wpos < conn.wbuf.len() {
        match conn.stream.write(&conn.wbuf[conn.wpos..]) {
            Ok(0) => {
                conn.dead = true;
                return;
            }
            Ok(n) => conn.wpos += n,
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => {
                conn.dead = true;
                return;
            }
        }
    }
    if conn.wpos == conn.wbuf.len() {
        conn.wbuf.clear();
        conn.wpos = 0;
    } else if conn.wbuf.len() - conn.wpos > MAX_WRITE_BUFFER {
        conn.dead = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The oversized-line cap must fire on one unterminated line past
    /// the limit — and only on that, never on a backlog of small
    /// complete lines deferred behind a parked batch or drain reply.
    #[test]
    fn line_cap_applies_to_the_unterminated_tail_only() {
        let small_line = b"{\"op\":\"ping\"}\n";
        let mut deferred: Vec<u8> = Vec::new();
        while deferred.len() <= MAX_LINE_BYTES + small_line.len() {
            deferred.extend_from_slice(small_line);
        }
        assert!(
            !oversized_tail(&deferred),
            "complete small lines must pass no matter how many are buffered"
        );

        let mut with_tail = deferred.clone();
        with_tail.extend_from_slice(&vec![b'x'; MAX_LINE_BYTES + 1]);
        assert!(
            oversized_tail(&with_tail),
            "an oversized unterminated tail must trip the cap"
        );

        assert!(!oversized_tail(&vec![b'x'; MAX_LINE_BYTES]));
        assert!(oversized_tail(&vec![b'x'; MAX_LINE_BYTES + 1]));
        assert!(!oversized_tail(b""));
    }

    /// Regression for a lost-wakeup race: the old drain cleared the
    /// `pending` flag *before* reading the pipe, so a wake landing in
    /// between had its byte consumed while the flag ended up set —
    /// every later wake elided against an empty pipe, permanently.
    /// Hammer wake/drain from two threads and then prove a fresh wake
    /// still makes the pipe readable.
    #[test]
    fn waker_survives_racing_wakes() {
        let waker = Arc::new(Waker::new().expect("wake pipe"));

        fn readable(waker: &Waker, timeout_ms: c_int) -> bool {
            let mut fds = [PollFd {
                fd: waker.rd,
                events: POLLIN,
                revents: 0,
            }];
            unsafe { poll(fds.as_mut_ptr(), 1, timeout_ms) > 0 }
        }

        let racer = {
            let waker = Arc::clone(&waker);
            std::thread::spawn(move || {
                for _ in 0..20_000 {
                    waker.wake();
                }
            })
        };
        // Drain as the racer wakes — only ever after POLLIN, as the
        // reactor does (the pipe is blocking).
        while !racer.is_finished() {
            if readable(&waker, 1) {
                waker.drain();
            }
        }
        racer.join().unwrap();
        while readable(&waker, 0) {
            waker.drain();
        }

        // The pipe must still be armed: one wake, one POLLIN.
        waker.wake();
        assert!(
            readable(&waker, 1_000),
            "a wake after heavy wake/drain interleaving must still reach poll"
        );
    }
}
