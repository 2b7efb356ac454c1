//! The reactor's shell: one thread doing every syscall for the
//! listener and every connection, while [`Core`] makes every decision.
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
//! * **A sans-I/O core.** [`reactor_loop`] reads the clock once
//!   per iteration, feeds what `poll` found to [`Core`], runs the journal
//!   sync a tick asks for, writes what the core queued and polls as
//!   [`Core::next`] says. Every decision is the core's ([`crate::core`]).

use std::io::{self, ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::os::raw::{c_int, c_ulong, c_void};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

use torus_service::{CancelOutcome, JobHandle, JobStatus, SubmitError};

use crate::core::{Backend, Core, Input, JobPoll};
use crate::journal::Journal;
use crate::json::Json;
use crate::proto;
use crate::server::{done_event, CancelLookup, DaemonShared, Terminal};
use crate::signal;
use crate::spec::JobSpec;

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

/// The daemon's side of the core's seam: the engine, the journal, the
/// registry, the waker and the drain helper.
impl Backend for Arc<DaemonShared> {
    type Job = JobHandle;

    fn submit(&self, tenant: &str, spec: &JobSpec) -> Result<(u64, JobHandle), SubmitError> {
        let job = self.engine.submit_op_with_deadline(
            tenant,
            spec.torus_shape(),
            spec.op,
            spec.payload,
            spec.runtime_config(),
            spec.deadline,
        )?;
        Ok((job.id(), job))
    }

    fn append(&self, id: u64, tenant: &str, spec: &JobSpec) -> Result<Option<u64>, String> {
        self.journal
            .as_ref()
            .map(|journal| journal.append_accepted(id, tenant, spec.to_json()))
            .transpose()
            .map_err(|e| e.to_string())
    }

    fn accept(&self, job: &JobHandle, tenant: &str) {
        self.registry.register_live(job.clone(), tenant);
    }

    fn reject_undurable(&self, job: JobHandle, tenant: &str) {
        let id = job.id();
        if self.engine.cancel_queued(id) {
            // Best-effort terminal record: if the appended admission ever
            // reaches disk (page cache surviving this process's sync
            // failure), replay must not resurrect a job whose client heard
            // `rejected`.
            if let Some(journal) = &self.journal {
                let _ = journal.record_done(
                    id,
                    false,
                    false,
                    None,
                    Some("canceled: admission journal unavailable"),
                );
            }
            self.registry.finish(
                id,
                Some(tenant),
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
            // A driver claimed the job before the cancel landed; it runs
            // to completion engine-side. The client still gets the
            // rejection — the admission was never durable — but the
            // registry keeps the handle so `status` stays answerable.
            self.registry.register_live(job, tenant);
        }
    }

    fn poll(&self, job: &JobHandle) -> JobPoll {
        match job.try_status() {
            JobStatus::Queued => JobPoll::Queued,
            JobStatus::Running => JobPoll::Running,
            // Terminal (completed, failed, cancelled, or past its
            // deadline), so `wait` returns without blocking.
            status => JobPoll::Done(done_event(status, &job.wait())),
        }
    }

    fn wake_on_finish(&self, job: &JobHandle) {
        let waker = Arc::clone(&self.waker);
        job.on_finish(move || waker.wake());
    }

    fn status(&self, job_id: u64) -> Json {
        crate::server::status_reply(self, job_id)
    }

    /// Ownership is checked against the registry before the engine is
    /// asked anything, so one tenant can neither cancel nor probe another
    /// tenant's job ids. The engine racing a cancelled job to terminal is
    /// fine: the registry's event-hook record or a final
    /// [`CancelOutcome::Unknown`] both map to `already_terminal`.
    fn cancel(&self, job_id: u64, tenant: &str) -> Json {
        match self.registry.cancel_lookup(job_id, tenant) {
            CancelLookup::Unknown => proto::cancel_reply(job_id, "unknown", None),
            CancelLookup::Forbidden => proto::cancel_reply(job_id, "forbidden", None),
            CancelLookup::Terminal(state) => {
                proto::cancel_reply(job_id, "already_terminal", Some(state))
            }
            CancelLookup::Live(job) => match self.engine.cancel(&job) {
                CancelOutcome::Cancelled => proto::cancel_reply(job_id, "cancelled", None),
                CancelOutcome::Cancelling => proto::cancel_reply(job_id, "cancelling", None),
                // Raced to terminal between the registry lookup and the
                // engine call; the event hook has (or is about to have)
                // recorded the outcome.
                CancelOutcome::Unknown => proto::cancel_reply(job_id, "already_terminal", None),
            },
        }
    }

    fn stats(&self, idle_reaped: u64) -> Json {
        let journal_stats = self.journal.as_deref().map(Journal::stats);
        let (live, terminal) = self.registry.counts();
        let daemon = Json::obj([
            ("registry_live", Json::u64(live as u64)),
            ("registry_terminal", Json::u64(terminal as u64)),
            ("idle_reaped", Json::u64(idle_reaped)),
        ]);
        proto::stats(
            &self.engine.stats(),
            &self.engine.tenant_stats(),
            journal_stats.as_ref(),
            Some(&daemon),
        )
    }

    /// Spawns the one drain helper: it waits out the engine drain,
    /// publishes the final `drained` event and wakes the reactor, which
    /// feeds it to the core. The core starts at most one, so however many
    /// drains arrive the daemon grows by at most one thread.
    fn start_drain(&self) {
        let shared = Arc::clone(self);
        std::thread::Builder::new()
            .name("serviced-drain".to_string())
            .spawn(move || {
                let stats = shared.engine.shutdown();
                *lk(&shared.drained_event) = Some(proto::drained(&stats));
                shared.waker.wake();
            })
            .expect("spawn drain helper");
    }
}

/// The reactor, woken by `shared.waker`; runs until the core says the
/// daemon exits. `streams[i]` is the core's connection `i`.
pub(crate) fn reactor_loop(
    mut core: Core<Arc<DaemonShared>>,
    shared: &DaemonShared,
    listener: &TcpListener,
) {
    let waker = &shared.waker;
    let mut streams: Vec<TcpStream> = Vec::new();
    // What the last `poll` returned: the wake pipe, the listener, then
    // every connection. Empty before the first poll.
    let mut fds: Vec<PollFd> = Vec::new();

    loop {
        // The shell's one clock read: every input of this iteration, and
        // the decisions of `next` below, see this instant.
        let now = Instant::now();
        if fds.first().is_some_and(|w| w.revents & POLLIN != 0) {
            waker.drain();
        }

        // Read every readable socket fully (edge towards exhaustion so
        // pipelined requests land in one iteration and batch).
        for (i, (stream, fd)) in streams.iter_mut().zip(fds.iter().skip(2)).enumerate() {
            if fd.revents & (POLLIN | POLLHUP | POLLERR) != 0 && core.reading(i) {
                read_ready(&mut core, now, i, stream);
            }
        }

        // Accept until `WouldBlock`, so a connect storm drains the
        // backlog in one pass instead of one connection per iteration.
        if fds.get(1).is_some_and(|l| l.revents & POLLIN != 0) {
            loop {
                match listener.accept() {
                    Ok((stream, _peer)) => {
                        if stream.set_nonblocking(true).is_ok() {
                            stream.set_nodelay(true).ok();
                            streams.push(stream);
                            core.handle(now, Input::Accepted);
                        }
                    }
                    Err(e) if e.kind() == ErrorKind::Interrupted => {}
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(_) => {
                        core.handle(now, Input::AcceptFailed);
                        break;
                    }
                }
            }
        }

        if signal::triggered() {
            core.handle(now, Input::Drain);
        }
        if let Some(verdict) = lk(&shared.drained_event).take() {
            core.handle(now, Input::Drained(verdict));
        }
        // Durability barrier: one sync on the highest sequence parked
        // this iteration covers every admission before it.
        if let Some(seq) = core.handle(now, Input::Tick) {
            let synced = shared.journal.as_ref().map_or(Ok(()), |journal| {
                journal.sync(seq).map_err(|e| e.to_string())
            });
            core.handle(now, Input::Durable(seq, synced));
        }

        for (i, stream) in streams.iter_mut().enumerate() {
            flush_writes(&mut core, now, i, stream);
        }

        // Dropping a connection's stream closes it; at exit, clients see
        // EOF after their final events.
        let Some(plan) = core.next(now, |i| drop(streams.swap_remove(i))) else {
            return;
        };
        fds.clear();
        fds.push(PollFd {
            fd: waker.rd,
            events: POLLIN,
            revents: 0,
        });
        fds.push(PollFd {
            fd: listener.as_raw_fd(),
            events: if plan.accept { POLLIN } else { 0 },
            revents: 0,
        });
        for (i, stream) in streams.iter().enumerate() {
            let (read, write) = core.interest(i);
            fds.push(PollFd {
                fd: stream.as_raw_fd(),
                events: if read { POLLIN } else { 0 } | if write { POLLOUT } else { 0 },
                revents: 0,
            });
        }
        let rc = unsafe {
            poll(
                fds.as_mut_ptr(),
                fds.len() as c_ulong,
                plan.timeout.as_millis().min(i32::MAX as u128) as c_int,
            )
        };
        if rc < 0 {
            if io::Error::last_os_error().kind() != ErrorKind::Interrupted {
                // poll itself failing is unrecoverable for this thread;
                // drop the connections rather than spinning.
                return;
            }
            fds.clear();
        }
    }
}

/// Drains connection `i`'s socket into the core.
fn read_ready(core: &mut Core<Arc<DaemonShared>>, now: Instant, i: usize, stream: &mut TcpStream) {
    let mut chunk = [0u8; 4096];
    loop {
        let input = match stream.read(&mut chunk) {
            Ok(0) => Input::Eof(i),
            Ok(n) => Input::Read(i, &chunk[..n]),
            Err(e) if e.kind() == ErrorKind::WouldBlock => return,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => Input::Closed(i),
        };
        let more = matches!(input, Input::Read(_, bytes) if bytes.len() == chunk.len());
        core.handle(now, input);
        if !more {
            return;
        }
    }
}

/// Writes as much of connection `i`'s queued output as the socket
/// accepts.
fn flush_writes(
    core: &mut Core<Arc<DaemonShared>>,
    now: Instant,
    i: usize,
    stream: &mut TcpStream,
) {
    loop {
        let queued = core.unflushed(i);
        if queued.is_empty() {
            return;
        }
        let input = match stream.write(queued) {
            Ok(n) if n > 0 => Input::Written(i, n),
            Err(e) if e.kind() == ErrorKind::WouldBlock => return,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            // A zero-byte write or a socket error: the peer is gone, and
            // a dead connection has nothing left to write.
            _ => Input::Closed(i),
        };
        core.handle(now, input);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
