//! The core with no sockets, no sleeps and no real clock. A scripted
//! [`Backend`] stands in for the engine, the journal and the registry;
//! a test shell feeds [`Input`]s in the order the real shell does, and
//! time moves only when a test advances it. The proptest draws whole
//! interleavings from one seed — several connections, pipelined
//! submits, rejections mid-burst, failed appends and syncs, partial
//! writes, half-closes and resets, idle time and a drain — and checks
//! the rules the socket suites state:
//!
//! * per connection, replies leave in request order, each the answer
//!   the backend gave that request;
//! * no `accepted` leaves before a `Durable` that covers it;
//! * the drain completes, the daemon exits as soon as nothing is owed,
//!   and every job owed a `done` gets exactly one;
//! * the admission bound holds: no more jobs acknowledged and unfinished
//!   than the queue depth.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use proptest::prelude::*;

use super::*;
use crate::json;

/// The scripted engine's global queue depth.
const DEPTH: usize = 4;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Fate {
    Queued,
    Running,
    Done,
}

struct ScriptedJob {
    fate: Fate,
    /// The core asked to be woken when the job finishes.
    armed: bool,
    /// Admission sequence of its journal record, once appended.
    seq: Option<u64>,
}

/// What the core asked of the backend, and what the test scripted it to
/// answer.
#[derive(Default)]
struct Engine {
    /// Job `id` is `jobs[id - 1]`.
    jobs: Vec<ScriptedJob>,
    /// Per tenant, what each submit that reached the engine got: the
    /// job id, or the refusal's reason.
    submits: HashMap<String, Vec<Result<u64, &'static str>>>,
    journal: bool,
    appended: u64,
    /// The next append fails.
    fail_append: bool,
    drains_started: u32,
}

impl Engine {
    fn job(&mut self, id: u64) -> &mut ScriptedJob {
        &mut self.jobs[id as usize - 1]
    }

    fn live(&self) -> usize {
        self.jobs.iter().filter(|j| j.fate != Fate::Done).count()
    }
}

#[derive(Clone, Default)]
struct Scripted(Rc<RefCell<Engine>>);

fn event(ev: &str, job_id: u64) -> Json {
    Json::obj([("ev", Json::str(ev)), ("job_id", Json::u64(job_id))])
}

impl Backend for Scripted {
    type Job = u64;

    fn submit(&self, tenant: &str, _spec: &JobSpec) -> Result<(u64, u64), SubmitError> {
        let mut engine = self.0.borrow_mut();
        let outcome = if engine.drains_started > 0 {
            Err("draining")
        } else if engine.live() >= DEPTH {
            Err("queue_full")
        } else {
            engine.jobs.push(ScriptedJob {
                fate: Fate::Queued,
                armed: false,
                seq: None,
            });
            Ok(engine.jobs.len() as u64)
        };
        engine
            .submits
            .entry(tenant.to_string())
            .or_default()
            .push(outcome);
        match outcome {
            Ok(id) => Ok((id, id)),
            Err("draining") => Err(SubmitError::ShuttingDown),
            Err(_) => Err(SubmitError::QueueFull {
                depth: DEPTH,
                retry_after_ms: 1,
            }),
        }
    }

    fn append(&self, id: u64, _tenant: &str, _spec: &JobSpec) -> Result<Option<u64>, String> {
        let mut engine = self.0.borrow_mut();
        if !engine.journal {
            return Ok(None);
        }
        if std::mem::take(&mut engine.fail_append) {
            return Err("scripted append failure".to_string());
        }
        engine.appended += 1;
        let seq = engine.appended;
        engine.job(id).seq = Some(seq);
        Ok(Some(seq))
    }

    fn accept(&self, _job: &u64, _tenant: &str) {}

    fn reject_undurable(&self, job: u64, _tenant: &str) {
        let mut engine = self.0.borrow_mut();
        let job = engine.job(job);
        if job.fate == Fate::Queued {
            job.fate = Fate::Done;
        }
    }

    fn poll(&self, job: &u64) -> JobPoll {
        match self.0.borrow_mut().job(*job).fate {
            Fate::Queued => JobPoll::Queued,
            Fate::Running => JobPoll::Running,
            Fate::Done => JobPoll::Done(event("done", *job)),
        }
    }

    fn wake_on_finish(&self, job: &u64) {
        self.0.borrow_mut().job(*job).armed = true;
    }

    fn status(&self, job_id: u64) -> Json {
        event("job_status", job_id)
    }

    fn cancel(&self, job_id: u64, _tenant: &str) -> Json {
        event("cancel", job_id)
    }

    fn stats(&self, idle_reaped: u64) -> Json {
        event("stats", idle_reaped)
    }

    fn start_drain(&self) {
        self.0.borrow_mut().drains_started += 1;
    }
}

const HELLO: &str = r#"{"op":"hello","tenant":"acme"}"#;
const SUBMIT: &str = r#"{"op":"submit","spec":{"shape":[4,4],"block_bytes":32}}"#;
const BAD_SUBMIT: &str = r#"{"op":"submit","spec":{"shape":"4x4"}}"#;
const DRAIN: &str = r#"{"op":"drain"}"#;
const STATUS: &str = r#"{"op":"status","job_id":1}"#;

/// A core on a scripted backend, and the clock and client side of every
/// connection, driven by hand.
struct Rig {
    core: Core<Scripted>,
    engine: Scripted,
    now: Instant,
    /// Per connection, every byte written to it.
    received: Vec<Vec<u8>>,
}

impl Rig {
    fn new(status_poll: Duration, heartbeat_polls: u32, idle: Option<Duration>) -> Self {
        let engine = Scripted::default();
        engine.0.borrow_mut().journal = true;
        Self {
            core: Core::new(
                engine.clone(),
                &DaemonConfig {
                    status_poll,
                    heartbeat_polls,
                    idle_timeout: idle,
                    ..DaemonConfig::default()
                },
            ),
            engine,
            // An arbitrary origin: the core only ever sees it advanced by
            // the durations a test chooses.
            now: Instant::now(),
            received: Vec::new(),
        }
    }

    fn connect(&mut self) -> usize {
        self.core.handle(self.now, Input::Accepted);
        self.received.push(Vec::new());
        self.received.len() - 1
    }

    fn send(&mut self, conn: usize, line: &str) {
        let bytes = format!("{line}\n");
        self.core
            .handle(self.now, Input::Read(conn, bytes.as_bytes()));
    }

    /// One whole iteration after the inputs: the tick with its sync
    /// succeeding, every queued byte written, then the core's decision.
    fn iterate(&mut self) -> Option<Poll> {
        if let Some(seq) = self.core.handle(self.now, Input::Tick) {
            self.core.handle(self.now, Input::Durable(seq, Ok(())));
        }
        for (conn, received) in self.received.iter_mut().enumerate() {
            let queued = self.core.unflushed(conn);
            received.extend_from_slice(queued);
            let n = queued.len();
            self.core.handle(self.now, Input::Written(conn, n));
        }
        let received = &mut self.received;
        self.core.next(self.now, |i| {
            received.swap_remove(i);
        })
    }

    fn events(&self, conn: usize) -> Vec<Json> {
        lines(&self.received[conn])
    }

    fn set_fate(&self, id: u64, fate: Fate) {
        self.engine.0.borrow_mut().job(id).fate = fate;
    }
}

/// Every complete line of `bytes`, parsed.
fn lines(bytes: &[u8]) -> Vec<Json> {
    let end = bytes.iter().rposition(|&b| b == b'\n').map_or(0, |p| p + 1);
    String::from_utf8_lossy(&bytes[..end])
        .lines()
        .map(|line| json::parse(line).expect("the core writes JSON lines"))
        .collect()
}

fn ev(event: &Json) -> &str {
    event.get("ev").and_then(Json::as_str).unwrap_or("")
}

/// The core's half of
/// `lifecycle_wire::a_running_job_reports_done_when_it_finishes_not_on_the_next_poll`:
/// under a 5 s status poll, a connection's only job, seen running at a
/// later tick than the one that admitted it, is armed to wake the
/// reactor, and its `done` leaves on the iteration that wake starts.
#[test]
fn a_running_job_reports_done_when_it_finishes_not_on_the_next_poll() {
    let status_poll = Duration::from_secs(5);
    let mut rig = Rig::new(status_poll, 250, None);
    let conn = rig.connect();
    rig.send(conn, HELLO);
    rig.send(conn, SUBMIT);
    let poll = rig.iterate().expect("serving");
    assert_eq!(
        poll.timeout, status_poll,
        "a tracked job keeps the reactor on the tick"
    );
    assert!(
        !rig.engine.0.borrow_mut().job(1).armed,
        "the admitting tick arms nothing"
    );

    // A `status` query is an iteration of its own: the job runs.
    rig.set_fate(1, Fate::Running);
    rig.now += Duration::from_millis(1);
    rig.send(conn, STATUS);
    assert_eq!(rig.iterate().expect("serving").timeout, status_poll);
    assert!(
        rig.engine.0.borrow_mut().job(1).armed,
        "the lone running job must be armed to wake the reactor"
    );

    // It finishes 300 ms in; its wake starts an iteration then, long
    // before the 5 s poll would time out.
    rig.set_fate(1, Fate::Done);
    rig.now += Duration::from_millis(300);
    rig.iterate().expect("serving");
    let events = rig.events(conn);
    let kinds: Vec<&str> = events.iter().map(ev).collect();
    assert_eq!(
        kinds,
        [
            "hello_ok",
            "accepted",
            "status",
            "job_status",
            "status",
            "done"
        ]
    );
}

/// The core's half of
/// `lifecycle_wire::a_drained_daemon_exits_on_the_wake_not_on_the_next_poll`:
/// under a 30 s status poll, the iteration the drain helper's wake
/// starts delivers `drained`, and the core then decides to exit rather
/// than poll again.
#[test]
fn a_drained_daemon_exits_on_the_wake_not_on_the_next_poll() {
    let mut rig = Rig::new(Duration::from_secs(30), 250, None);
    let conn = rig.connect();
    rig.send(conn, HELLO);
    rig.send(conn, SUBMIT);
    rig.iterate().expect("serving");
    rig.set_fate(1, Fate::Done);
    rig.now += Duration::from_millis(1);
    rig.send(conn, STATUS);
    rig.iterate().expect("serving");
    rig.now += Duration::from_millis(1);
    rig.send(conn, DRAIN);
    rig.iterate().expect("serving until the verdict");
    assert_eq!(rig.engine.0.borrow().drains_started, 1);
    assert!(rig.core.draining && rig.core.drained.is_none());

    // The helper publishes and wakes the reactor.
    rig.now += Duration::from_millis(1);
    rig.core
        .handle(rig.now, Input::Drained(event("drained", 0)));
    let next = rig.iterate();
    assert_eq!(ev(rig.events(conn).last().unwrap()), "drained");
    assert!(
        next.is_none(),
        "a drained daemon owed nothing must exit, not poll for another {:?}",
        next.map(|p| p.timeout)
    );
}

/// The oversized-line cap must fire on one unterminated line past the
/// limit — and only on that, never on a backlog of small complete lines
/// deferred behind a parked batch or drain reply.
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

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

struct Rng(u64);

impl Rng {
    /// `true` with probability 1/`n`.
    fn one_in(&mut self, n: u64) -> bool {
        self.below(n) == 0
    }

    fn below(&mut self, n: u64) -> u64 {
        splitmix64(&mut self.0) % n
    }
}

/// One request a scripted client sends, and the reply kinds that may
/// answer it.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Req {
    Hello,
    Submit,
    BadSubmit,
    Ping,
    Status,
    Cancel,
    Stats,
    Malformed,
    Drain,
}

impl Req {
    fn line(self, tenant: &str) -> String {
        match self {
            Req::Hello => format!(r#"{{"op":"hello","tenant":"{tenant}"}}"#),
            Req::Submit => SUBMIT.to_string(),
            Req::BadSubmit => BAD_SUBMIT.to_string(),
            Req::Ping => r#"{"op":"ping"}"#.to_string(),
            Req::Status => STATUS.to_string(),
            Req::Cancel => r#"{"op":"cancel","job_id":1}"#.to_string(),
            Req::Stats => r#"{"op":"stats"}"#.to_string(),
            Req::Malformed => "{nope".to_string(),
            Req::Drain => DRAIN.to_string(),
        }
    }

    fn replies(self) -> &'static [&'static str] {
        match self {
            Req::Hello => &["hello_ok"],
            Req::Submit | Req::BadSubmit => &["accepted", "rejected"],
            Req::Ping => &["pong"],
            Req::Status => &["job_status"],
            Req::Cancel => &["cancel", "rejected"],
            Req::Stats => &["stats"],
            Req::Malformed => &["error"],
            Req::Drain => &["drained"],
        }
    }
}

/// A scripted client: what it sends, and what it has been sent.
struct Client {
    tenant: String,
    hello: bool,
    requests: Vec<Req>,
    bytes: Vec<u8>,
    sent: usize,
    half_closed: bool,
    /// The test reset the socket: nothing more is owed to it.
    reset: bool,
    received: Vec<u8>,
    /// `received` up to here has been checked line by line.
    checked: usize,
}

impl Client {
    fn scripted(k: usize, rng: &mut Rng) -> Self {
        let tenant = format!("t{k}");
        let hello = !rng.one_in(8);
        let mut requests = Vec::new();
        if hello {
            requests.push(Req::Hello);
        }
        for _ in 0..1 + rng.below(12) {
            requests.push(match rng.below(13) {
                0..=6 => Req::Submit,
                7 => Req::BadSubmit,
                8 => Req::Ping,
                9 => Req::Status,
                10 => Req::Cancel,
                11 => Req::Stats,
                _ => Req::Malformed,
            });
        }
        if rng.one_in(4) {
            requests.push(Req::Drain);
        }
        let bytes = requests
            .iter()
            .flat_map(|r| format!("{}\n", r.line(&tenant)).into_bytes())
            .collect();
        Self {
            tenant,
            hello,
            requests,
            bytes,
            sent: 0,
            half_closed: false,
            reset: false,
            received: Vec::new(),
            checked: 0,
        }
    }

    /// Requests whose whole line the core has read.
    fn requests_sent(&self) -> usize {
        self.bytes[..self.sent]
            .iter()
            .filter(|&&b| b == b'\n')
            .count()
    }

    /// The lines completed since the last call.
    fn new_lines(&mut self) -> Vec<Json> {
        let start = self.checked;
        let new = &self.received[start..];
        self.checked += new.iter().rposition(|&b| b == b'\n').map_or(0, |p| p + 1);
        lines(new)
    }
}

/// Runs one seeded interleaving to the daemon's exit and checks it.
fn interleaving(seed: u64) -> Result<(), String> {
    let mut rng = Rng(seed);
    let status_poll = Duration::from_millis(1 + rng.below(3));
    let idle = rng
        .one_in(3)
        .then(|| Duration::from_millis(20 + rng.below(40)));
    let mut rig = Rig::new(status_poll, 1 + rng.below(4) as u32, idle);
    rig.engine.0.borrow_mut().journal = !rng.one_in(5);
    let mut waiting: Vec<Client> = (0..2 + rng.below(3) as usize)
        .map(|k| Client::scripted(k, &mut rng))
        .collect();
    // `clients[i]` is the core's connection `i`.
    let mut clients: Vec<Client> = Vec::new();
    let mut finished: Vec<Client> = Vec::new();
    let mut sync_failed = false;
    // The highest admission sequence a successful sync covered.
    let mut durable_through = 0;
    // Jobs whose `accepted` has left.
    let mut acked: Vec<u64> = Vec::new();
    let mut poll = rig.core.next(rig.now, |_| {}).expect("serving");

    for step in 0..20_000u32 {
        // What the poll found.
        let mut woke = false;
        for (i, client) in clients.iter_mut().enumerate() {
            if client.reset || !rig.core.reading(i) || !rng.one_in(2) {
                continue;
            }
            if rng.one_in(300) {
                client.reset = true;
                rig.core.handle(rig.now, Input::Closed(i));
            } else if client.sent < client.bytes.len() {
                let left = client.bytes.len() - client.sent;
                let n = if rng.one_in(2) {
                    left
                } else {
                    1 + rng.below(left as u64) as usize
                };
                let chunk = &client.bytes[client.sent..client.sent + n];
                rig.core.handle(rig.now, Input::Read(i, chunk));
                client.sent += n;
                woke = true;
            } else if !client.half_closed && rng.one_in(6) {
                client.half_closed = true;
                rig.core.handle(rig.now, Input::Eof(i));
                woke = true;
            }
        }
        if poll.accept && !waiting.is_empty() && rng.one_in(2) {
            if rng.one_in(40) {
                rig.core.handle(rig.now, Input::AcceptFailed);
            } else {
                for _ in 0..1 + rng.below(waiting.len() as u64) {
                    clients.push(waiting.remove(0));
                    rig.core.handle(rig.now, Input::Accepted);
                }
                woke = true;
            }
        }
        {
            let mut engine = rig.engine.0.borrow_mut();
            for job in engine.jobs.iter_mut().filter(|j| j.fate != Fate::Done) {
                if rng.one_in(3) {
                    job.fate = if job.fate == Fate::Queued {
                        Fate::Running
                    } else {
                        Fate::Done
                    };
                    woke |= job.fate == Fate::Done && job.armed;
                }
            }
            engine.fail_append = rng.one_in(25);
        }
        if rng.one_in(400) || (step == 600 && !rig.core.draining) {
            rig.core.handle(rig.now, Input::Drain);
        }
        let published = {
            let engine = rig.engine.0.borrow();
            engine.drains_started > 0 && engine.live() == 0
        };
        if rig.core.drained.is_none() && published && rng.one_in(2) {
            rig.core
                .handle(rig.now, Input::Drained(event("drained", 0)));
            woke = true;
        }

        // The tick, and the sync it asks for; like the journal's, a sync
        // failure is sticky.
        if let Some(seq) = rig.core.handle(rig.now, Input::Tick) {
            sync_failed |= rng.one_in(12);
            let synced = if sync_failed {
                Err("scripted sync failure".to_string())
            } else {
                durable_through = seq;
                Ok(())
            };
            rig.core.handle(rig.now, Input::Durable(seq, synced));
        }

        // Writes: whole, partial, none (`WouldBlock`) or a failed socket.
        for (i, client) in clients.iter_mut().enumerate() {
            let queued = rig.core.unflushed(i);
            if queued.is_empty() {
                continue;
            }
            woke = true;
            if rng.one_in(500) {
                client.reset = true;
                rig.core.handle(rig.now, Input::Closed(i));
                continue;
            }
            let n = match rng.below(8) {
                0 => continue,
                1..=3 => 1 + rng.below(queued.len() as u64) as usize,
                _ => queued.len(),
            };
            client.received.extend_from_slice(&queued[..n]);
            rig.core.handle(rig.now, Input::Written(i, n));
            for event in client.new_lines() {
                if ev(&event) != "accepted" {
                    continue;
                }
                let id = event.get("job_id").and_then(Json::as_u64).unwrap();
                let seq = rig.engine.0.borrow_mut().job(id).seq;
                if seq.is_some_and(|seq| seq > durable_through) {
                    return Err(format!(
                        "step {step}: `accepted` for job {id} (sequence {seq:?}) left before a sync covered it (durable through {durable_through})"
                    ));
                }
                acked.push(id);
            }
        }
        {
            let mut engine = rig.engine.0.borrow_mut();
            let unfinished = acked
                .iter()
                .filter(|&&id| engine.job(id).fate != Fate::Done)
                .count();
            if unfinished > DEPTH {
                return Err(format!(
                    "step {step}: {unfinished} acknowledged jobs unfinished, queue depth {DEPTH}"
                ));
            }
            if engine.drains_started > 1 {
                return Err(format!(
                    "step {step}: {} drain helpers",
                    engine.drains_started
                ));
            }
        }

        let next = rig
            .core
            .next(rig.now, |i| finished.push(clients.swap_remove(i)));
        let Some(next) = next else {
            finished.append(&mut clients);
            return check_replies(&rig, &finished);
        };
        if rig.core.drained.is_some() && rig.core.conns.iter().all(|c| !c.owed(true)) {
            return Err(format!(
                "step {step}: closed and owed nothing, the core polls again ({:?})",
                next.timeout
            ));
        }
        poll = next;
        // The poll returns at once on any event; otherwise it sleeps its
        // whole timeout.
        rig.now += if woke {
            Duration::from_micros(rng.below(1_000))
        } else {
            poll.timeout
        };
    }
    Err("the drain never completed".to_string())
}

/// Checks every client's stream once the daemon has exited.
fn check_replies(rig: &Rig, clients: &[Client]) -> Result<(), String> {
    let engine = rig.engine.0.borrow();
    for client in clients {
        let tenant = &client.tenant;
        let events = lines(&client.received);
        let mut replies = events
            .iter()
            .filter(|e| !matches!(ev(e), "status" | "done"));
        let mut outcomes = engine.submits.get(tenant).into_iter().flatten();
        let mut accepted: Vec<u64> = Vec::new();
        for (k, &request) in client.requests.iter().enumerate() {
            let Some(reply) = replies.next() else {
                break;
            };
            let kind = ev(reply);
            if k >= client.requests_sent() || !request.replies().contains(&kind) {
                return Err(format!(
                    "{tenant}: reply {k} is {kind:?}, to a {request:?} (requests {:?})",
                    client.requests
                ));
            }
            if !matches!(request, Req::Submit | Req::BadSubmit) {
                continue;
            }
            let reason = reply.get("reason").and_then(Json::as_str);
            let expected = match reason {
                Some("unauthenticated") if !client.hello => continue,
                Some("invalid_spec") if request == Req::BadSubmit => continue,
                Some("draining") if rig.core.draining => continue,
                _ if request == Req::BadSubmit || !client.hello => None,
                _ => outcomes.next(),
            };
            let id = reply.get("job_id").and_then(Json::as_u64);
            match (expected, kind, reason) {
                (Some(Ok(job)), "accepted", _) if id == Some(*job) => accepted.push(*job),
                (Some(Ok(_)), "rejected", Some("journal_unavailable")) => {}
                (Some(Err(refused)), "rejected", Some(reason)) if reason == *refused => {}
                _ => {
                    return Err(format!(
                        "{tenant}: submit reply {k} {reply:?} answers engine outcome {expected:?}"
                    ))
                }
            }
        }
        let mut dones: HashMap<u64, usize> = HashMap::new();
        for event in events.iter().filter(|e| ev(e) == "done") {
            let id = event.get("job_id").and_then(Json::as_u64).unwrap();
            if !accepted.contains(&id) {
                return Err(format!(
                    "{tenant}: `done` for job {id}, never accepted here"
                ));
            }
            *dones.entry(id).or_default() += 1;
        }
        for &id in &accepted {
            let count = dones.get(&id).copied().unwrap_or(0);
            if count > 1 || (count == 0 && !client.reset) {
                return Err(format!("{tenant}: job {id} got {count} `done` events"));
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The four rules over seeded interleavings; a failure names its seed.
    #[test]
    fn seeded_interleavings_keep_the_reactor_rules(seed in any::<u64>()) {
        let verdict = interleaving(seed);
        prop_assert!(verdict.is_ok(), "seed {seed:#x}: {}", verdict.unwrap_err());
    }
}
