//! Drain-helper dedup: repeated `drain` requests must share one helper
//! thread, not spawn one each — the daemon's "thread count is a
//! function of configuration, never of client behavior" invariant has
//! to hold even for clients that spam the drain op. Every drain caller
//! still gets the final stats, all answered from the single published
//! verdict.
//!
//! Lives in its own test binary because it counts the threads of the
//! whole process via `/proc/self/task`; sharing a process with other
//! daemon-spawning tests would make the counts meaningless.

#![cfg(target_os = "linux")]

use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::TcpStream;
use std::time::Duration;

use torus_service::EngineConfig;
use torus_serviced::{Client, Daemon, DaemonConfig, JobSpec};

fn threads_now() -> usize {
    std::fs::read_dir("/proc/self/task").unwrap().count()
}

fn seeded_spec(seed: u64) -> JobSpec {
    JobSpec {
        shape: vec![4, 4],
        block_bytes: 32,
        payload: torus_service::PayloadSpec::Seeded { seed },
        ..JobSpec::default()
    }
}

#[test]
fn repeated_drains_share_one_helper_thread() {
    const DRAINERS: usize = 8;
    const JOBS: u64 = 600;

    let config = DaemonConfig {
        engine: EngineConfig::default()
            .with_pool_size(2)
            .with_drivers(1) // one driver: the drain has real work left
            .with_queue_depth(JOBS as usize + 8),
        status_poll: Duration::from_millis(1),
        ..DaemonConfig::default()
    };
    let (addr, daemon) = Daemon::spawn(config).unwrap();

    // Warm up one full round-trip so the baseline holds every lazily
    // started daemon thread.
    let mut client = Client::connect(addr).unwrap();
    client.hello("acme").unwrap();
    let warm = client.submit(&seeded_spec(0)).unwrap();
    assert!(client.wait_done(warm).unwrap().ok);
    let baseline = threads_now();

    // Queue enough work that the drain stays in flight while we watch
    // the thread count.
    let specs: Vec<JobSpec> = (1..=JOBS).map(seeded_spec).collect();
    let accepted = client.submit_batch(&specs).unwrap();
    assert_eq!(accepted.len() as u64, JOBS);
    for reply in accepted {
        reply.expect("queue sized for the burst");
    }

    // Raw sockets (not `Client`) so all the drain requests go out
    // without blocking on replies — and without client-side threads
    // polluting the process thread count.
    let drainers: Vec<TcpStream> = (0..DRAINERS)
        .map(|_| {
            let mut stream = TcpStream::connect(addr).unwrap();
            stream.write_all(b"{\"op\":\"drain\"}\n").unwrap();
            stream
        })
        .collect();

    // Sample the thread count until the first drain verdict arrives:
    // while the engine drains, the daemon may run exactly one helper —
    // never one per drain request.
    let mut readers: Vec<BufReader<TcpStream>> = drainers
        .into_iter()
        .map(|s| {
            s.set_read_timeout(Some(Duration::from_millis(1))).unwrap();
            BufReader::new(s)
        })
        .collect();
    let mut peak = baseline;
    let mut first_reply = String::new();
    loop {
        peak = peak.max(threads_now());
        match readers[0].read_line(&mut first_reply) {
            Ok(0) => panic!("daemon closed a drain connection without a verdict"),
            Ok(_) if first_reply.ends_with('\n') => break,
            Ok(_) => {}
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => panic!("reading drain verdict: {e}"),
        }
    }
    assert!(
        peak <= baseline + 1,
        "drain requests each grew the daemon: baseline {baseline}, peak {peak} \
         across {DRAINERS} concurrent drains (at most one helper thread is allowed)"
    );

    // Every drain caller gets the same final verdict.
    let expected = JOBS + 1; // + the warm-up job
    let mut verdicts = vec![first_reply];
    for reader in &mut readers[1..] {
        reader
            .get_ref()
            .set_read_timeout(Some(Duration::from_secs(60)))
            .unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        verdicts.push(line);
    }
    for (i, line) in verdicts.iter().enumerate() {
        let event = torus_serviced::json::parse(line.trim_end()).unwrap();
        assert_eq!(
            event.get("ev").and_then(torus_serviced::json::Json::as_str),
            Some("drained"),
            "drainer {i} got {line:?}"
        );
        let completed = event
            .get("service")
            .and_then(|s| s.get("jobs_completed"))
            .and_then(torus_serviced::json::Json::as_u64)
            .unwrap_or_else(|| panic!("drainer {i} verdict lacks jobs_completed: {line:?}"));
        assert_eq!(
            completed, expected,
            "drainer {i} saw a different drain snapshot"
        );
    }

    let stats = daemon.join().unwrap();
    assert_eq!(stats.jobs_completed, expected);
}
