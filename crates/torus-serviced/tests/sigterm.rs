//! SIGTERM drain semantics. Kept in its own test binary: the SIGTERM
//! flag is process-global, so this must not share a process with other
//! daemon tests running in parallel.

use std::time::Duration;

use torus_service::EngineConfig;
use torus_serviced::{signal, Client, Daemon, DaemonConfig, JobSpec};

#[test]
fn sigterm_drains_like_a_drain_request() {
    let config = DaemonConfig {
        engine: EngineConfig::default().with_pool_size(4).with_drivers(2),
        status_poll: Duration::from_millis(1),
        ..DaemonConfig::default()
    };
    let (addr, daemon) = Daemon::spawn(config.clone()).unwrap();
    let mut client = Client::connect(addr).unwrap();
    client.hello("ops").unwrap();

    let spec = JobSpec {
        shape: vec![4, 4],
        ..JobSpec::default()
    };
    let jobs: Vec<u64> = (0..4).map(|_| client.submit(&spec).unwrap()).collect();

    // A real SIGTERM, caught by the handler Daemon::run installed.
    signal::raise_sigterm();

    // The daemon drains: every admitted job finishes and run() returns
    // the final books.
    let stats = daemon.join().unwrap();
    assert_eq!(stats.jobs_completed, 4, "{}", stats.summary());
    for job in jobs {
        assert!(client.wait_done(job).unwrap().ok);
    }
    signal::reset();

    // An idle daemon — no connection, so no socket ever wakes a reactor —
    // still notices the flag on its own idle tick and drains. The handler
    // the first daemon's `run` installed is still in place, so this raise
    // cannot race the second `run`'s install; the pause lets the reactors
    // park in `poll` first, so the tick, not a first iteration, sees it.
    let (_, idle) = Daemon::spawn(config).unwrap();
    std::thread::sleep(Duration::from_millis(20));
    signal::raise_sigterm();
    let stats = idle.join().unwrap();
    assert_eq!(stats.jobs_accepted, 0, "{}", stats.summary());
    signal::reset();
}
