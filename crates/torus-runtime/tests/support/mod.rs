//! Helpers shared by the fault suites. Each test binary includes this
//! file as a module and uses its own subset, hence the `dead_code` allow.
#![allow(dead_code)]

use std::time::Duration;

/// Runs `f` on its own thread and panics if it does not finish within
/// `secs` — the suite's guard against recovery-path deadlocks.
pub fn with_watchdog<T: Send + 'static>(secs: u64, f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = std::sync::mpsc::channel();
    let h = std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    match rx.recv_timeout(Duration::from_secs(secs)) {
        Ok(v) => {
            let _ = h.join();
            v
        }
        Err(_) => panic!("runtime hung: {secs}s watchdog expired"),
    }
}

#[cfg(target_os = "linux")]
pub fn thread_count() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(0)
}

/// Polls until the process is back to (about) `before` threads, panicking
/// with `what` if it is not within 5 s. Concurrent tests spawn workers of
/// their own, so a single reading proves nothing: a leaked thread never
/// exits, transient ones do.
#[cfg(target_os = "linux")]
pub fn assert_threads_settle(before: usize, what: &str) {
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    loop {
        let after = thread_count();
        if after <= before + 1 {
            return;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "{what}: worker threads leaked: {before} before, {after} after"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
}
