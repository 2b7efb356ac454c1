//! Helpers shared by the fault suites. Each test binary includes this
//! file as a module and uses its own subset, hence the `dead_code` allow.
#![allow(dead_code)]

use std::time::Duration;

pub mod lanes;

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
