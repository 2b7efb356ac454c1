//! Thread hygiene, measured on the whole process: a spawn-path run
//! starts exactly one thread per worker beyond the caller, and a run
//! that aborts joins every worker thread it started, in every lane.
//!
//! `/proc/self/task` counts every thread in the process, so these checks
//! live alone in their own test binary, run one after the other from a
//! single test: a sibling test running in parallel would start and stop
//! threads of its own between the reads and make the exact comparisons
//! flaky.

mod support;

#[cfg(target_os = "linux")]
#[test]
fn thread_counts_are_exact() {
    let baseline = threads_now();
    spawn_runs_start_one_thread_per_extra_worker(baseline);
    aborts_leak_no_threads(baseline);
}

#[cfg(target_os = "linux")]
fn threads_now() -> usize {
    std::fs::read_dir("/proc/self/task").unwrap().count()
}

/// Waits up to 5 s for the task list to hold exactly `want` threads: a
/// joined thread leaves it a moment after `join` returns, a leaked one
/// never does.
#[cfg(target_os = "linux")]
fn settle_to(want: usize) -> usize {
    use std::time::{Duration, Instant};

    let deadline = Instant::now() + Duration::from_secs(5);
    while threads_now() != want && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    threads_now()
}

/// The caller is worker 0: a spawn-path run at `W` workers adds exactly
/// `W − 1` threads, so a one-worker run adds none. The count is read by
/// a sampler thread in the middle of a 300 ms stall of node 0 at step 1,
/// while every worker of the run is alive.
#[cfg(target_os = "linux")]
fn spawn_runs_start_one_thread_per_extra_worker(baseline: usize) {
    use std::sync::mpsc;
    use std::time::Duration;

    use torus_runtime::{FaultPlan, RetryPolicy, Runtime, RuntimeConfig, WorkerFaultKind};
    use torus_topology::TorusShape;

    let shape = TorusShape::new(&[4, 4]).unwrap();
    for workers in [1usize, 3] {
        let stall =
            FaultPlan::default().with_worker_fault(1, 0, WorkerFaultKind::StallMicros(300_000));
        // A deadline far past the stall: no receiver times out on it.
        let config = RuntimeConfig::default()
            .with_workers(workers)
            .with_faults(stall)
            .with_retry(RetryPolicy::default().with_deadline(Duration::from_secs(10)));
        let runtime = Runtime::new(&shape, config).unwrap();

        let (start_tx, start_rx) = mpsc::channel::<()>();
        let sampler = std::thread::spawn(move || {
            start_rx.recv().unwrap();
            std::thread::sleep(Duration::from_millis(150));
            threads_now()
        });
        // The sampler is the one thread this check adds itself.
        assert_eq!(settle_to(baseline + 1), baseline + 1, "{workers} worker(s)");
        start_tx.send(()).unwrap();
        let report = runtime.run().unwrap();
        let during = sampler.join().unwrap();

        assert!(report.verified, "{workers} worker(s)");
        assert_eq!(report.faults.injected_stalls, 1, "{workers} worker(s)");
        assert_eq!(
            during,
            baseline + 1 + (workers - 1),
            "{workers} worker(s): the caller is worker 0 and spawns W - 1 threads"
        );
    }
}

#[cfg(target_os = "linux")]
fn aborts_leak_no_threads(baseline: usize) {
    use support::lanes::{expect_abort, retry, LANES};
    use torus_runtime::{FaultKind, FaultPlan};

    for lane in LANES {
        let (g, src, dst) = lane.fatal_transmission();
        let mut plan = FaultPlan::default();
        for attempt in 0..=3 {
            plan = plan.with_message_fault(g, src, dst, attempt, FaultKind::Drop);
        }
        expect_abort(
            lane,
            lane.run(lane.config(plan, retry().with_max_retries(1), 4)),
        );
        assert_eq!(
            settle_to(baseline),
            baseline,
            "{lane:?}: every worker thread must be joined after an abort"
        );
    }
}
