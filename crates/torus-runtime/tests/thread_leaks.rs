//! Abort hygiene, measured on the whole process: a run that aborts must
//! join every worker thread it started, in every lane.
//!
//! `/proc/self/task` counts every thread in the process, so this test
//! lives alone in its own test binary: a sibling test running in
//! parallel would start and stop threads of its own between the reads
//! and make the exact comparison flaky.

mod support;

#[cfg(target_os = "linux")]
#[test]
fn aborts_leak_no_threads() {
    use std::time::{Duration, Instant};

    use support::lanes::{expect_abort, retry, LANES};
    use torus_runtime::{FaultKind, FaultPlan};

    fn threads_now() -> usize {
        std::fs::read_dir("/proc/self/task").unwrap().count()
    }
    let baseline = threads_now();
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
        // A joined thread leaves the task list a moment after `join`
        // returns, so wait for the exact baseline; a leaked one never
        // leaves.
        let deadline = Instant::now() + Duration::from_secs(5);
        while threads_now() != baseline && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(
            threads_now(),
            baseline,
            "{lane:?}: every worker thread must be joined after an abort"
        );
    }
}
