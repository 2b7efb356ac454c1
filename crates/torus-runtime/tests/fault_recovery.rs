//! Fault-injection and recovery matrix for the byte-moving runtime.
//!
//! Recoverable faults (drops, corruption, truncation, duplication,
//! over-deadline delays, worker stalls) must be healed by the deadline +
//! retry path with bit-exact delivery; unrecoverable faults (killed
//! workers, exhausted retry budgets) must abort with a typed error and a
//! partial report — never a panic, a hang, or a leaked thread. Every
//! abort case runs under a watchdog so a deadlock fails fast instead of
//! wedging the suite.

use std::time::Duration;

use torus_runtime::{
    FailureReason, FaultKind, FaultPlan, OnFailure, RetryPolicy, Runtime, RuntimeConfig,
    RuntimeError, WorkerFaultKind,
};
use torus_topology::{NodeId, TorusShape};

fn runtime(dims: &[u32], config: RuntimeConfig) -> Runtime {
    Runtime::new(&TorusShape::new(dims).unwrap(), config).unwrap()
}

/// Tight deadlines so injected timeouts cost milliseconds, not the
/// half-second production default.
fn quick_retry() -> RetryPolicy {
    RetryPolicy::default()
        .with_deadline(Duration::from_millis(20))
        .with_backoff(Duration::from_micros(200))
}

mod support;
#[cfg(target_os = "linux")]
use support::thread_count;
use support::with_watchdog;

/// First scheduled transmission of the plan: `(global_step, src, dst)`.
/// The schedule is static, so tests can pin explicit faults to real
/// coordinates without guessing.
fn first_transmission(rt: &Runtime) -> (usize, NodeId, NodeId) {
    let mut g = 0;
    for ph in rt.plan().phases() {
        for st in &ph.steps {
            for (node, send) in st.sends.iter().enumerate() {
                if let Some(s) = send {
                    return (g, node as NodeId, s.dst);
                }
            }
            g += 1;
        }
    }
    panic!("plan has no transmissions");
}

#[test]
fn truncated_frames_are_detected_and_recovered() {
    let cfg = RuntimeConfig::default()
        .with_workers(4)
        .with_faults(FaultPlan::seeded(3).with_truncate_rate(1.0))
        .with_retry(quick_retry());
    let r = runtime(&[4, 4], cfg).run().unwrap();
    assert!(r.verified);
    assert_eq!(r.faults.injected_truncations, r.messages);
    // Truncation can land in framing or in the CRC depending on where
    // the cut falls; either detector must refuse the frame.
    assert!(r.faults.decode_failures + r.faults.crc_failures >= r.messages);
    assert_eq!(r.faults.recovered, r.messages);
}

#[test]
fn duplicated_frames_are_discarded_by_sequence_check() {
    let cfg = RuntimeConfig::default()
        .with_workers(4)
        .with_faults(FaultPlan::seeded(4).with_duplicate_rate(1.0))
        .with_retry(quick_retry());
    let r = runtime(&[4, 4], cfg).run().unwrap();
    assert!(r.verified);
    assert_eq!(r.faults.injected_duplicates, r.messages);
    // The duplicate of a step-g frame is drained at the node's next
    // scheduled receive and rejected as stale. (The last step's
    // duplicates are never drained, so this is a lower bound.)
    assert!(r.faults.stale_discarded > 0);
    // Duplicates alone never cost a retry cycle.
    assert_eq!(r.faults.retries, 0);
}

#[test]
fn over_deadline_delay_is_recovered_from_the_retained_frame() {
    // Delay one transmission 40 ms against a 5 ms deadline. The sender
    // retains its pristine frame *before* the delay, so the receiver
    // times out once and heals immediately; the straggler arrives into
    // a later step and is rejected by the sequence check.
    let rt0 = runtime(&[4, 4], RuntimeConfig::default());
    let (g, src, dst) = first_transmission(&rt0);
    let cfg = RuntimeConfig::default()
        .with_workers(4)
        .with_faults(FaultPlan::default().with_message_fault(
            g,
            src,
            dst,
            0,
            FaultKind::DelayMicros(40_000),
        ))
        .with_retry(
            quick_retry()
                .with_deadline(Duration::from_millis(5))
                .with_max_retries(50),
        );
    let r = runtime(&[4, 4], cfg).run().unwrap();
    assert!(r.verified);
    assert_eq!(r.faults.injected_delays, 1);
    assert!(r.faults.timeouts >= 1);
    assert!(r.faults.resends >= 1);
    assert!(r.faults.recovered >= 1);
}

#[test]
fn stalled_worker_pushes_peers_through_the_retry_path() {
    // Stall one worker 30 ms against a 5 ms receive deadline: its peers
    // must time out, find no retained frame yet, and keep retrying until
    // the stalled sender catches up.
    let policy = RetryPolicy::default()
        .with_deadline(Duration::from_millis(5))
        .with_backoff(Duration::from_millis(2))
        .with_max_retries(50);
    let cfg = RuntimeConfig::default()
        .with_workers(4)
        .with_faults(FaultPlan::default().with_worker_fault(
            0,
            0,
            WorkerFaultKind::StallMicros(30_000),
        ))
        .with_retry(policy);
    let r = runtime(&[4, 4], cfg).run().unwrap();
    assert!(r.verified);
    assert_eq!(r.faults.injected_stalls, 1);
    assert!(r.faults.timeouts > 0);
    assert!(r.faults.recovered > 0);
}

#[test]
fn explicit_single_drop_heals_without_charging_the_budget() {
    let rt0 = runtime(&[4, 4], RuntimeConfig::default());
    let (g, src, dst) = first_transmission(&rt0);
    let cfg = RuntimeConfig::default()
        .with_workers(2)
        .with_faults(FaultPlan::default().with_message_fault(g, src, dst, 0, FaultKind::Drop))
        .with_retry(quick_retry());
    let r = runtime(&[4, 4], cfg).run().unwrap();
    assert!(r.verified);
    assert_eq!(r.faults.injected_drops, 1);
    assert_eq!(r.faults.timeouts, 1);
    assert_eq!(r.faults.resends, 1);
    assert_eq!(r.faults.recovered, 1);
    // The first resend succeeded, so no retry cycle was charged.
    assert_eq!(r.faults.retries, 0);
    assert_eq!(r.fault_events.len(), 1);
    assert_eq!(r.fault_events[0].step, g);
    assert_eq!(r.fault_events[0].src, src);
    assert_eq!(r.fault_events[0].dst, dst);
}

#[test]
fn exhausted_retry_budget_aborts_with_typed_error() {
    let rt0 = runtime(&[4, 4], RuntimeConfig::default());
    let (g, src, dst) = first_transmission(&rt0);
    // Drop the original send and every resend the budget allows: the
    // receiver must give up and abort, naming the silent peer.
    let mut plan = FaultPlan::default().with_message_fault(g, src, dst, 0, FaultKind::Drop);
    for attempt in 1..=3 {
        plan = plan.with_message_fault(g, src, dst, attempt, FaultKind::Drop);
    }
    let cfg = RuntimeConfig::default()
        .with_workers(2)
        .with_faults(plan)
        .with_retry(quick_retry().with_max_retries(1));
    let err = with_watchdog(30, move || runtime(&[4, 4], cfg).run().unwrap_err());
    match err {
        RuntimeError::Aborted { failure, report } => {
            assert_eq!(failure.node, dst);
            assert_eq!(failure.global_step, g);
            assert_eq!(failure.reason, FailureReason::RetryExhausted { src });
            assert!(!report.verified);
            assert!(report.faults.retries > 0);
            assert_eq!(report.failure.as_ref().unwrap().reason, failure.reason);
        }
        other => panic!("expected Aborted, got {other}"),
    }
}

#[test]
fn kill_matrix_aborts_cleanly_at_every_phase() {
    // Kill a worker at the first and at a late global step; both must
    // abort with the right context, within the watchdog, and the partial
    // report must name the phase the failure happened in.
    let total = runtime(&[4, 4], RuntimeConfig::default())
        .plan()
        .total_steps();
    for step in [0, total - 1] {
        let cfg = RuntimeConfig::default()
            .with_workers(4)
            .with_faults(FaultPlan::default().with_worker_fault(step, 2, WorkerFaultKind::Kill))
            .with_retry(quick_retry().with_max_retries(2));
        let err = with_watchdog(30, move || runtime(&[4, 4], cfg).run().unwrap_err());
        match err {
            RuntimeError::Aborted { failure, report } => {
                assert_eq!(failure.node, 2);
                assert_eq!(failure.global_step, step);
                assert_eq!(failure.reason, FailureReason::WorkerKilled { node: 2 });
                assert!(!failure.phase.is_empty());
                assert!(failure.step >= 1);
                assert!(!report.verified);
                assert_eq!(report.faults.injected_kills, 1);
                let s = report.summary();
                assert!(s.contains("ABORTED"), "summary must flag the abort: {s}");
            }
            other => panic!("kill at step {step}: expected Aborted, got {other}"),
        }
    }
}

#[test]
fn aborts_are_reproducible_and_leak_no_threads() {
    #[cfg(target_os = "linux")]
    let before = thread_count();
    let run = || {
        let cfg = RuntimeConfig::default()
            .with_workers(4)
            .with_faults(FaultPlan::default().with_worker_fault(1, 5, WorkerFaultKind::Kill))
            .with_retry(quick_retry().with_max_retries(1));
        with_watchdog(30, move || match runtime(&[4, 4], cfg).run().unwrap_err() {
            RuntimeError::Aborted { failure, .. } => {
                (failure.node, failure.global_step, failure.phase)
            }
            other => panic!("expected Aborted, got {other}"),
        })
    };
    let a = run();
    let b = run();
    assert_eq!(a, b, "same kill plan must fail identically");
    #[cfg(target_os = "linux")]
    {
        // Concurrent tests spawn workers of their own, so poll: a leaked
        // thread never exits, transient ones do.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        loop {
            let after = thread_count();
            if after <= before + 1 {
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "worker threads leaked: {before} before, {after} after"
            );
            std::thread::sleep(Duration::from_millis(50));
        }
    }
}

#[test]
fn recovered_runs_match_the_fault_free_deliveries() {
    // The whole point of the recovery layer: a faulty wire must not be
    // observable in what gets delivered.
    let mk = |plan: FaultPlan| {
        let cfg = RuntimeConfig::default()
            .with_workers(4)
            .with_faults(plan)
            .with_retry(quick_retry());
        runtime(&[4, 8], cfg)
            .run_with_payloads(|s, d| torus_runtime::pattern_payload(s, d, 24))
            .unwrap()
            .1
    };
    let clean = mk(FaultPlan::default());
    let faulty = mk(FaultPlan::seeded(77)
        .with_drop_rate(0.3)
        .with_corrupt_rate(0.2)
        .with_truncate_rate(0.1)
        .with_duplicate_rate(0.2));
    assert_eq!(clean, faulty);
}

// ---------------------------------------------------------------------------
// Degraded mode: the same unrecoverable faults that abort above must,
// under `OnFailure::Degrade`, quarantine the failed node and complete
// bit-exactly for every survivor.
// ---------------------------------------------------------------------------

/// Acceptance case: a pinned mid-phase kill on 4×8. Under `degrade` the
/// run completes with a populated [`DegradedReport`] and no leaked
/// threads; the identical plan under the default `abort` policy still
/// returns `Aborted` with a partial report.
#[test]
fn degraded_run_completes_where_abort_fails() {
    #[cfg(target_os = "linux")]
    let before = thread_count();
    let total = runtime(&[4, 8], RuntimeConfig::default())
        .plan()
        .total_steps();
    let step = total / 2;
    let plan = FaultPlan::default().with_worker_fault(step, 5, WorkerFaultKind::Kill);

    let cfg = RuntimeConfig::default()
        .with_workers(4)
        .with_faults(plan.clone())
        .with_retry(quick_retry())
        .with_on_failure(OnFailure::Degrade);
    let r = with_watchdog(30, move || runtime(&[4, 8], cfg).run().unwrap());
    assert!(
        r.failure.is_none(),
        "degraded run must not record a failure"
    );
    assert!(!r.verified, "full delivery cannot verify with drops");
    let d = r.degraded.as_ref().expect("degraded report populated");
    assert!(d.verified_degraded, "survivors must verify bit-exactly");
    assert_eq!(d.dead_nodes.len(), 1);
    assert_eq!(d.dead_nodes[0].node, 5);
    assert_eq!(d.dead_nodes[0].quarantine_step, step);
    assert_eq!(
        d.dead_nodes[0].reason,
        FailureReason::WorkerKilled { node: 5 }
    );
    assert_eq!(d.dropped_blocks, d.dropped.len() as u64);
    assert!(d.dropped_blocks > 0, "a dead node always strands blocks");
    assert_eq!(d.restarts, 0, "pinned kills are quarantined up front");
    let s = r.summary();
    assert!(s.contains("DEGRADED"), "summary must flag degradation: {s}");
    assert!(!s.contains("ABORTED"), "nothing aborted: {s}");

    let abort_cfg = RuntimeConfig::default()
        .with_workers(4)
        .with_faults(plan)
        .with_retry(quick_retry().with_max_retries(1));
    let err = with_watchdog(30, move || runtime(&[4, 8], abort_cfg).run().unwrap_err());
    match err {
        RuntimeError::Aborted { failure, report } => {
            assert_eq!(failure.reason, FailureReason::WorkerKilled { node: 5 });
            assert!(!report.verified);
            assert!(
                report.degraded.is_none(),
                "abort runs carry no degraded report"
            );
        }
        other => panic!("expected Aborted under abort policy, got {other}"),
    }

    #[cfg(target_os = "linux")]
    {
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        loop {
            let after = thread_count();
            if after <= before + 1 {
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "worker threads leaked: {before} before, {after} after"
            );
            std::thread::sleep(Duration::from_millis(50));
        }
    }
}

/// Same seed + fault plan + degrade policy must produce a byte-identical
/// degraded report and identical survivor deliveries regardless of how
/// many workers execute it (the `TORUS_THREADS` knob maps to
/// `with_workers`). The report intentionally carries no timing or
/// thread-derived data, so its serialized form is a pure function of the
/// inputs.
#[test]
fn degraded_reports_are_deterministic_across_runs_and_worker_counts() {
    let mk = |workers: usize| {
        let cfg = RuntimeConfig::default()
            .with_workers(workers)
            .with_faults(FaultPlan::seeded(9).with_drop_rate(0.2).with_worker_fault(
                3,
                6,
                WorkerFaultKind::Kill,
            ))
            .with_retry(quick_retry())
            .with_on_failure(OnFailure::Degrade);
        let (r, deliveries) = with_watchdog(60, move || {
            runtime(&[4, 8], cfg)
                .run_with_payloads(|s, d| torus_runtime::pattern_payload(s, d, 24))
                .unwrap()
        });
        let d = r.degraded.expect("degraded report populated");
        assert!(d.verified_degraded);
        // Debug formatting covers every field; the serde form is derived
        // from the same data.
        (format!("{d:?}"), deliveries)
    };
    let baseline = mk(4);
    for workers in [1, 4, 16] {
        let got = mk(workers);
        assert_eq!(
            got.0, baseline.0,
            "degraded report diverged at {workers} workers"
        );
        assert_eq!(
            got.1, baseline.1,
            "survivor deliveries diverged at {workers} workers"
        );
    }
}

/// An exhausted retry budget — unrecoverable under abort (see
/// `exhausted_retry_budget_aborts_with_typed_error`) — becomes a
/// mid-flight quarantine under degrade: the run restarts once with the
/// silent sender dead and completes for everyone else.
#[test]
fn exhausted_retry_budget_quarantines_the_silent_sender() {
    let rt0 = runtime(&[4, 4], RuntimeConfig::default());
    let (g, src, dst) = first_transmission(&rt0);
    let mut plan = FaultPlan::default().with_message_fault(g, src, dst, 0, FaultKind::Drop);
    for attempt in 1..=3 {
        plan = plan.with_message_fault(g, src, dst, attempt, FaultKind::Drop);
    }
    let cfg = RuntimeConfig::default()
        .with_workers(2)
        .with_faults(plan)
        .with_retry(quick_retry().with_max_retries(1))
        .with_on_failure(OnFailure::Degrade);
    let r = with_watchdog(30, move || runtime(&[4, 4], cfg).run().unwrap());
    assert!(r.failure.is_none());
    let d = r.degraded.expect("degraded report populated");
    assert!(d.verified_degraded);
    assert_eq!(d.restarts, 1, "one abort-and-replan cycle");
    assert_eq!(d.dead_nodes.len(), 1);
    assert_eq!(d.dead_nodes[0].node, src, "the silent *sender* is culpable");
    assert_eq!(d.dead_nodes[0].quarantine_step, g);
    assert_eq!(
        d.dead_nodes[0].reason,
        FailureReason::RetryExhausted { src }
    );
}

/// Hand-rolled chaos sweep (the vendored `proptest` is a compile stub):
/// a single random node killed at a random global step, on 4×4 and 4×8.
/// Invariants: every survivor→survivor block is delivered bit-exactly
/// (identical to the fault-free run minus the dead source), the dead
/// node delivers nothing, and the dropped set is exactly the blocks with
/// a dead endpoint.
#[test]
fn chaos_random_single_kill_leaves_survivors_bit_exact() {
    // splitmix64: deterministic, dependency-free randomness.
    let mut state: u64 = 0x1998_0713_5EED_C0DE;
    let mut next = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    for dims in [&[4u32, 4][..], &[4, 8][..]] {
        let rt0 = runtime(dims, RuntimeConfig::default());
        let total = rt0.plan().total_steps();
        let nodes = rt0.prepared().exchange().executed_shape().num_nodes() as usize;
        let clean: Vec<Vec<(NodeId, bytes::Bytes)>> = rt0
            .run_with_payloads(|s, d| torus_runtime::pattern_payload(s, d, 16))
            .unwrap()
            .1;
        for _ in 0..4 {
            let victim = (next() % nodes as u64) as NodeId;
            let step = (next() as usize) % total;
            let cfg = RuntimeConfig::default()
                .with_workers(4)
                .with_faults(FaultPlan::default().with_worker_fault(
                    step,
                    victim,
                    WorkerFaultKind::Kill,
                ))
                .with_retry(quick_retry())
                .with_on_failure(OnFailure::Degrade);
            let dims_owned = dims.to_vec();
            let (r, got) = with_watchdog(60, move || {
                runtime(&dims_owned, cfg)
                    .run_with_payloads(|s, d| torus_runtime::pattern_payload(s, d, 16))
                    .unwrap()
            });
            let d = r.degraded.expect("degraded report populated");
            assert!(
                d.verified_degraded,
                "{dims:?} kill {victim}@{step}: survivors must verify"
            );
            assert_eq!(d.dead_nodes.len(), 1);
            assert_eq!(d.dead_nodes[0].node, victim);
            // Dropped set: exactly the blocks with one dead endpoint.
            assert_eq!(d.dropped_blocks, 2 * (nodes as u64 - 1));
            for blk in &d.dropped {
                assert!(
                    (blk.src == victim) ^ (blk.dst == victim),
                    "{dims:?} kill {victim}@{step}: dropped ({}, {}) has no dead endpoint",
                    blk.src,
                    blk.dst
                );
            }
            // Survivor deliveries: the fault-free map minus the dead source.
            let dead_orig = rt0
                .prepared()
                .exchange()
                .from_canonical(victim)
                .expect("victim is a real node");
            for (node, delivered) in got.iter().enumerate() {
                if node == dead_orig as usize {
                    assert!(
                        delivered.is_empty(),
                        "{dims:?}: dead node {dead_orig} must deliver nothing"
                    );
                    continue;
                }
                let want: Vec<(NodeId, bytes::Bytes)> = clean[node]
                    .iter()
                    .filter(|(src, _)| *src != dead_orig)
                    .cloned()
                    .collect();
                assert_eq!(
                    *delivered, want,
                    "{dims:?} kill {victim}@{step}: survivor {node} deliveries diverge"
                );
            }
        }
    }
}

/// CI's serialized stress pass (`--ignored --test-threads=1`): hammer the
/// barrier + retry path across many seeds on one thread so lost-wakeup or
/// ordering bugs in the recovery loop surface as timeouts here.
#[test]
#[ignore]
fn stress_many_seeds_all_recover() {
    for seed in 0..24u64 {
        let cfg = RuntimeConfig::default()
            .with_workers(4)
            .with_faults(
                FaultPlan::seeded(seed)
                    .with_drop_rate(0.4)
                    .with_corrupt_rate(0.2)
                    .with_duplicate_rate(0.2),
            )
            .with_retry(quick_retry());
        let r = with_watchdog(60, move || runtime(&[4, 8], cfg).run().unwrap());
        assert!(r.verified, "seed {seed} failed verification");
        assert!(r.failure.is_none());
    }
}
