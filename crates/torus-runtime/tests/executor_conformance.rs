//! Conformance matrix: every fault/recovery/cancel behaviour of
//! the byte executor, held for every kind of schedule it runs.
//!
//! The executor is one worker loop fed by three step sources, so each
//! scenario below runs once per [`Lane`]: the all-to-all base plan, an
//! all-to-all repaired plan (degrade policy with a pinned kill, so the
//! repaired source executes), a non-combining collective (broadcast) and
//! a combining one (allreduce). A behaviour that holds in one lane and
//! not another means the lanes no longer share the loop.

use std::time::{Duration, Instant};

use torus_runtime::{
    CancelToken, FailureReason, FaultEvent, FaultEventKind, FaultKind, FaultPlan, RecoveryStats,
    RuntimeReport, WorkerFaultKind,
};
use torus_topology::NodeId;

mod support;
use support::lanes::{expect_abort, retry, Lane, Transmission, LANES, NODES};

fn pinned(t: Transmission, attempt: u32, kind: FaultKind) -> FaultPlan {
    FaultPlan::default().with_message_fault(t.0, t.1, t.2, attempt, kind)
}

fn message_events(report: &RuntimeReport) -> Vec<&FaultEvent> {
    report
        .fault_events
        .iter()
        .filter(|e| matches!(e.kind, FaultEventKind::Message(_)))
        .collect()
}

#[test]
fn truncated_frame_is_detected_and_recovered() {
    for lane in LANES {
        let t = lane.live_transmission();
        let cfg = lane.config(pinned(t, 0, FaultKind::Truncate), retry(), 3);
        let r = lane.run(cfg).unwrap();
        lane.assert_completed(&r);
        assert_eq!(r.faults.injected_truncations, 1, "{lane:?}");
        // The cut lands in framing or in the CRC; either detector must
        // refuse the frame, and the refusal costs one retry cycle.
        assert_eq!(
            r.faults.decode_failures + r.faults.crc_failures,
            1,
            "{lane:?}"
        );
        assert_eq!(r.faults.retries, 1, "{lane:?}");
        assert_eq!(r.faults.recovered, 1, "{lane:?}");
    }
}

#[test]
fn over_deadline_delay_is_healed_from_the_retained_frame() {
    for lane in LANES {
        let t = lane.live_transmission();
        // One node per worker, so the delayed sender and its receiver
        // are never the same thread. The sender retains its pristine
        // frame *before* the delay: the receiver times out once and
        // heals immediately; the straggler is rejected as stale or never
        // read.
        let cfg = lane.config(
            pinned(t, 0, FaultKind::DelayMicros(60_000)),
            retry()
                .with_deadline(Duration::from_millis(5))
                .with_max_retries(50),
            NODES,
        );
        let r = lane.run(cfg).unwrap();
        lane.assert_completed(&r);
        assert_eq!(r.faults.injected_delays, 1, "{lane:?}");
        assert!(r.faults.timeouts >= 1, "{lane:?}");
        assert!(r.faults.resends >= 1, "{lane:?}");
        assert!(r.faults.recovered >= 1, "{lane:?}");
    }
}

#[test]
fn single_drop_heals_without_charging_the_budget() {
    for lane in LANES {
        let t = lane.live_transmission();
        let cfg = lane.config(pinned(t, 0, FaultKind::Drop), retry(), 2);
        let r = lane.run(cfg).unwrap();
        lane.assert_completed(&r);
        assert_eq!(r.faults.injected_drops, 1, "{lane:?}");
        assert_eq!(r.faults.timeouts, 1, "{lane:?}");
        assert_eq!(r.faults.resends, 1, "{lane:?}");
        assert_eq!(r.faults.recovered, 1, "{lane:?}");
        // The first resend succeeded, so no retry cycle was charged.
        assert_eq!(r.faults.retries, 0, "{lane:?}");
        let events = message_events(&r);
        assert_eq!(events.len(), 1, "{lane:?}");
        assert_eq!((events[0].step, events[0].src, events[0].dst), t);
    }
}

#[test]
fn retry_exhaustion_aborts_typed_with_a_partial_report() {
    for lane in LANES {
        let (g, src, dst) = lane.fatal_transmission();
        // Drop the original send and every resend the budget allows.
        let mut plan = FaultPlan::default();
        for attempt in 0..=3 {
            plan = plan.with_message_fault(g, src, dst, attempt, FaultKind::Drop);
        }
        let cfg = lane.config(plan, retry().with_max_retries(1), 2);
        let report = expect_abort(lane, lane.run(cfg));
        let failure = report.failure.as_ref().unwrap();
        assert_eq!(
            failure.reason,
            FailureReason::RetryExhausted { src },
            "{lane:?}"
        );
        assert_eq!(failure.node, dst, "{lane:?}");
        assert_eq!(failure.global_step, g, "{lane:?}");
        assert!(!failure.phase.is_empty() && failure.step >= 1, "{lane:?}");
        assert!(report.faults.retries > 0, "{lane:?}");
        assert!(report.degraded.is_none(), "{lane:?}");
    }
}

#[test]
fn expired_token_reports_deadline_exceeded() {
    for lane in LANES {
        let token = CancelToken::new();
        token.expire_at(Instant::now());
        let cfg = lane
            .config(FaultPlan::default(), retry(), 2)
            .with_cancel_token(token);
        let report = expect_abort(lane, lane.run(cfg));
        assert_eq!(
            report.failure.unwrap().reason,
            FailureReason::DeadlineExceeded,
            "{lane:?}"
        );
    }
}

#[test]
fn same_seed_same_counters_and_events_across_reruns_and_worker_counts() {
    for lane in LANES {
        let run = |workers: usize| {
            let faults = FaultPlan::seeded(42)
                .with_drop_rate(0.15)
                .with_corrupt_rate(0.15);
            let cfg = lane.config(
                faults,
                retry().with_deadline(Duration::from_millis(30)),
                workers,
            );
            let r = lane.run(cfg).unwrap();
            lane.assert_completed(&r);
            (r.faults, r.fault_events)
        };
        let baseline = run(3);
        assert!(
            baseline.0.total_injected() > 0,
            "{lane:?}: plan must actually fire"
        );
        let (events, counters) = pinned_seed_42(lane);
        let log: Vec<_> = baseline
            .1
            .iter()
            .map(|e| (e.step, e.src, e.dst, e.attempt, e.kind))
            .collect();
        assert_eq!(log, events, "{lane:?}: pinned fault log");
        assert_eq!(
            counters_row(&baseline.0),
            counters,
            "{lane:?}: pinned recovery counters"
        );
        for workers in [3, 1, NODES] {
            assert_eq!(
                run(workers),
                baseline,
                "{lane:?} diverged at {workers} workers"
            );
        }
    }
}

/// One lane's pinned fault-event log, as `(step, src, dst, attempt,
/// kind)`, and recovery counters (see [`counters_row`]).
type Pin = (
    &'static [(usize, NodeId, NodeId, u32, FaultEventKind)],
    [u64; 13],
);

/// The seed-42 drop + corrupt plan of
/// `same_seed_same_counters_and_events_across_reruns_and_worker_counts`,
/// pinned per lane at 3 workers: the full fault-event log and the
/// recovery counters. Fixed by the seed and the schedule alone, so a
/// change to the data plane that moves any of it changed what the fault
/// layer does.
fn pinned_seed_42(lane: Lane) -> Pin {
    const D: FaultEventKind = FaultEventKind::Message(FaultKind::Drop);
    const C: FaultEventKind = FaultEventKind::Message(FaultKind::CorruptByte);
    const K: FaultEventKind = FaultEventKind::Worker(WorkerFaultKind::Kill);
    const BASE: Pin = (
        &[
            (0, 5, 13, 0, C),
            (0, 6, 4, 0, D),
            (0, 7, 15, 0, D),
            (0, 7, 15, 0, C),
            (0, 13, 5, 0, C),
            (1, 7, 5, 0, C),
            (1, 8, 10, 0, C),
            (2, 2, 6, 0, D),
            (2, 3, 7, 0, D),
            (2, 4, 0, 0, C),
            (2, 5, 1, 0, D),
            (2, 8, 12, 0, D),
            (2, 11, 15, 0, C),
            (2, 13, 9, 0, D),
            (3, 3, 2, 0, C),
            (3, 6, 7, 0, D),
            (3, 15, 14, 0, C),
        ],
        [8, 9, 0, 0, 0, 0, 0, 8, 16, 8, 16, 0, 16],
    );
    const REPAIRED: Pin = (
        &[
            (0, 5, 13, 0, C),
            (0, 6, 4, 0, D),
            (0, 7, 15, 0, D),
            (0, 7, 15, 0, C),
            (0, 13, 5, 0, C),
            (1, 3, 3, 0, K),
            (1, 7, 5, 0, C),
            (1, 8, 10, 0, C),
            (2, 2, 6, 0, D),
            (2, 4, 0, 0, C),
            (2, 5, 1, 0, D),
            (2, 8, 12, 0, D),
            (2, 11, 15, 0, C),
            (2, 13, 9, 0, D),
            (3, 6, 7, 0, D),
            (3, 15, 14, 0, C),
            (4, 11, 6, 0, C),
            (5, 3, 6, 0, C),
            (5, 7, 2, 0, D),
            (5, 11, 7, 0, C),
            (6, 3, 7, 0, D),
            (8, 3, 11, 0, D),
            (8, 3, 11, 0, C),
            (10, 3, 15, 0, D),
        ],
        [11, 12, 0, 0, 0, 0, 1, 10, 21, 10, 21, 0, 21],
    );
    const BROADCAST: Pin = (
        &[
            (0, 5, 13, 0, C),
            (1, 5, 9, 0, D),
            (1, 5, 9, 0, C),
            (2, 13, 15, 0, C),
            (3, 3, 0, 0, C),
            (3, 5, 6, 0, C),
        ],
        [1, 5, 0, 0, 0, 0, 0, 4, 5, 4, 5, 0, 5],
    );
    const ALLREDUCE: Pin = (
        &[
            (0, 1, 0, 0, D),
            (0, 9, 8, 0, C),
            (0, 13, 12, 0, D),
            (1, 14, 12, 0, D),
            (2, 4, 0, 0, C),
            (6, 0, 2, 0, D),
            (6, 0, 2, 0, C),
            (7, 0, 1, 0, C),
            (7, 8, 9, 0, D),
            (7, 10, 11, 0, C),
            (7, 12, 13, 0, D),
            (7, 14, 15, 0, D),
        ],
        [7, 5, 0, 0, 0, 0, 0, 4, 11, 4, 11, 0, 11],
    );
    match lane {
        Lane::Base => BASE,
        Lane::Repaired => REPAIRED,
        Lane::Broadcast => BROADCAST,
        Lane::Allreduce => ALLREDUCE,
    }
}

/// The recovery counters in a pin's order — drops, corruptions,
/// truncations, duplicates, delays, stalls, kills, crc + decode
/// failures, timeouts, retries, resends, stale discarded, recovered —
/// with `crc_failures + decode_failures` as one sum: a corruption that lands in a length or
/// count field may be refused by a structural check before the CRC is
/// read, and either way it is refused once.
fn counters_row(f: &RecoveryStats) -> [u64; 13] {
    [
        f.injected_drops,
        f.injected_corruptions,
        f.injected_truncations,
        f.injected_duplicates,
        f.injected_delays,
        f.injected_stalls,
        f.injected_kills,
        f.crc_failures + f.decode_failures,
        f.timeouts,
        f.retries,
        f.resends,
        f.stale_discarded,
        f.recovered,
    ]
}
