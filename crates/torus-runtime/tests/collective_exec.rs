//! Byte-real collective execution matrix.
//!
//! Every collective op must deliver real bytes end-to-end — bit-exact
//! against the serial reference replay — across shapes, roots, and
//! worker counts; reductions must match an *independent* scalar
//! reference (not just the plan's own replay); and the fault-tolerance
//! machinery (drop/corrupt recovery, cancellation, worker kills) must
//! behave exactly as it does for all-to-all.

use std::time::Duration;

use bytes::Bytes;
use proptest::prelude::*;
use torus_runtime::collective::verify_holdings;
use torus_runtime::{
    pattern_payload, CancelToken, CollectiveOp, CollectivePlan, CollectiveRuntime, Dtype,
    FailureReason, FaultKind, FaultPlan, ReduceOp, RetryPolicy, RuntimeConfig, RuntimeError,
    WorkerFaultKind,
};
use torus_topology::TorusShape;

fn rt(dims: &[u32], op: CollectiveOp, config: RuntimeConfig) -> CollectiveRuntime {
    CollectiveRuntime::new(&TorusShape::new(dims).unwrap(), op, config).unwrap()
}

/// Tight deadlines so injected timeouts cost milliseconds.
fn quick_retry() -> RetryPolicy {
    RetryPolicy::default()
        .with_deadline(Duration::from_millis(20))
        .with_backoff(Duration::from_micros(200))
}

/// Deterministic per-identity u64-lane payload.
fn u64_payload(id: u32, block_bytes: usize) -> Bytes {
    let mut out = Vec::with_capacity(block_bytes);
    for lane in 0..block_bytes / 8 {
        let v = (u64::from(id))
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(lane as u64);
        out.extend_from_slice(&v.to_le_bytes());
    }
    Bytes::from(out)
}

/// Deterministic per-identity f32-lane payload with tame magnitudes.
fn f32_payload(id: u32, block_bytes: usize) -> Bytes {
    let mut out = Vec::with_capacity(block_bytes);
    for lane in 0..block_bytes / 4 {
        let v = ((id as usize * 31 + lane * 7) % 1000) as f32 * 0.25 - 60.0;
        out.extend_from_slice(&v.to_le_bytes());
    }
    Bytes::from(out)
}

#[test]
fn every_op_delivers_byte_real_across_shapes_and_workers() {
    let shapes: &[&[u32]] = &[&[2], &[5], &[4, 4], &[3, 5], &[2, 3, 4]];
    for dims in shapes {
        let nn: u32 = dims.iter().product();
        let ops = [
            CollectiveOp::Broadcast { root: nn - 1 },
            CollectiveOp::Scatter { root: 0 },
            CollectiveOp::Gather { root: nn / 2 },
            CollectiveOp::Allgather,
            CollectiveOp::Reduce {
                root: 0,
                op: ReduceOp::Sum,
                dtype: Dtype::U64,
            },
            CollectiveOp::Allreduce {
                op: ReduceOp::Max,
                dtype: Dtype::U64,
            },
        ];
        for op in ops {
            for workers in [1, 3, 8] {
                let r = rt(dims, op, RuntimeConfig::default().with_workers(workers));
                let (report, deliveries) = r.run().unwrap_or_else(|e| {
                    panic!("{op:?} on {dims:?} with {workers} workers failed: {e}")
                });
                assert!(report.verified);
                assert_eq!(deliveries.len(), nn as usize);
                // Spot-check the op contract beyond the internal verify.
                match op {
                    CollectiveOp::Broadcast { root } => {
                        let want = pattern_payload(root, root, report.block_bytes);
                        for d in &deliveries {
                            assert_eq!(d.len(), 1);
                            assert_eq!(d[0].0, root);
                            assert_eq!(d[0].1, want);
                        }
                    }
                    CollectiveOp::Scatter { .. } => {
                        for (u, d) in deliveries.iter().enumerate() {
                            assert_eq!(d.len(), 1);
                            assert_eq!(d[0].0, u as u32);
                        }
                    }
                    CollectiveOp::Gather { root } => {
                        for (u, d) in deliveries.iter().enumerate() {
                            let want = if u as u32 == root { nn as usize } else { 0 };
                            assert_eq!(d.len(), want);
                        }
                    }
                    CollectiveOp::Allgather => {
                        for d in &deliveries {
                            assert_eq!(d.len(), nn as usize);
                        }
                    }
                    CollectiveOp::Reduce { root, .. } => {
                        for (u, d) in deliveries.iter().enumerate() {
                            let want = usize::from(u as u32 == root);
                            assert_eq!(d.len(), want);
                        }
                    }
                    CollectiveOp::Allreduce { .. } => {
                        let first = &deliveries[0];
                        assert_eq!(first.len(), 1);
                        for d in &deliveries {
                            assert_eq!(d, first);
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn allgather_is_bit_exact_per_source() {
    let r = rt(&[3, 4], CollectiveOp::Allgather, RuntimeConfig::default());
    let (report, deliveries) = r.run().unwrap();
    assert!(report.verified);
    for d in &deliveries {
        for (key, bytes) in d {
            assert_eq!(*bytes, pattern_payload(*key, *key, report.block_bytes));
        }
    }
}

/// The reference replay over shared `Bytes` handles is the replay over
/// owned `Vec<u8>` copies, bit for bit: the payload handle changes what
/// a send costs, never what a node ends up holding.
#[test]
fn bytes_replay_equals_vec_replay_for_every_op() {
    for dims in [&[4u32, 4][..], &[6, 6], &[8, 8], &[4, 4, 4]] {
        let shape = TorusShape::new(dims).unwrap();
        let last = shape.num_nodes() - 1;
        let ops = [
            CollectiveOp::Broadcast { root: last },
            CollectiveOp::Scatter { root: 1 },
            CollectiveOp::Gather { root: last / 2 },
            CollectiveOp::Allgather,
            CollectiveOp::Reduce {
                root: 0,
                op: ReduceOp::Sum,
                dtype: Dtype::U64,
            },
            CollectiveOp::Allreduce {
                op: ReduceOp::Sum,
                dtype: Dtype::F32,
            },
        ];
        for op in ops {
            let plan = CollectivePlan::new(&shape, op).unwrap();
            for m in [8, 64, 1024] {
                let seed = |id: u32| match op {
                    CollectiveOp::Allreduce { .. } => f32_payload(id, m),
                    _ => u64_payload(id, m),
                };
                let shared = plan.reference_finals(m, seed).unwrap();
                let owned = plan.reference_finals(m, |id| seed(id).to_vec()).unwrap();
                assert_eq!(shared.len(), owned.len());
                for (u, (s, o)) in shared.iter().zip(&owned).enumerate() {
                    let s: Vec<(u32, &[u8])> = s.iter().map(|(k, b)| (*k, b.as_ref())).collect();
                    let o: Vec<(u32, &[u8])> = o.iter().map(|(k, b)| (*k, b.as_slice())).collect();
                    assert_eq!(s, o, "{op:?} on {dims:?} x {m} B, node {u}");
                }
            }
        }
    }
}

/// An allgather only moves and replicates seeds, so every delivered
/// holding is its seed's own allocation: verification clears it by
/// identity and reads no payload byte.
#[test]
fn allgather_delivers_the_seed_allocations_themselves() {
    let m = 1024;
    for workers in [1, 2] {
        let r = rt(
            &[8, 8],
            CollectiveOp::Allgather,
            RuntimeConfig::default()
                .with_workers(workers)
                .with_block_bytes(m),
        );
        let mut seeds = Vec::new();
        let (report, deliveries) = r
            .run_with_payloads(|id| {
                let b = u64_payload(id, m);
                seeds.push((id, b.clone()));
                b
            })
            .unwrap();
        assert!(report.verified);
        seeds.sort_by_key(|(id, _)| *id);
        assert_eq!(seeds.len(), 64, "one seed per identity");
        for (u, held) in deliveries.iter().enumerate() {
            assert_eq!(held.len(), seeds.len(), "node {u}");
            for ((k, bytes), (id, seed)) in held.iter().zip(&seeds) {
                assert_eq!(k, id);
                assert_eq!(
                    bytes.as_ptr(),
                    seed.as_ptr(),
                    "workers {workers}: node {u} key {k} is a copy"
                );
            }
        }
    }
}

/// The holdings check accepts equal bytes in a fresh allocation (the
/// byte-for-byte path) and rejects a one-byte flip, a missing key and
/// an extra key.
#[test]
fn verify_holdings_compares_bytes_when_handles_differ() {
    let want: Vec<(u32, Bytes)> = (0..4).map(|k| (k, u64_payload(k, 64))).collect();
    let copy: Vec<(u32, Bytes)> = want
        .iter()
        .map(|(k, b)| (*k, Bytes::from(b.to_vec())))
        .collect();
    assert_ne!(copy[2].1.as_ptr(), want[2].1.as_ptr());
    verify_holdings(0, &want, &want).unwrap();
    verify_holdings(0, &copy, &want).unwrap();

    let mut flipped = copy.clone();
    let mut bytes = flipped[2].1.to_vec();
    bytes[17] ^= 0x01;
    flipped[2].1 = Bytes::from(bytes);
    let err = verify_holdings(3, &flipped, &want).unwrap_err();
    assert!(
        matches!(&err, RuntimeError::Verification(msg) if msg.contains("node 3 key 2")),
        "{err:?}"
    );

    let missing = &copy[..3];
    assert!(matches!(
        verify_holdings(0, missing, &want),
        Err(RuntimeError::Verification(_))
    ));
    let mut extra = copy.clone();
    extra.push((4, u64_payload(4, 64)));
    assert!(matches!(
        verify_holdings(0, &extra, &want),
        Err(RuntimeError::Verification(_))
    ));
}

#[test]
fn broadcast_survives_seeded_drop_and_corrupt_faults_bit_exact() {
    // Satellite 3's wire-fault lane: every transmission both dropped and
    // corrupted on first attempt; recovery must still deliver the root's
    // exact bytes everywhere and the counters must show it worked.
    let cfg = RuntimeConfig::default()
        .with_workers(4)
        .with_faults(
            FaultPlan::seeded(11)
                .with_drop_rate(0.4)
                .with_corrupt_rate(0.4),
        )
        .with_retry(quick_retry());
    let r = rt(&[4, 4], CollectiveOp::Broadcast { root: 5 }, cfg);
    let (report, deliveries) = r.run().unwrap();
    assert!(report.verified);
    assert!(report.faults.injected_drops > 0, "seed must inject drops");
    assert!(
        report.faults.injected_corruptions > 0,
        "seed must inject corruptions"
    );
    assert!(report.faults.recovered > 0);
    let want = pattern_payload(5, 5, report.block_bytes);
    for d in &deliveries {
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].1, want, "recovered broadcast must be bit-exact");
    }
}

#[test]
fn allreduce_survives_seeded_faults_reduction_exact() {
    // The combining receive must stay exactly-once under duplicates and
    // resends: a double fold would corrupt the sum silently, so this is
    // the regression test for stale-sequence discarding on the combining
    // path.
    let cfg = RuntimeConfig::default()
        .with_workers(4)
        .with_faults(
            FaultPlan::seeded(7)
                .with_drop_rate(0.3)
                .with_duplicate_rate(0.3)
                .with_corrupt_rate(0.2),
        )
        .with_retry(quick_retry());
    let op = CollectiveOp::Allreduce {
        op: ReduceOp::Sum,
        dtype: Dtype::U64,
    };
    let r = rt(&[4, 4], op, cfg);
    let m = r.config().block_bytes;
    let (report, deliveries) = r.run_with_payloads(|id| u64_payload(id, m)).unwrap();
    assert!(report.verified);
    assert!(report.faults.injected_drops + report.faults.injected_duplicates > 0);
    // Independent scalar reference: wrapping u64 sum over all nodes.
    for lane in 0..m / 8 {
        let mut want = 0u64;
        for node in 0..16u32 {
            let p = u64_payload(node, m);
            want = want.wrapping_add(u64::from_le_bytes(
                p[lane * 8..lane * 8 + 8].try_into().unwrap(),
            ));
        }
        for d in &deliveries {
            let got = u64::from_le_bytes(d[0].1[lane * 8..lane * 8 + 8].try_into().unwrap());
            assert_eq!(got, want, "lane {lane} sum corrupted by fault recovery");
        }
    }
}

#[test]
fn duplicated_frame_is_folded_exactly_once() {
    // Pins the exactly-once property of the combining receive with
    // explicit faults instead of a seeded mix: a duplicate on a
    // mid-schedule reduce step leaves a second copy of an already-folded
    // partial in the receiver's inbox, and a drop on that receiver's
    // next scheduled receive guarantees the stale copy is the first
    // thing it reads there. Folding it would change the result.
    type Seed = fn(u32, usize) -> Bytes;
    let cases: [(CollectiveOp, Seed); 2] = [
        (
            CollectiveOp::Allreduce {
                op: ReduceOp::Sum,
                dtype: Dtype::U64,
            },
            u64_payload,
        ),
        (
            CollectiveOp::Reduce {
                root: 5,
                op: ReduceOp::Max,
                dtype: Dtype::F32,
            },
            f32_payload,
        ),
    ];
    for (op, seed) in cases {
        let probe = rt(&[4, 4], op, RuntimeConfig::default());
        let plan = probe.plan();
        let m = probe.config().block_bytes;
        // Global steps of the reduce phases, where receives combine.
        let mut combining = Vec::new();
        let mut g = 0;
        for (label, nsteps) in plan.phases() {
            if label.starts_with("reduce") {
                combining.extend(g..g + nsteps);
            }
            g += nsteps;
        }
        // A combining send past step 0 whose receiver is also scheduled
        // to receive in a later step.
        let (g1, src, dst, g2, src2) = combining
            .iter()
            .filter(|&&g| g > 0)
            .flat_map(|&g| plan.steps()[g].sends.iter().map(move |s| (g, s.src, s.dst)))
            .find_map(|(g1, src, dst)| {
                (g1 + 1..plan.num_steps()).find_map(|g2| {
                    plan.expect_from(g2)[dst as usize].map(|src2| (g1, src, dst, g2, src2))
                })
            })
            .expect("a 4x4 reduction has a receiver that receives twice");
        let want = plan.reference_finals(m, |id| seed(id, m).to_vec()).unwrap();
        for workers in [1, 3] {
            let cfg = RuntimeConfig::default()
                .with_workers(workers)
                .with_faults(
                    FaultPlan::default()
                        .with_message_fault(g1, src, dst, 0, FaultKind::Duplicate)
                        .with_message_fault(g2, src2, dst, 0, FaultKind::Drop),
                )
                .with_retry(quick_retry());
            let (report, deliveries) = rt(&[4, 4], op, cfg)
                .run_with_payloads(|id| seed(id, m))
                .unwrap_or_else(|e| panic!("{op:?} with {workers} workers failed: {e}"));
            assert!(report.verified);
            assert!(report.faults.injected_duplicates >= 1);
            assert!(
                report.faults.stale_discarded >= 1,
                "the duplicate must be drained as stale, not folded"
            );
            for (u, (got, want)) in deliveries.iter().zip(&want).enumerate() {
                assert_eq!(got.len(), want.len(), "{op:?} node {u} holdings");
                for ((gk, gb), (wk, wb)) in got.iter().zip(want) {
                    assert_eq!(gk, wk, "{op:?} node {u} keys");
                    assert_eq!(gb.as_ref(), wb.as_slice(), "{op:?} node {u} key {gk}");
                }
            }
        }
    }
}

#[test]
fn cancel_token_aborts_stalled_collective() {
    let token = CancelToken::new();
    let cfg = RuntimeConfig::default()
        .with_workers(4)
        .with_faults(FaultPlan::seeded(1).with_worker_fault(
            0,
            0,
            WorkerFaultKind::StallMicros(5_000_000),
        ))
        .with_retry(
            RetryPolicy::default()
                .with_deadline(Duration::from_secs(30))
                .with_max_retries(64),
        )
        .with_cancel_token(token.clone());
    let r = rt(&[4, 4], CollectiveOp::Allgather, cfg);
    let t0 = std::time::Instant::now();
    let handle = std::thread::spawn(move || r.run());
    std::thread::sleep(Duration::from_millis(50));
    token.cancel();
    let err = handle.join().unwrap().unwrap_err();
    match err {
        RuntimeError::Aborted { failure, report } => {
            assert_eq!(failure.reason, FailureReason::Cancelled);
            assert!(!report.verified);
        }
        other => panic!("expected Aborted, got {other}"),
    }
    assert!(
        t0.elapsed() < Duration::from_secs(4),
        "cancel must interrupt the stall, took {:?}",
        t0.elapsed()
    );
}

#[test]
fn killed_worker_aborts_collective_with_typed_failure() {
    let cfg = RuntimeConfig::default()
        .with_workers(4)
        .with_faults(FaultPlan::default().with_worker_fault(0, 2, WorkerFaultKind::Kill))
        .with_retry(quick_retry().with_max_retries(2));
    let op = CollectiveOp::Allreduce {
        op: ReduceOp::Sum,
        dtype: Dtype::U64,
    };
    let err = rt(&[4, 4], op, cfg).run().unwrap_err();
    match err {
        RuntimeError::Aborted { failure, report } => {
            assert!(matches!(
                failure.reason,
                FailureReason::WorkerKilled { node: 2 } | FailureReason::RetryExhausted { .. }
            ));
            assert!(!report.verified);
            assert_eq!(report.faults.injected_kills, 1);
        }
        other => panic!("expected Aborted, got {other}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Satellite 3: byte-real allreduce(sum, u64) matches the
    /// independent wrapping scalar fold for every shape up to 4x4x4 and
    /// any worker count — bit-exact, order-independent.
    #[test]
    fn allreduce_sum_u64_matches_scalar_reference(
        dims in prop::collection::vec(1u32..=4, 1..=3),
        workers in 1usize..=6,
    ) {
        let nn: u32 = dims.iter().product();
        let m = 32usize;
        let op = CollectiveOp::Allreduce { op: ReduceOp::Sum, dtype: Dtype::U64 };
        let r = rt(&dims, op, RuntimeConfig::default().with_workers(workers).with_block_bytes(m));
        let (report, deliveries) = r.run_with_payloads(|id| u64_payload(id, m)).unwrap();
        prop_assert!(report.verified);
        for lane in 0..m / 8 {
            let mut want = 0u64;
            for node in 0..nn {
                let p = u64_payload(node, m);
                want = want.wrapping_add(u64::from_le_bytes(
                    p[lane * 8..lane * 8 + 8].try_into().unwrap(),
                ));
            }
            for d in &deliveries {
                prop_assert_eq!(d.len(), 1);
                let got = u64::from_le_bytes(d[0].1[lane * 8..lane * 8 + 8].try_into().unwrap());
                prop_assert_eq!(got, want);
            }
        }
    }

    /// Satellite 3: byte-real allreduce(sum, f32) for every shape up to
    /// 4x4x4. All nodes must agree bit-for-bit regardless of worker
    /// count (the fold order is schedule-determined, not
    /// thread-determined), and the result must match the f64 scalar
    /// reference within float tolerance.
    #[test]
    fn allreduce_sum_f32_matches_scalar_reference(
        dims in prop::collection::vec(1u32..=4, 1..=3),
        workers in 1usize..=6,
    ) {
        let nn: u32 = dims.iter().product();
        let m = 32usize;
        let op = CollectiveOp::Allreduce { op: ReduceOp::Sum, dtype: Dtype::F32 };
        let r = rt(&dims, op, RuntimeConfig::default().with_workers(workers).with_block_bytes(m));
        let (report, deliveries) = r.run_with_payloads(|id| f32_payload(id, m)).unwrap();
        prop_assert!(report.verified);
        let first = &deliveries[0][0].1;
        for d in &deliveries {
            prop_assert_eq!(d.len(), 1);
            prop_assert_eq!(&d[0].1, first, "allreduce result must be identical everywhere");
        }
        for lane in 0..m / 4 {
            let mut want = 0f64;
            for node in 0..nn {
                let p = f32_payload(node, m);
                want += f64::from(f32::from_le_bytes(
                    p[lane * 4..lane * 4 + 4].try_into().unwrap(),
                ));
            }
            let got = f64::from(f32::from_le_bytes(
                first[lane * 4..lane * 4 + 4].try_into().unwrap(),
            ));
            prop_assert!(
                (got - want).abs() <= want.abs().max(1.0) * 1e-4,
                "lane {}: got {} want {}", lane, got, want
            );
        }
    }

    /// Reduce and allreduce agree with each other for min/max (which are
    /// order-independent), across dtypes.
    #[test]
    fn reduce_minmax_agrees_with_allreduce(
        dims in prop::collection::vec(1u32..=4, 1..=2),
        use_max in any::<bool>(),
    ) {
        let nn: u32 = dims.iter().product();
        let rop = if use_max { ReduceOp::Max } else { ReduceOp::Min };
        let m = 32usize;
        let cfg = || RuntimeConfig::default().with_workers(4).with_block_bytes(m);
        let red = rt(&dims, CollectiveOp::Reduce { root: nn - 1, op: rop, dtype: Dtype::U64 }, cfg());
        let (_, rd) = red.run_with_payloads(|id| u64_payload(id, m)).unwrap();
        let all = rt(&dims, CollectiveOp::Allreduce { op: rop, dtype: Dtype::U64 }, cfg());
        let (_, ad) = all.run_with_payloads(|id| u64_payload(id, m)).unwrap();
        prop_assert_eq!(&rd[(nn - 1) as usize][0].1, &ad[0][0].1);
    }
}
