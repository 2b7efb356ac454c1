//! Integration: the full pipeline (topology → schedule → simulation →
//! verification → cost model) across crates, exercised through the
//! public facade.

use torus_alltoall::prelude::*;

/// Every supported shape class: square/rectangular 2D, 3D, 4D, ties,
/// maximal asymmetry.
const SHAPES: &[&[u32]] = &[
    &[4, 4],
    &[8, 8],
    &[12, 12],
    &[16, 16],
    &[4, 8],
    &[8, 20],
    &[12, 8],
    &[4, 4, 4],
    &[8, 8, 8],
    &[8, 4, 4],
    &[12, 8, 4],
    &[4, 4, 4, 4],
    &[8, 4, 4, 4],
];

#[test]
fn all_shapes_verify_and_match_table1() {
    for dims in SHAPES {
        let shape = TorusShape::new(dims).unwrap();
        let report = Exchange::new(&shape)
            .unwrap()
            .run_counting(&CommParams::unit())
            .unwrap_or_else(|e| panic!("{shape}: {e}"));
        assert!(report.verified, "{shape}: delivery failed");
        assert!(
            report.matches_formula(),
            "{shape}: measured {:?} != formula {:?}",
            report.counts,
            report.formula
        );
    }
}

#[test]
fn trace_has_n_plus_2_phases_with_correct_step_counts() {
    let shape = TorusShape::new(&[12, 8, 4]).unwrap();
    let report = Exchange::new(&shape)
        .unwrap()
        .run_counting(&CommParams::unit())
        .unwrap();
    let n = 3;
    assert_eq!(report.trace.phases.len(), n + 2);
    let scatter_steps = (12 / 4 - 1) as usize;
    for p in 0..n {
        assert_eq!(
            report.trace.phases[p].num_steps(),
            scatter_steps,
            "phase {} must have a1/4-1 steps",
            p + 1
        );
    }
    assert_eq!(
        report.trace.phases[n].num_steps(),
        n,
        "phase n+1 has n steps"
    );
    assert_eq!(
        report.trace.phases[n + 1].num_steps(),
        n,
        "phase n+2 has n steps"
    );
}

#[test]
fn padded_shapes_still_deliver() {
    for dims in [&[5u32, 5][..], &[6, 10], &[7, 9], &[3, 3, 3], &[10, 6, 5]] {
        let shape = TorusShape::new(dims).unwrap();
        let ex = Exchange::new(&shape).unwrap();
        assert!(ex.is_padded());
        let report = ex.run_counting(&CommParams::unit()).unwrap();
        assert!(report.verified, "{shape} (padded) failed");
        assert!(report.padded);
        // Step counts follow the *padded* shape's closed form.
        assert_eq!(
            report.counts.startup_steps, report.formula.startup_steps,
            "{shape}"
        );
    }
}

#[test]
fn completion_time_components_consistent() {
    let shape = TorusShape::new_2d(8, 12).unwrap();
    let params = CommParams::cray_t3d_like();
    let report = Exchange::new(&shape)
        .unwrap()
        .run_counting(&params)
        .unwrap();
    let recomputed = CompletionTime::from_counts(&report.counts, &params);
    assert!((report.elapsed.startup - recomputed.startup).abs() < 1e-9);
    assert!((report.elapsed.transmission - recomputed.transmission).abs() < 1e-9);
    assert!((report.elapsed.rearrangement - recomputed.rearrangement).abs() < 1e-9);
    assert!((report.elapsed.propagation - recomputed.propagation).abs() < 1e-9);
    // Closed-form prediction equals measurement for exact shapes.
    let predicted = Exchange::new(&shape).unwrap().predicted_time(&params);
    assert!((predicted.total() - report.total_time()).abs() < 1e-6);
}

#[test]
fn payloads_roundtrip_on_rectangular_3d() {
    let shape = TorusShape::new(&[8, 4, 4]).unwrap();
    let (report, deliveries) = Exchange::new(&shape)
        .unwrap()
        .run_with_payloads(&CommParams::unit(), |s, d| {
            (s as u64) * 1_000_003 + d as u64
        })
        .unwrap();
    assert!(report.verified);
    let n = shape.num_nodes();
    for d in 0..n {
        let got = &deliveries[d as usize];
        assert_eq!(got.len(), (n - 1) as usize);
        for (s, p) in got {
            assert_eq!(*p, (*s as u64) * 1_000_003 + d as u64);
        }
    }
}

#[test]
fn switching_modes_affect_time_not_counts() {
    let shape = TorusShape::new_2d(8, 8).unwrap();
    let wormhole = CommParams::cray_t3d_like();
    let packet = CommParams {
        mode: SwitchingMode::PacketSwitched,
        ..wormhole
    };
    let r1 = Exchange::new(&shape)
        .unwrap()
        .run_counting(&wormhole)
        .unwrap();
    let r2 = Exchange::new(&shape)
        .unwrap()
        .run_counting(&packet)
        .unwrap();
    assert_eq!(r1.counts, r2.counts, "counts are switching-independent");
    // The accounted components use the same linear decomposition; per-step
    // times in the trace differ (store-and-forward pays per hop).
    let t1: f64 = r1
        .trace
        .phases
        .iter()
        .flat_map(|p| &p.steps)
        .map(|s| s.time_us)
        .sum();
    let t2: f64 = r2
        .trace
        .phases
        .iter()
        .flat_map(|p| &p.steps)
        .map(|s| s.time_us)
        .sum();
    assert!(t2 > t1, "packet switching must be slower per step");
}

#[test]
fn bigger_torus_costs_more() {
    let params = CommParams::cray_t3d_like();
    let mut last = 0.0;
    for side in [4u32, 8, 12, 16] {
        let shape = TorusShape::new_2d(side, side).unwrap();
        let t = Exchange::new(&shape)
            .unwrap()
            .run_counting(&params)
            .unwrap()
            .total_time();
        assert!(t > last, "time must grow with size");
        last = t;
    }
}

#[test]
fn static_schedule_agrees_with_dynamic_execution() {
    use torus_alltoall::core::StaticSchedule;
    for dims in [&[8u32, 8][..], &[12, 8], &[8, 8, 8]] {
        let shape = TorusShape::new(dims).unwrap();
        let sched = StaticSchedule::generate(&shape);
        sched.validate(&shape).unwrap();
        let report = Exchange::new(&shape)
            .unwrap()
            .run_counting(&CommParams::unit())
            .unwrap();
        // Same total step count...
        assert_eq!(
            sched.total_steps() as u64,
            report.counts.startup_steps,
            "{shape}"
        );
        // ...and the same per-phase structure as the executed trace.
        assert_eq!(sched.phases.len(), report.trace.phases.len());
        for (sp, tp) in sched.phases.iter().zip(&report.trace.phases) {
            assert_eq!(sp.steps.len(), tp.steps.len(), "{shape} {}", sp.name);
        }
    }
}

#[test]
fn all_switching_modes_deliver() {
    let shape = TorusShape::new_2d(8, 8).unwrap();
    for mode in [
        SwitchingMode::Wormhole,
        SwitchingMode::VirtualCutThrough,
        SwitchingMode::PacketSwitched,
        SwitchingMode::CircuitSwitched,
    ] {
        let params = CommParams {
            mode,
            ..CommParams::cray_t3d_like()
        };
        let r = Exchange::new(&shape)
            .unwrap()
            .run_counting(&params)
            .unwrap();
        assert!(r.verified, "{mode:?}");
        assert!(r.matches_formula(), "{mode:?}");
    }
}
