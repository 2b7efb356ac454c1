//! Ablation S2 — per-phase vs. per-step data rearrangement.
//!
//! The paper's data-structure claim (Sections 3.3 and 5): because each
//! phase's send sets are contiguous suffixes of the (re-laid-out) data
//! array, the proposed algorithm pays a *constant* `n + 1` rearrangement
//! passes, while schemes whose send set changes shape every step — like
//! Tseng et al. \[13\] — pay one pass per step, `Θ(C)` in total.
//!
//! This ablation measures both behaviours with the executable algorithms
//! and evaluates the time impact as ρ grows.
//!
//! ```text
//! cargo run --release -p bench --bin ablation_rearrange
//! ```

use alltoall_baselines::{ExchangeAlgorithm, RowColumnExchange};
use alltoall_core::dataarray::DataArray;
use alltoall_core::Exchange;
use bench::{fnum, Table};
use cost_model::{CommParams, CompletionTime};
use torus_topology::{Coord, TorusShape};

fn main() {
    println!("S2: rearrangement passes — proposed (per phase) vs. row-column (per step)\n");
    let mut t = Table::new(&[
        "torus",
        "proposed passes",
        "row-col passes",
        "[13] closed form",
        "proposed model",
    ]);
    for side in [4u32, 8, 16, 32] {
        let shape = TorusShape::new_2d(side, side).unwrap();
        let prop = Exchange::new(&shape)
            .unwrap()
            .run_counting(&CommParams::unit())
            .unwrap();
        assert!(prop.verified);
        let rc = RowColumnExchange.run(&shape, &CommParams::unit()).unwrap();
        assert!(rc.verified);
        // Closed form for [13]: 2^{d-1}+1 passes.
        let d = (side as f64).log2() as u32;
        let tseng_passes = (1u64 << (d - 1)) + 1;
        // Model check from the data-array abstraction itself.
        let model = DataArray::new(&shape, &Coord::zero(2)).rearrangements_for_full_run();
        t.row(&[
            format!("{shape}"),
            prop.counts.rearr_steps.to_string(),
            rc.counts.rearr_steps.to_string(),
            tseng_passes.to_string(),
            model.to_string(),
        ]);
    }
    t.print();
    println!(
        "\nproposed stays at n+1 = 3 passes regardless of size; per-step schemes grow with C\n"
    );

    println!("time impact on a 16x16 torus as rho grows (m = 64 B, T3D-like otherwise):\n");
    let shape = TorusShape::new_2d(16, 16).unwrap();
    let base = CommParams::cray_t3d_like();
    let prop_counts = Exchange::new(&shape)
        .unwrap()
        .run_counting(&base)
        .unwrap()
        .counts;
    let rc_counts = RowColumnExchange.run(&shape, &base).unwrap().counts;
    let mut t = Table::new(&["rho (µs/B)", "proposed (µs)", "row-col (µs)", "ratio"]);
    for rho in [0.0, 0.005, 0.01, 0.05, 0.1] {
        let p = CommParams { rho, ..base };
        let a = CompletionTime::from_counts(&prop_counts, &p).total();
        let b = CompletionTime::from_counts(&rc_counts, &p).total();
        t.row(&[fnum(rho), fnum(a), fnum(b), format!("{:.2}x", b / a)]);
    }
    t.print();
    println!("\nexpected shape: the gap widens with rho — rearrangement is the [13]-family's");
    println!("dominant term at scale, exactly the paper's argument for its data structures.");
}
