//! Table 1 — performance summary of the proposed algorithms.
//!
//! Regenerates the paper's Table 1 cost rows and, for every shape,
//! compares the closed forms against step-accurate simulation of the
//! actual schedule (contention-verified). Measured values must equal the
//! formulas exactly.
//!
//! ```text
//! cargo run --release -p bench --bin table1
//! ```

use alltoall_core::Exchange;
use bench::Table;
use cost_model::{proposed_nd, CommParams};
use torus_topology::TorusShape;

fn main() {
    let params = CommParams::unit();
    println!("Table 1: proposed-algorithm costs — closed form vs. measured simulation");
    println!("(unit parameters; startup in steps, transmission in blocks, propagation in hops)\n");

    let shapes: Vec<Vec<u32>> = vec![
        vec![8, 8],
        vec![8, 12],
        vec![12, 12],
        vec![16, 16],
        vec![16, 32],
        vec![32, 32],
        vec![8, 8, 8],
        vec![12, 12, 12],
        vec![16, 16, 8],
        vec![8, 8, 8, 8],
    ];

    let mut t = Table::new(&[
        "torus",
        "startup",
        "meas",
        "trans blk",
        "meas",
        "rearr",
        "meas",
        "prop hops",
        "meas",
        "ok",
    ]);
    let mut all_ok = true;
    for dims in shapes {
        let shape = TorusShape::new(&dims).unwrap();
        let f = proposed_nd(&dims);
        let report = Exchange::new(&shape)
            .unwrap()
            .run_counting(&params)
            .expect("schedule must execute contention-free");
        assert!(report.verified, "{shape}: delivery verification failed");
        let ok = report.matches_formula();
        all_ok &= ok;
        t.row(&[
            format!("{shape}"),
            f.startup_steps.to_string(),
            report.counts.startup_steps.to_string(),
            f.trans_blocks.to_string(),
            report.counts.trans_blocks.to_string(),
            f.rearr_steps.to_string(),
            report.counts.rearr_steps.to_string(),
            f.prop_hops.to_string(),
            report.counts.prop_hops.to_string(),
            if ok { "yes".into() } else { "NO".into() },
        ]);
    }
    t.print();
    println!();
    println!("closed forms: startup n(a1/4+1), transmission n/8(a1+4)Πai,");
    println!("rearrangement n+1 passes of Πai blocks, propagation n(a1-1) hops");
    assert!(all_ok, "some measurement diverged from Table 1");
    println!("\nall measured values match Table 1 exactly");
}
