//! Table 2 — completion-cost comparison on `2^d × 2^d` tori.
//!
//! Prints the paper's four cost rows for Tseng et al. \[13\],
//! Suh & Yalamanchili \[9\], and the proposed algorithm, for d = 2..6; the
//! proposed column additionally carries step-accurate measured values
//! (they must match). A second table evaluates completion time under
//! Cray-T3D-like parameters — the "who actually wins" view of Section 5.
//!
//! ```text
//! cargo run --release -p bench --bin table2
//! ```

use alltoall_core::Exchange;
use bench::{fnum, Table};
use cost_model::{proposed_pow2_square, suh_yalamanchili_9, tseng_13, CommParams};
use torus_topology::TorusShape;

fn main() {
    println!(
        "Table 2: costs on a 2^d x 2^d torus (counts; multiply by t_s / m*t_c / m*rho / t_l)\n"
    );
    for d in 2..=6u32 {
        let side = 1u32 << d;
        let t13 = tseng_13(d);
        let s9 = suh_yalamanchili_9(d);
        let prop = proposed_pow2_square(d);
        println!("d = {d} ({side}x{side}, {} nodes):", side * side);
        let mut t = Table::new(&["cost", "[13]", "[9]", "proposed", "measured"]);

        // Measure the proposed algorithm for feasible sizes.
        let measured = if side <= 32 {
            let shape = TorusShape::new_2d(side, side).unwrap();
            let r = Exchange::new(&shape)
                .unwrap()
                .run_counting(&CommParams::unit())
                .expect("contention-free");
            assert!(r.verified);
            assert!(
                r.matches_formula(),
                "measured must match Table 1/2 closed form"
            );
            Some(r.counts)
        } else {
            None
        };
        let m = |v: Option<u64>| v.map(|x| x.to_string()).unwrap_or_else(|| "-".into());
        t.row(&[
            "startup (steps)".to_string(),
            fnum(t13.startup_steps),
            fnum(s9.startup_steps),
            fnum(prop.startup_steps),
            m(measured.map(|c| c.startup_steps)),
        ]);
        t.row(&[
            "transmission (blocks)".to_string(),
            fnum(t13.trans_blocks),
            fnum(s9.trans_blocks),
            fnum(prop.trans_blocks),
            m(measured.map(|c| c.trans_blocks)),
        ]);
        t.row(&[
            "rearrangement (blocks)".to_string(),
            fnum(t13.rearr_blocks),
            fnum(s9.rearr_blocks),
            fnum(prop.rearr_blocks),
            m(measured.map(|c| c.rearr_steps * (side as u64 * side as u64))),
        ]);
        t.row(&[
            "propagation (hops)".to_string(),
            fnum(t13.prop_hops),
            fnum(s9.prop_hops),
            fnum(prop.prop_hops),
            m(measured.map(|c| c.prop_hops)),
        ]);
        t.print();
        println!();
    }

    let params = CommParams::cray_t3d_like();
    println!(
        "Completion time (µs) under Cray-T3D-like parameters \
         (t_s={} µs, t_c={} µs/B, t_l={} µs, rho={} µs/B, m={} B):\n",
        params.t_s, params.t_c, params.t_l, params.rho, params.block_bytes
    );
    let mut t = Table::new(&["d", "nodes", "[13]", "[9]", "proposed", "best"]);
    for d in 2..=8u32 {
        let a = tseng_13(d).completion_time(&params);
        let b = suh_yalamanchili_9(d).completion_time(&params);
        let c = proposed_pow2_square(d).completion_time(&params);
        let best = [("[13]", a), ("[9]", b), ("proposed", c)]
            .into_iter()
            .min_by(|x, y| x.1.partial_cmp(&y.1).unwrap())
            .unwrap()
            .0;
        t.row(&[
            d.to_string(),
            (1u64 << (2 * d)).to_string(),
            fnum(a),
            fnum(b),
            fnum(c),
            best.to_string(),
        ]);
    }
    t.print();
    println!();
    println!("expected shape (Section 5): proposed == [13] on startup/transmission,");
    println!("beats [13] on rearrangement (3 vs 2^(d-1)+1 passes) and propagation");
    println!("(O(2^d) vs O(2^2d)); [9] wins startups (O(d)) but pays more everywhere else.");
}
