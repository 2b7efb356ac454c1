//! Completion-time sweeps (experiment S1) — the Section 5 comparison as
//! curves instead of single closed forms.
//!
//! Produces three series:
//!
//! 1. completion time vs. 2D torus size, proposed (measured) vs. direct,
//!    ring, row-column (measured) vs. analytic \[13\]/\[9\];
//! 2. the same under three startup/bandwidth regimes (`t_s` sweep),
//!    locating the crossover where message combining stops paying;
//! 3. 3D scaling of the proposed algorithm.
//!
//! ```text
//! cargo run --release -p bench --bin sweep
//! ```

use alltoall_baselines::{
    DirectExchange, ExchangeAlgorithm, RingExchange, RowColumnExchange, SUH_YALAMANCHILI_9,
    TSENG_13,
};
use alltoall_core::{Exchange, ExchangeReport};
use bench::{fnum, Table};
use cost_model::{CommParams, CompletionTime, CostCounts};
use std::io::Write as _;
use torus_topology::TorusShape;

/// One measured run's per-step trace, labeled for the JSON artifact.
#[derive(serde::Serialize)]
// The fields exist for the JSON export; the offline serde stub's derive
// elides the reads a real `Serialize` expansion performs.
#[allow(dead_code)]
struct TraceDump {
    torus: String,
    trace: torus_sim::Trace,
}

/// Writes one CSV artifact under `results/` (plot-ready).
fn write_csv(name: &str, header: &str, rows: &[String]) {
    let dir = std::path::Path::new("results");
    if std::fs::create_dir_all(dir).is_err() {
        return; // read-only checkout: skip export silently
    }
    let path = dir.join(name);
    if let Ok(mut f) = std::fs::File::create(&path) {
        let _ = writeln!(f, "{header}");
        for r in rows {
            let _ = writeln!(f, "{r}");
        }
        println!("(wrote {})", path.display());
    }
}

/// Writes one pretty-printed JSON artifact under `results/`.
fn write_json<T: serde::Serialize>(name: &str, value: &T) {
    let dir = std::path::Path::new("results");
    if std::fs::create_dir_all(dir).is_err() {
        return; // read-only checkout: skip export silently
    }
    let path = dir.join(name);
    match serde_json::to_string_pretty(value) {
        Ok(s) => {
            if std::fs::write(&path, s).is_ok() {
                println!("(wrote {})", path.display());
            }
        }
        Err(e) => eprintln!("json export failed for {name}: {e}"),
    }
}

fn measure_proposed(shape: &TorusShape) -> ExchangeReport {
    let r = Exchange::new(shape)
        .unwrap()
        .run_counting(&CommParams::unit())
        .expect("contention-free");
    assert!(r.verified);
    r
}

fn main() {
    let params = CommParams::cray_t3d_like();

    println!("S1a: completion time (µs) vs. 2D torus size, T3D-like parameters\n");
    let mut t = Table::new(&[
        "torus",
        "proposed",
        "direct",
        "ring",
        "row-col",
        "[13] analytic",
        "[9] analytic",
    ]);
    let mut csv_rows: Vec<String> = Vec::new();
    let mut traces: Vec<TraceDump> = Vec::new();
    for side in [4u32, 8, 12, 16] {
        let shape = TorusShape::new_2d(side, side).unwrap();
        let rep = measure_proposed(&shape);
        let prop = CompletionTime::from_counts(&rep.counts, &params).total();
        traces.push(TraceDump {
            torus: format!("{shape}"),
            trace: rep.trace,
        });
        let dir = DirectExchange.run(&shape, &params).unwrap();
        let ring = RingExchange.run(&shape, &params).unwrap();
        let rc = RowColumnExchange.run(&shape, &params).unwrap();
        assert!(dir.verified && ring.verified && rc.verified);
        let d_log = (side as f64).log2();
        let analytic = if d_log.fract() == 0.0 && side >= 4 {
            let d = d_log as u32;
            (
                fnum(TSENG_13.completion_time(d, &params)),
                fnum(SUH_YALAMANCHILI_9.completion_time(d, &params)),
            )
        } else {
            ("-".into(), "-".into())
        };
        csv_rows.push(format!(
            "{side},{prop},{},{},{}",
            dir.total_time(),
            ring.total_time(),
            rc.total_time()
        ));
        t.row(&[
            format!("{shape}"),
            fnum(prop),
            fnum(dir.total_time()),
            fnum(ring.total_time()),
            fnum(rc.total_time()),
            analytic.0,
            analytic.1,
        ]);
    }
    t.print();
    write_csv(
        "sweep_2d_times.csv",
        "side,proposed_us,direct_us,ring_us,rowcol_us",
        &csv_rows,
    );
    println!();

    println!("S1b: winner vs. t_s on an 8x8 torus (measured counts, m = 64 B)\n");
    let shape = TorusShape::new_2d(8, 8).unwrap();
    let prop_counts = measure_proposed(&shape).counts;
    let base = CommParams::cray_t3d_like();
    let others: Vec<(&str, CostCounts)> = [
        &DirectExchange as &dyn ExchangeAlgorithm,
        &RingExchange,
        &RowColumnExchange,
    ]
    .iter()
    .map(|a| {
        let r = a.run(&shape, &base).unwrap();
        (r.name, r.counts)
    })
    .collect();
    let mut t = Table::new(&[
        "t_s (µs)",
        "proposed",
        "direct",
        "ring",
        "row-col",
        "winner",
    ]);
    for t_s in [0.1, 0.5, 1.0, 5.0, 25.0, 100.0] {
        let p = base.with_t_s(t_s);
        let times: Vec<(&str, f64)> = std::iter::once(("proposed", prop_counts))
            .chain(others.iter().copied())
            .map(|(n, c)| (n, CompletionTime::from_counts(&c, &p).total()))
            .collect();
        let winner = times
            .iter()
            .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
            .unwrap()
            .0;
        t.row(&[
            fnum(t_s),
            fnum(times[0].1),
            fnum(times[1].1),
            fnum(times[2].1),
            fnum(times[3].1),
            winner.to_string(),
        ]);
    }
    t.print();
    println!();

    println!("S1c: proposed algorithm, 3D scaling (measured, T3D-like)\n");
    let mut t = Table::new(&["torus", "nodes", "steps", "crit. blocks", "time (µs)"]);
    for dims in [[4u32, 4, 4], [8, 8, 8], [8, 8, 4], [12, 12, 12]] {
        let shape = TorusShape::new(&dims).unwrap();
        let rep = measure_proposed(&shape);
        let counts = rep.counts;
        let time = CompletionTime::from_counts(&counts, &params).total();
        traces.push(TraceDump {
            torus: format!("{shape}"),
            trace: rep.trace,
        });
        t.row(&[
            format!("{shape}"),
            shape.num_nodes().to_string(),
            counts.startup_steps.to_string(),
            counts.trans_blocks.to_string(),
            fnum(time),
        ]);
    }
    t.print();
    println!();
    write_json("sweep_traces.json", &traces);
    println!("expected shape: combining beats direct except at near-zero t_s;");
    println!("ring competitive only on tiny networks; [9] lowest startup term.");
}
