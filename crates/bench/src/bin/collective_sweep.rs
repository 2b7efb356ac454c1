//! Collective sweep (experiment C2): measured byte-real collective
//! execution — broadcast, scatter, gather, allgather, reduce, allreduce
//! — on the runtime's combining-receive executor, across shapes and
//! block sizes.
//!
//! Each (shape, block, op) case runs twice: fault-free and under a
//! seeded 1% frame-drop plan, so the last columns price CRC checking
//! plus NACK/resend recovery per collective. Reductions fold u64 lanes
//! (wrapping sum) and are cross-checked in-runtime against both a
//! serial reference replay and an order-independent direct fold.
//!
//! Prints a table and exports every case's headline numbers to
//! `results/collective_sweep.json` and, as the committed
//! perf-trajectory snapshot, `BENCH_collective_sweep.json` at the repo
//! root.
//!
//! ```text
//! cargo run --release -p bench --bin collective_sweep
//! TORUS_THREADS=16 cargo run --release -p bench --bin collective_sweep
//! ```

use bench::{fnum, Table};
use std::time::Duration;
use torus_runtime::{
    CollectiveOp, CollectiveRuntime, Dtype, FaultPlan, ReduceOp, RetryPolicy, RuntimeConfig,
    RuntimeReport,
};
use torus_serviced::json::Json;
use torus_topology::TorusShape;

/// Seeded 1% frame-drop plan, as in the runtime sweep.
const DROP_RATE: f64 = 0.01;
const DROP_SEED: u64 = 1998; // ICPP '98

/// Every collective the runtime executes, with a representative
/// parameterization (root mid-torus, u64 sum for the reductions).
fn ops(nodes: u32) -> [(&'static str, CollectiveOp); 6] {
    let root = nodes / 2;
    [
        ("broadcast", CollectiveOp::Broadcast { root }),
        ("scatter", CollectiveOp::Scatter { root }),
        ("gather", CollectiveOp::Gather { root }),
        ("allgather", CollectiveOp::Allgather),
        (
            "reduce",
            CollectiveOp::Reduce {
                root,
                op: ReduceOp::Sum,
                dtype: Dtype::U64,
            },
        ),
        (
            "allreduce",
            CollectiveOp::Allreduce {
                op: ReduceOp::Sum,
                dtype: Dtype::U64,
            },
        ),
    ]
}

/// The JSON headline for one run: the snapshot's subset of the report.
fn report_json(r: &RuntimeReport) -> Json {
    Json::obj([
        ("wall_ms", Json::num(r.wall.as_secs_f64() * 1e3)),
        ("wire_bytes", Json::u64(r.wire_bytes)),
        ("bytes_copied", Json::u64(r.bytes_copied)),
        ("peak_node_bytes", Json::u64(r.peak_node_bytes)),
        ("model_us", Json::num(r.analytic.total())),
        ("verified", Json::Bool(r.verified)),
        ("recovered", Json::u64(r.faults.recovered)),
        ("injected_drops", Json::u64(r.faults.injected_drops)),
    ])
}

fn main() {
    let workers = torus_sim::default_threads();
    let mut cases_json: Vec<Json> = Vec::new();

    println!(
        "C2: byte-real collectives on the runtime, {workers} workers (override with \
         TORUS_THREADS); fault columns = {pct:.0}% seeded frame drops\n",
        pct = DROP_RATE * 100.0
    );
    let mut t = Table::new(&[
        "torus",
        "m (B)",
        "op",
        "steps",
        "wall (ms)",
        "wire (KiB)",
        "copied (KiB)",
        "peak node (KiB)",
        "model (µs)",
        "1%-drop wall (ms)",
        "recovered",
        "overhead",
    ]);
    let cases: &[(&[u32], usize)] = &[
        (&[4, 4], 64),
        (&[8, 8], 64),
        (&[8, 8], 1024),
        (&[4, 4, 4], 64),
    ];
    for &(dims, m) in cases {
        let shape = TorusShape::new(dims).unwrap();
        for (name, op) in ops(shape.num_nodes()) {
            let base = RuntimeConfig::default()
                .with_block_bytes(m)
                .with_workers(workers);
            let clean = CollectiveRuntime::new(&shape, op, base.clone())
                .expect("op accepted")
                .run()
                .expect("verified run")
                .0;
            // Tight deadline so dropped frames are re-requested quickly;
            // the overhead column measures CRC + resend cost, not idle
            // deadline waiting.
            let faulty = CollectiveRuntime::new(
                &shape,
                op,
                base.with_faults(FaultPlan::seeded(DROP_SEED).with_drop_rate(DROP_RATE))
                    .with_retry(
                        RetryPolicy::default()
                            .with_deadline(Duration::from_millis(25))
                            .with_backoff(Duration::from_millis(1)),
                    ),
            )
            .expect("op accepted")
            .run()
            .expect("recoverable faults heal")
            .0;
            assert!(clean.verified && faulty.verified, "{shape} {name}");
            let ms = |d: std::time::Duration| fnum(d.as_secs_f64() * 1e3);
            let overhead = (faulty.wall.as_secs_f64() / clean.wall.as_secs_f64().max(f64::EPSILON)
                - 1.0)
                * 100.0;
            t.row(&[
                format!("{shape}"),
                m.to_string(),
                name.to_string(),
                clean.total_steps().to_string(),
                ms(clean.wall),
                fnum(clean.wire_bytes as f64 / 1024.0),
                fnum(clean.bytes_copied as f64 / 1024.0),
                fnum(clean.peak_node_bytes as f64 / 1024.0),
                fnum(clean.analytic.total()),
                ms(faulty.wall),
                format!(
                    "{}/{}",
                    faulty.faults.recovered, faulty.faults.injected_drops
                ),
                format!("{overhead:+.1}%"),
            ]);
            cases_json.push(Json::obj([
                ("shape", Json::str(format!("{shape}"))),
                ("nodes", Json::u64(shape.num_nodes() as u64)),
                ("block_bytes", Json::u64(m as u64)),
                ("op", Json::str(name)),
                ("steps", Json::u64(clean.total_steps() as u64)),
                ("clean", report_json(&clean)),
                ("faulty", report_json(&faulty)),
            ]));
        }
    }
    t.print();
    println!();

    let [nproc, crc32_kernel] = bench::host_json();
    let export = Json::obj([
        ("experiment", Json::str("collective_sweep")),
        ("workers", Json::u64(workers as u64)),
        nproc,
        crc32_kernel,
        ("drop_rate", Json::num(DROP_RATE)),
        ("drop_seed", Json::u64(DROP_SEED)),
        ("cases", Json::Arr(cases_json)),
    ]);
    for path in bench::export_json("collective_sweep", &export) {
        println!("(wrote {})", path.display());
    }
    println!(
        "all runs bit-exactly verified against the serial reference replay \
         (u64 reductions additionally against an order-independent direct fold); \
         wall excludes seeding/verification."
    );
}
