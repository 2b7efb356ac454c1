//! Runtime sweep (experiment R1): measured byte-moving execution across
//! shapes and block sizes, with the analytic Table 1 prediction alongside.
//!
//! Each case runs three times — fault-free, under a seeded 1% frame-drop
//! plan, and with one node killed mid-schedule under the degrade policy —
//! so the table's last columns show what CRC checking plus NACK/resend
//! recovery costs on top of a clean run, and what quarantining a dead
//! node plus schedule repair costs in wire bytes versus fault-free.
//!
//! Prints a table and exports the headline numbers of every case
//! (per-phase walls, the assembly/transport/rearrange split plus
//! assembly's send and receive halves, wire bytes,
//! peak residency, fault/recovery counters, and the clean run's
//! `call_ms`: the whole `Runtime::run()` call, so seeding and
//! verification have a gated number too) to
//! `results/runtime_sweep.json` and, as the committed perf-trajectory
//! snapshot, `BENCH_runtime_sweep.json` at the repo root. The `copied`
//! column is the send path's
//! `bytes_copied`: headers only on the clean runs, independent of block
//! size — the visible effect of the scatter-gather zero-copy encoder.
//!
//! ```text
//! cargo run --release -p bench --bin runtime_sweep
//! TORUS_THREADS=16 cargo run --release -p bench --bin runtime_sweep
//! ```

use bench::{fnum, Table};
use std::time::{Duration, Instant};
use torus_runtime::{
    FaultPlan, OnFailure, PhaseReport, RetryPolicy, Runtime, RuntimeConfig, RuntimeReport,
    WorkerFaultKind,
};
use torus_serviced::json::Json;
use torus_topology::TorusShape;

/// Seeded 1% frame-drop plan: every dropped frame must be detected by a
/// receive deadline and healed from the sender's retained copy.
const DROP_RATE: f64 = 0.01;
const DROP_SEED: u64 = 1998; // ICPP '98

/// The JSON headline for one configuration of one case — hand-rolled
/// (the offline serde_json stub prints `{}`; these exports exist to be
/// populated). `call` is the timed `run()` call, when it was timed.
fn report_json(r: &RuntimeReport, call: Option<Duration>) -> Json {
    let call_ms = call.map(|c| ("call_ms", Json::num(c.as_secs_f64() * 1e3)));
    let total_ms = |half: fn(&PhaseReport) -> Duration| {
        Json::num(r.phases.iter().map(half).sum::<Duration>().as_secs_f64() * 1e3)
    };
    Json::obj(call_ms.into_iter().chain([
        ("wall_ms", Json::num(r.wall.as_secs_f64() * 1e3)),
        ("assembly_ms", Json::num(r.assembly().as_secs_f64() * 1e3)),
        ("assembly_send_ms", total_ms(|p| p.assembly_send)),
        ("assembly_recv_ms", total_ms(|p| p.assembly_recv)),
        ("transport_ms", Json::num(r.transport().as_secs_f64() * 1e3)),
        ("rearrange_ms", Json::num(r.rearrange().as_secs_f64() * 1e3)),
        ("wire_bytes", Json::u64(r.wire_bytes)),
        ("bytes_copied", Json::u64(r.bytes_copied)),
        ("peak_node_bytes", Json::u64(r.peak_node_bytes)),
        ("model_us", Json::num(r.analytic.total())),
        ("verified", Json::Bool(r.verified)),
        ("recovered", Json::u64(r.faults.recovered)),
        ("injected_drops", Json::u64(r.faults.injected_drops)),
    ]))
}

fn main() {
    let workers = torus_sim::default_threads();
    let mut cases_json: Vec<Json> = Vec::new();

    println!(
        "R1: byte-moving runtime, {workers} workers (override with TORUS_THREADS); \
         fault column = {DROP_RATE:.0}% seeded frame drops\n",
        DROP_RATE = DROP_RATE * 100.0
    );
    let mut t = Table::new(&[
        "torus",
        "nodes",
        "m (B)",
        "steps",
        "wall (ms)",
        "assembly (ms)",
        "transport (ms)",
        "rearrange (ms)",
        "wire (KiB)",
        "copied (KiB)",
        "peak node (KiB)",
        "model (µs)",
        "1%-drop wall (ms)",
        "recovered",
        "overhead",
        "degraded Δwire (KiB)",
        "dropped",
    ]);
    let cases: &[(&[u32], usize)] = &[
        (&[4, 4], 64),
        (&[8, 8], 64),
        (&[8, 8], 1024),
        (&[8, 12], 64),
        (&[4, 4, 4], 64),
        (&[4, 4, 4], 1024), // the benchmark's lib_bulk exchange
        (&[6, 6], 64),      // padded path: executes as 8x8, real pairs only
    ];
    for &(dims, m) in cases {
        let shape = TorusShape::new(dims).unwrap();
        let base = RuntimeConfig::default()
            .with_block_bytes(m)
            .with_workers(workers);
        // `call` is the whole clean `run()`: the report's wall plus
        // seeding, verification and thread spawn around it.
        let runtime = Runtime::new(&shape, base.clone()).expect("shape accepted");
        let t0 = Instant::now();
        let clean = runtime.run().expect("verified run");
        let call = t0.elapsed();
        // Tight deadline so each dropped frame is re-requested quickly;
        // the overhead column then measures CRC + resend cost, not idle
        // waiting on the default half-second deadline.
        let faulty = Runtime::new(
            &shape,
            base.with_faults(FaultPlan::seeded(DROP_SEED).with_drop_rate(DROP_RATE))
                .with_retry(
                    RetryPolicy::default()
                        .with_deadline(Duration::from_millis(25))
                        .with_backoff(Duration::from_millis(1)),
                ),
        )
        .expect("shape accepted")
        .run()
        .expect("recoverable faults heal");
        // Degraded run: kill one mid-schedule node, quarantine it, and
        // complete for the survivors. Δwire prices the repair (contracted
        // scatter hops, fallback sends) against the traffic the dead
        // node no longer generates.
        let kill_node = clean.nodes / 2;
        let kill_step = clean.total_steps() / 2;
        let base_deg = RuntimeConfig::default()
            .with_block_bytes(m)
            .with_workers(workers);
        let degraded = Runtime::new(
            &shape,
            base_deg
                .with_faults(FaultPlan::default().with_worker_fault(
                    kill_step,
                    kill_node,
                    WorkerFaultKind::Kill,
                ))
                .with_on_failure(OnFailure::Degrade),
        )
        .expect("shape accepted")
        .run()
        .expect("degraded run completes for survivors");
        let deg = degraded
            .degraded
            .as_ref()
            .expect("kill under degrade yields a report");
        assert!(deg.verified_degraded, "survivors must verify on {shape}");
        let ms = |d: std::time::Duration| fnum(d.as_secs_f64() * 1e3);
        let overhead =
            (faulty.wall.as_secs_f64() / clean.wall.as_secs_f64().max(f64::EPSILON) - 1.0) * 100.0;
        t.row(&[
            format!("{shape}"),
            clean.nodes.to_string(),
            m.to_string(),
            clean.total_steps().to_string(),
            ms(clean.wall),
            ms(clean.assembly()),
            ms(clean.transport()),
            ms(clean.rearrange()),
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
            {
                let dw = deg.extra_wire_bytes as f64 / 1024.0;
                format!("{}{}", if dw >= 0.0 { "+" } else { "" }, fnum(dw))
            },
            deg.dropped_blocks.to_string(),
        ]);
        cases_json.push(Json::obj([
            ("shape", Json::str(format!("{shape}"))),
            ("nodes", Json::u64(clean.nodes as u64)),
            ("block_bytes", Json::u64(m as u64)),
            ("steps", Json::u64(clean.total_steps() as u64)),
            ("clean", report_json(&clean, Some(call))),
            ("faulty", report_json(&faulty, None)),
            (
                "degraded",
                Json::obj([
                    ("wall_ms", Json::num(degraded.wall.as_secs_f64() * 1e3)),
                    ("extra_wire_bytes", Json::num(deg.extra_wire_bytes as f64)),
                    ("dropped_blocks", Json::u64(deg.dropped_blocks as u64)),
                    ("verified_degraded", Json::Bool(deg.verified_degraded)),
                ]),
            ),
        ]));
    }
    t.print();
    println!();

    let [nproc, crc32_kernel] = bench::host_json();
    let export = Json::obj([
        ("experiment", Json::str("runtime_sweep")),
        ("workers", Json::u64(workers as u64)),
        nproc,
        crc32_kernel,
        ("drop_rate", Json::num(DROP_RATE)),
        ("drop_seed", Json::u64(DROP_SEED)),
        ("cases", Json::Arr(cases_json)),
    ]);
    for path in bench::export_json("runtime_sweep", &export) {
        println!("(wrote {})", path.display());
    }
    println!(
        "all runs bit-exactly verified (clean and 1%-drop in full; degraded \
         runs for every survivor pair); wall excludes seeding/verification, \
         the exported call_ms includes them."
    );
}
