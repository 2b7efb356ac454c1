//! Bench-regression gate: compares a fresh sweep export against the
//! committed `BENCH_*.json` snapshot and fails (exit 1) when the fresh
//! numbers regress past a tolerance band.
//!
//! Three experiments are understood, dispatched on the export's
//! `experiment` field:
//!
//! * `service_sweep` — per concurrency level, fresh `jobs_per_sec`
//!   must be at least `(1 - tolerance) ×` the committed throughput,
//!   and the level must still complete every job.
//! * `runtime_sweep` / `collective_sweep` — per `(shape, block_bytes,
//!   op)` case, fresh clean `wall_ms` (and `call_ms`, the whole
//!   `run()` call, where the snapshot records it) must be at most
//!   `(1 + tolerance) ×` the committed time; every case must still verify
//!   bit-exactly (clean, faulty, degraded); and the counters the
//!   schedule alone determines (`steps`, `wire_bytes`, `bytes_copied`,
//!   clean `peak_node_bytes`, `injected_drops`, degraded
//!   `extra_wire_bytes` / `dropped_blocks`) must equal the committed
//!   values exactly — correctness and traffic never get a tolerance
//!   band, so a change that puts different bytes on the wire fails even
//!   when it is fast.
//!
//! Both files must record the same `workers` count; a mismatch fails
//! the gate with one line rather than comparing unlike timings. Each
//! side's host (`workers`, `nproc`, `crc32_kernel`) is printed first.
//!
//! The sweeps overwrite `BENCH_*.json` in place when they run, so CI
//! copies the committed snapshot aside *first*, re-runs the sweep, and
//! hands both files here:
//!
//! ```text
//! cp BENCH_service_sweep.json /tmp/baseline.json
//! cargo run --release -p bench --bin service_sweep
//! cargo run --release -p bench --bin bench_gate -- \
//!     --baseline /tmp/baseline.json --fresh BENCH_service_sweep.json
//! ```

use std::process::ExitCode;

use torus_serviced::json::Json;

/// Default tolerance band: CI machines are shared and jittery, so the
/// gate flags sustained regressions, not scheduling noise.
const DEFAULT_TOLERANCE: f64 = 0.25;

/// Absolute grace added to every wall-clock ceiling. Sub-millisecond
/// cases (a 4x4 exchange finishes in ~0.5 ms) are dominated by
/// scheduling noise where a relative band alone would flake.
const WALL_GRACE_MS: f64 = 2.0;

fn get_f64(v: &Json, key: &str) -> Option<f64> {
    v.get(key).and_then(Json::as_f64)
}

fn get_u64(v: &Json, key: &str) -> Option<u64> {
    v.get(key).and_then(Json::as_u64)
}

/// Compares `fresh` against `baseline`, returning one line per
/// violation (empty = gate passes).
fn gate(baseline: &Json, fresh: &Json, tolerance: f64) -> Vec<String> {
    let experiment = baseline.get("experiment").and_then(Json::as_str);
    if fresh.get("experiment").and_then(Json::as_str) != experiment {
        return vec![format!(
            "experiment mismatch: baseline {:?}, fresh {:?}",
            experiment,
            fresh.get("experiment").and_then(Json::as_str)
        )];
    }
    // Times taken at different worker counts are not comparable: gate
    // like for like, or not at all.
    let (base_workers, fresh_workers) = (get_u64(baseline, "workers"), get_u64(fresh, "workers"));
    if base_workers != fresh_workers {
        return vec![format!(
            "workers mismatch: baseline {base_workers:?}, fresh {fresh_workers:?} \
             (re-run the sweep with TORUS_THREADS matching the baseline)"
        )];
    }
    match experiment {
        Some("service_sweep") => gate_service_sweep(baseline, fresh, tolerance),
        Some("runtime_sweep" | "collective_sweep") => gate_case_sweep(baseline, fresh, tolerance),
        other => vec![format!("unknown experiment {other:?}")],
    }
}

fn gate_service_sweep(baseline: &Json, fresh: &Json, tolerance: f64) -> Vec<String> {
    let mut violations = Vec::new();
    let levels = |v: &Json| -> Vec<Json> {
        v.get("levels")
            .and_then(Json::as_arr)
            .map(<[Json]>::to_vec)
            .unwrap_or_default()
    };
    let fresh_levels = levels(fresh);
    for base in levels(baseline) {
        let Some(concurrency) = get_u64(&base, "concurrency") else {
            violations.push("baseline level without concurrency".into());
            continue;
        };
        let Some(new) = fresh_levels
            .iter()
            .find(|l| get_u64(l, "concurrency") == Some(concurrency))
        else {
            violations.push(format!("fresh run lost concurrency level {concurrency}"));
            continue;
        };
        let floor = get_f64(&base, "jobs_per_sec").unwrap_or(0.0) * (1.0 - tolerance);
        let got = get_f64(new, "jobs_per_sec").unwrap_or(0.0);
        if got < floor {
            violations.push(format!(
                "concurrency {concurrency}: {got:.1} jobs/s is below the \
                 gate floor {floor:.1} (committed {:.1}, tolerance {:.0}%)",
                get_f64(&base, "jobs_per_sec").unwrap_or(0.0),
                tolerance * 100.0
            ));
        }
        if get_u64(new, "jobs_completed") != get_u64(&base, "jobs_completed") {
            violations.push(format!(
                "concurrency {concurrency}: completed {:?} jobs, committed {:?}",
                get_u64(new, "jobs_completed"),
                get_u64(&base, "jobs_completed")
            ));
        }
    }
    violations
}

/// Clean-run times bounded by the wall tolerance: the executor's
/// `wall_ms` and the whole call's `call_ms` (runtime sweep only).
const WALL_FIELDS: [&str; 2] = ["wall_ms", "call_ms"];

/// Counters fixed by the schedule (and, for `injected_drops`, by the
/// seeded fault plan), as `(section, field)`; `""` is the case itself.
/// Faulty `peak_node_bytes` is absent on purpose: it counts retained
/// frames, whose lifetime depends on thread timing.
const EXACT_COUNTERS: [(&str, &str); 10] = [
    ("", "steps"),
    ("clean", "wire_bytes"),
    ("clean", "bytes_copied"),
    ("clean", "peak_node_bytes"),
    ("clean", "injected_drops"),
    ("faulty", "wire_bytes"),
    ("faulty", "bytes_copied"),
    ("faulty", "injected_drops"),
    ("degraded", "extra_wire_bytes"),
    ("degraded", "dropped_blocks"),
];

/// The gate shared by `runtime_sweep` and `collective_sweep`: both
/// export `cases`, each with `clean` / `faulty` (and, for all-to-all,
/// `degraded`) sections.
fn gate_case_sweep(baseline: &Json, fresh: &Json, tolerance: f64) -> Vec<String> {
    let mut violations = Vec::new();
    let cases = |v: &Json| -> Vec<Json> {
        v.get("cases")
            .and_then(Json::as_arr)
            .map(<[Json]>::to_vec)
            .unwrap_or_default()
    };
    let text = |c: &Json, field: &str| {
        c.get(field)
            .and_then(Json::as_str)
            .unwrap_or_default()
            .to_string()
    };
    let key = |c: &Json| {
        (
            text(c, "shape"),
            get_u64(c, "block_bytes").unwrap_or(0),
            text(c, "op"),
        )
    };
    let fresh_cases = cases(fresh);
    for base in cases(baseline) {
        let (shape, block, op) = key(&base);
        let label = format!(
            "{shape}/m={block}{}{op}",
            if op.is_empty() { "" } else { "/" }
        );
        let Some(new) = fresh_cases.iter().find(|c| key(c) == key(&base)) else {
            violations.push(format!("fresh run lost case {label}"));
            continue;
        };
        let (Some(base_clean), Some(new_clean)) = (base.get("clean"), new.get("clean")) else {
            violations.push(format!("{label}: missing clean section"));
            continue;
        };
        // The executor's wall, and (where the snapshot records it) the
        // whole `run()` call around it, seeding and verification included.
        for field in WALL_FIELDS {
            let Some(committed) = get_f64(base_clean, field) else {
                continue;
            };
            let ceiling = committed * (1.0 + tolerance) + WALL_GRACE_MS;
            let got = get_f64(new_clean, field).unwrap_or(f64::MAX);
            if got > ceiling {
                violations.push(format!(
                    "{label}: clean {field} {got:.2} exceeds the gate ceiling {ceiling:.2} \
                     (committed {committed:.2}, tolerance {:.0}% + {WALL_GRACE_MS} ms grace)",
                    tolerance * 100.0
                ));
            }
        }
        // Correctness has no tolerance band. A section the committed
        // snapshot never had (collectives have no degraded mode) is not
        // expected of the fresh run either.
        for (name, field) in [
            ("clean", "verified"),
            ("faulty", "verified"),
            ("degraded", "verified_degraded"),
        ] {
            if name == "degraded" && base.get(name).is_none() {
                continue;
            }
            let ok = new
                .get(name)
                .and_then(|s| s.get(field))
                .and_then(Json::as_bool);
            if ok != Some(true) {
                violations.push(format!("{label}: {name}.{field} is {ok:?}, not true"));
            }
        }
        // Neither has the traffic: same schedule, same bytes.
        for (name, field) in EXACT_COUNTERS {
            let read = |case: &Json| match name {
                "" => get_f64(case, field),
                _ => case.get(name).and_then(|s| get_f64(s, field)),
            };
            let Some(want) = read(&base) else {
                continue;
            };
            let got = read(new);
            if got != Some(want) {
                let dot = if name.is_empty() { "" } else { "." };
                violations.push(format!(
                    "{label}: {name}{dot}{field} is {got:?}, committed {want} \
                     (schedule-determined, no tolerance)"
                ));
            }
        }
    }
    violations
}

/// The host an export was taken on, as recorded in it: worker count,
/// `nproc`, and the CRC32 kernel the host selected.
fn host_line(export: &Json) -> String {
    let field = |key: &str| match export.get(key) {
        Some(Json::Str(s)) => s.clone(),
        Some(Json::Num(n)) => n.to_string(),
        _ => "-".to_string(),
    };
    format!(
        "workers {}, nproc {}, crc32_kernel {}",
        field("workers"),
        field("nproc"),
        field("crc32_kernel")
    )
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    torus_serviced::json::parse(text.trim()).map_err(|e| format!("{path}: {e}"))
}

fn run() -> Result<Vec<String>, String> {
    let args: Vec<String> = std::env::args().collect();
    let mut baseline = None;
    let mut fresh = None;
    let mut tolerance = DEFAULT_TOLERANCE;
    let mut i = 1;
    while i < args.len() {
        let key = args[i].as_str();
        let mut val = || -> Result<String, String> {
            i += 1;
            args.get(i)
                .cloned()
                .ok_or_else(|| format!("missing value for {key}"))
        };
        match key {
            "--baseline" => baseline = Some(val()?),
            "--fresh" => fresh = Some(val()?),
            "--tolerance" => {
                tolerance = val()?.parse().map_err(|e| format!("--tolerance: {e}"))?;
                if !(0.0..1.0).contains(&tolerance) {
                    return Err("--tolerance must be a fraction in [0, 1)".into());
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
        i += 1;
    }
    let baseline_path = baseline.ok_or("--baseline is required")?;
    let fresh_path = fresh.ok_or("--fresh is required")?;
    let baseline = load(&baseline_path)?;
    let fresh = load(&fresh_path)?;
    println!(
        "bench gate: {fresh_path} vs committed {baseline_path} (tolerance {:.0}%)",
        tolerance * 100.0
    );
    for (side, export) in [("baseline", &baseline), ("fresh", &fresh)] {
        println!("  {side:<8} {}", host_line(export));
    }
    Ok(gate(&baseline, &fresh, tolerance))
}

fn main() -> ExitCode {
    match run() {
        Ok(violations) if violations.is_empty() => {
            println!("bench gate: PASS");
            ExitCode::SUCCESS
        }
        Ok(violations) => {
            eprintln!("bench gate: FAIL ({} violations)", violations.len());
            for v in &violations {
                eprintln!("  - {v}");
            }
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("bench gate: error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn service(levels: &[(u64, f64, u64)]) -> Json {
        Json::obj([
            ("experiment", Json::str("service_sweep")),
            (
                "levels",
                Json::Arr(
                    levels
                        .iter()
                        .map(|&(c, jps, done)| {
                            Json::obj([
                                ("concurrency", Json::u64(c)),
                                ("jobs_per_sec", Json::num(jps)),
                                ("jobs_completed", Json::u64(done)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    #[test]
    fn equal_runs_pass_and_regressions_fail() {
        let base = service(&[(1, 100.0, 16), (2, 200.0, 16)]);
        assert!(gate(&base, &base, 0.25).is_empty());
        // Within the band: 80 >= 100 * 0.75.
        let ok = service(&[(1, 80.0, 16), (2, 200.0, 16)]);
        assert!(gate(&base, &ok, 0.25).is_empty());
        // Past the band.
        let slow = service(&[(1, 60.0, 16), (2, 200.0, 16)]);
        let violations = gate(&base, &slow, 0.25);
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert!(violations[0].contains("concurrency 1"), "{violations:?}");
        // A lost level and a lost job are violations regardless of speed.
        let lost_level = service(&[(1, 100.0, 16)]);
        assert!(!gate(&base, &lost_level, 0.25).is_empty());
        let lost_job = service(&[(1, 100.0, 15), (2, 200.0, 16)]);
        assert!(!gate(&base, &lost_job, 0.25).is_empty());
    }

    fn runtime(wall_ms: f64, verified: bool) -> Json {
        Json::obj([
            ("experiment", Json::str("runtime_sweep")),
            (
                "cases",
                Json::Arr(vec![Json::obj([
                    ("shape", Json::str("4x4")),
                    ("block_bytes", Json::u64(64)),
                    (
                        "clean",
                        Json::obj([
                            ("wall_ms", Json::num(wall_ms)),
                            ("verified", Json::Bool(verified)),
                        ]),
                    ),
                    ("faulty", Json::obj([("verified", Json::Bool(true))])),
                    (
                        "degraded",
                        Json::obj([("verified_degraded", Json::Bool(true))]),
                    ),
                ])]),
            ),
        ])
    }

    #[test]
    fn runtime_wall_ceiling_and_verification_are_gated() {
        let base = runtime(100.0, true);
        // Ceiling = 100 * 1.25 + 2 ms grace = 127 ms.
        assert!(gate(&base, &runtime(126.0, true), 0.25).is_empty());
        assert!(!gate(&base, &runtime(128.0, true), 0.25).is_empty());
        // The absolute grace keeps noise-dominated sub-ms cases honest
        // but not flaky.
        assert!(gate(&runtime(0.5, true), &runtime(2.0, true), 0.25).is_empty());
        // A verification failure is fatal even when fast.
        let violations = gate(&base, &runtime(5.0, false), 0.25);
        assert!(
            violations.iter().any(|v| v.contains("clean.verified")),
            "{violations:?}"
        );
    }

    /// A sweep export with every gated counter, `tweak`ed per test.
    fn counted(experiment: &'static str, tweak: impl Fn(&str, &str, f64) -> f64) -> Json {
        let n = |section: &str, field: &str, v: f64| Json::num(tweak(section, field, v));
        let mut case = vec![
            ("shape", Json::str("4x4")),
            ("block_bytes", Json::u64(64)),
            ("steps", n("", "steps", 4.0)),
            (
                "clean",
                Json::obj([
                    ("wall_ms", Json::num(1.0)),
                    ("verified", Json::Bool(true)),
                    ("wire_bytes", n("clean", "wire_bytes", 43776.0)),
                    ("bytes_copied", n("clean", "bytes_copied", 11008.0)),
                    ("peak_node_bytes", n("clean", "peak_node_bytes", 960.0)),
                    ("injected_drops", n("clean", "injected_drops", 0.0)),
                ]),
            ),
            (
                "faulty",
                Json::obj([
                    ("verified", Json::Bool(true)),
                    ("wire_bytes", n("faulty", "wire_bytes", 43776.0)),
                    ("bytes_copied", n("faulty", "bytes_copied", 43776.0)),
                    ("peak_node_bytes", n("faulty", "peak_node_bytes", 1644.0)),
                    ("injected_drops", n("faulty", "injected_drops", 2.0)),
                ]),
            ),
        ];
        if experiment == "collective_sweep" {
            case.push(("op", Json::str("allreduce")));
        } else {
            case.push((
                "degraded",
                Json::obj([
                    ("verified_degraded", Json::Bool(true)),
                    (
                        "extra_wire_bytes",
                        n("degraded", "extra_wire_bytes", -3276.0),
                    ),
                    ("dropped_blocks", n("degraded", "dropped_blocks", 30.0)),
                ]),
            ));
        }
        Json::obj([
            ("experiment", Json::str(experiment)),
            ("cases", Json::Arr(vec![Json::obj(case)])),
        ])
    }

    #[test]
    fn schedule_determined_counters_have_no_tolerance() {
        for experiment in ["runtime_sweep", "collective_sweep"] {
            let base = counted(experiment, |_, _, v| v);
            assert!(gate(&base, &base, 0.25).is_empty(), "{experiment}");
            for (section, field) in EXACT_COUNTERS {
                if section == "degraded" && experiment == "collective_sweep" {
                    continue;
                }
                // Off by one — far inside any relative band — still fails.
                let off = counted(experiment, |s, f, v| {
                    if (s, f) == (section, field) {
                        v + 1.0
                    } else {
                        v
                    }
                });
                let violations = gate(&base, &off, 0.25);
                assert_eq!(violations.len(), 1, "{experiment} {section}.{field}");
                assert!(violations[0].contains(field), "{violations:?}");
            }
            // Faulty peak residency is timing-dependent and not gated.
            let racy = counted(experiment, |s, f, v| {
                if (s, f) == ("faulty", "peak_node_bytes") {
                    v + 100.0
                } else {
                    v
                }
            });
            assert!(gate(&base, &racy, 0.25).is_empty(), "{experiment}");
        }
    }

    #[test]
    fn collective_cases_are_keyed_by_op_and_need_no_degraded_section() {
        let base = counted("collective_sweep", |_, _, v| v);
        assert!(gate(&base, &base, 0.25).is_empty());
        // The same shape and block size under another op is a lost case.
        let other_op = Json::obj([
            ("experiment", Json::str("collective_sweep")),
            (
                "cases",
                Json::Arr(vec![Json::obj([
                    ("shape", Json::str("4x4")),
                    ("block_bytes", Json::u64(64)),
                    ("op", Json::str("broadcast")),
                ])]),
            ),
        ]);
        let violations = gate(&base, &other_op, 0.25);
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert!(violations[0].contains("lost case 4x4/m=64/allreduce"));
    }

    /// A one-case runtime sweep taken at `workers`, its clean run timed
    /// at `call_ms` when given.
    fn timed(call_ms: Option<f64>, workers: u64) -> Json {
        let mut clean = vec![("wall_ms", Json::num(1.0)), ("verified", Json::Bool(true))];
        clean.extend(call_ms.map(|c| ("call_ms", Json::num(c))));
        Json::obj([
            ("experiment", Json::str("runtime_sweep")),
            ("workers", Json::u64(workers)),
            (
                "cases",
                Json::Arr(vec![Json::obj([
                    ("shape", Json::str("4x4")),
                    ("block_bytes", Json::u64(64)),
                    ("clean", Json::obj(clean)),
                    ("faulty", Json::obj([("verified", Json::Bool(true))])),
                    (
                        "degraded",
                        Json::obj([("verified_degraded", Json::Bool(true))]),
                    ),
                ])]),
            ),
        ])
    }

    #[test]
    fn call_time_is_gated_only_once_the_baseline_records_it() {
        // An old snapshot without `call_ms` gates nothing on it.
        assert!(gate(&timed(None, 1), &timed(Some(500.0), 1), 0.25).is_empty());
        // Ceiling = 10 * 1.25 + 2 ms grace = 14.5 ms.
        let base = timed(Some(10.0), 1);
        assert!(gate(&base, &timed(Some(14.0), 1), 0.25).is_empty());
        let violations = gate(&base, &timed(Some(15.0), 1), 0.25);
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert!(violations[0].contains("call_ms"), "{violations:?}");
        // A fresh run that stopped recording it fails.
        assert_eq!(gate(&base, &timed(None, 1), 0.25).len(), 1);
    }

    #[test]
    fn worker_count_mismatch_fails_with_one_line() {
        let violations = gate(&timed(None, 1), &timed(None, 2), 0.25);
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert!(violations[0].contains("workers mismatch"), "{violations:?}");
        assert!(host_line(&timed(None, 2)).starts_with("workers 2, nproc -"));
    }

    #[test]
    fn experiment_mismatch_is_a_violation() {
        let violations = gate(&service(&[]), &runtime(1.0, true), 0.25);
        assert!(!violations.is_empty());
    }
}
