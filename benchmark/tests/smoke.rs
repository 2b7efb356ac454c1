//! Runs every workload for one second, untraced and traced, and holds
//! the output to `BENCHMARK.json`: the last line has exactly the
//! contract's keys, and every declared metric is printed exactly once,
//! under a well-formed name, with its declared unit.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;

use torus_serviced::json::{self, Json};

fn declared(contract: &Json, section: &str) -> BTreeMap<String, String> {
    contract
        .get(section)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {section}"))
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Json::as_str).expect(k).to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

fn well_formed(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

#[test]
fn every_workload_prints_every_declared_metric_once() {
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR"));
    let contract = std::fs::read_to_string(manifest.join("../BENCHMARK.json"))
        .expect("BENCHMARK.json sits next to benchmark/");
    let contract = json::parse(&contract).expect("BENCHMARK.json parses");
    let workloads: Vec<String> = contract
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Json::as_str)
                .expect("name")
                .to_string()
        })
        .collect();
    let in_code: Vec<&str> = torus_benchmark::workload::WORKLOADS
        .iter()
        .map(|w| w.name)
        .collect();
    assert_eq!(
        workloads, in_code,
        "BENCHMARK.json and the code name the same workloads"
    );

    let out_dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("smoke-out");
    for workload in &workloads {
        for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
            let want = declared(&contract, section);
            let output = Command::new(env!("CARGO_BIN_EXE_torus-benchmark"))
                .args(["--workload", workload, "--seed", "7", "--seconds", "1"])
                .args(["--trace", trace, "--out"])
                .arg(&out_dir)
                .output()
                .expect("benchmark binary runs");
            let stdout = String::from_utf8(output.stdout).expect("utf-8 output");
            assert!(
                output.status.success(),
                "{workload} trace={trace} exited {:?}:\n{stdout}\n{}",
                output.status.code(),
                String::from_utf8_lossy(&output.stderr)
            );

            let last = stdout.lines().last().expect("some output");
            let result = json::parse(last).expect("last line is one JSON object");
            let keys: Vec<&str> = result
                .as_obj()
                .expect("an object")
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(result.get("correct"), Some(&Json::Bool(true)));
            assert_eq!(result.get("failed").and_then(Json::as_u64), Some(0));
            assert!(
                result
                    .get("attempted")
                    .and_then(Json::as_u64)
                    .expect("attempted")
                    >= 1
            );

            let metrics = result
                .get("metrics")
                .and_then(Json::as_obj)
                .expect("metrics");
            let got: BTreeMap<String, String> = metrics
                .iter()
                .map(|(name, m)| {
                    let value = m
                        .get("value")
                        .and_then(Json::as_f64)
                        .expect("numeric value");
                    assert!(value.is_finite(), "{workload} {name} = {value}");
                    if section == "end_to_end" {
                        assert!(value > 0.0, "{workload} {name} must never be 0");
                    }
                    let unit = m.get("unit").and_then(Json::as_str).expect("unit");
                    (name.clone(), unit.to_string())
                })
                .collect();
            assert_eq!(
                got.len(),
                metrics.len(),
                "{workload}: a metric is reported twice"
            );
            assert_eq!(
                got, want,
                "{workload} trace={trace}: names and units as declared"
            );

            for (name, unit) in &want {
                assert!(
                    well_formed(name),
                    "{name:?} is not a well-formed metric name"
                );
                let printed = stdout
                    .lines()
                    .filter(|l| {
                        l.starts_with(&format!("{name} = ")) && l.ends_with(&format!(" {unit}"))
                    })
                    .count();
                assert_eq!(
                    printed, 1,
                    "{workload} trace={trace}: {name} printed {printed} times"
                );
            }
            if trace == "1" {
                let trace_file = out_dir.join(format!("trace-{workload}.json"));
                let spans = std::fs::read_to_string(&trace_file).expect("trace file written");
                let spans = json::parse(&spans).expect("trace file is JSON");
                assert!(!spans
                    .get("spans")
                    .and_then(Json::as_arr)
                    .expect("spans")
                    .is_empty());
            }
        }
    }
}
