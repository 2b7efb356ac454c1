//! Output and orchestration: the one-workload child mode the
//! `BENCHMARK.json` contract drives, and the whole-suite mode that runs
//! every workload in a fresh child process, untraced then traced.

use std::io;
use std::path::PathBuf;
use std::process::Command;

use torus_serviced::json::{self, Json};

use crate::awake::KeepAwake;
use crate::run::{self, SETUPS};
use crate::stack::JournalRoot;
use crate::stats::supported_tail;
use crate::trace;
use crate::workload::{Workload, WORKLOADS};

/// Settings shared by both modes.
#[derive(Clone, Debug)]
pub struct SuiteArgs {
    /// Derives payload seeds, fault seeds and op order.
    pub seed: u64,
    /// Length of each timed window (and scale of the traced sample).
    pub seconds: u64,
    /// Run two full sets and compare them.
    pub check_repeat: bool,
    /// Where traces, results and (without `/dev/shm`) journals go.
    pub out_dir: PathBuf,
}

/// Per-run counts that must repeat exactly between two sets.
const EXACT_COUNTS: [&str; 6] = [
    "torus-runtime.wire_bytes",
    "torus-runtime.messages",
    "torus-runtime.bytes_copied",
    "torus-runtime.injected_drops",
    "torus-runtime.recovered",
    "torus-service.cache_misses",
];

fn tool_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

fn metrics_json(metrics: &[(&'static str, &'static str, f64)]) -> Json {
    Json::Obj(
        metrics
            .iter()
            .map(|&(name, unit, value)| {
                (
                    name.to_string(),
                    Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))]),
                )
            })
            .collect(),
    )
}

/// Runs one workload in this process and prints the contract's result:
/// every metric by name with its unit, an `env` line, and as the last
/// line `{"correct", "attempted", "failed", "metrics"}`. Returns whether
/// every op passed the correctness gate.
pub fn run_one(w: &'static Workload, args: &SuiteArgs, traced: bool) -> io::Result<bool> {
    let journals = JournalRoot::create(&args.out_dir)?;
    println!(
        "# torus-benchmark workload={} seed={} seconds={} trace={}",
        w.name,
        args.seed,
        args.seconds,
        u8::from(traced)
    );
    println!("# why: {}", w.why);
    println!(
        "# closed loop, {} connection(s), batch {}, workers=1 per job; wire jobs cross loopback TCP \
         (127.0.0.1, no real link); journal on {} (tmpfs excludes device wait only: record \
         encode, CRC, write, sync_data and group commit all run)",
        w.connections, w.batch, journals.fs
    );
    let ops = w.ops(args.seed);
    let awake = w.keep_awake.then(KeepAwake::start).flatten();

    let mut env = vec![
        ("workload", Json::str(w.name)),
        ("seed", Json::u64(args.seed)),
        ("seconds", Json::u64(args.seconds)),
        (
            "nproc",
            Json::u64(std::thread::available_parallelism().map_or(0, |n| n.get() as u64)),
        ),
        ("journal_fs", Json::str(journals.fs.clone())),
        ("cores_kept_awake", Json::Bool(awake.is_some())),
        (
            "transport",
            Json::str("loopback TCP 127.0.0.1, in-process daemon; no real link"),
        ),
        ("rustc", Json::str(tool_line("rustc", &["--version"]))),
        (
            "git_commit",
            Json::str(tool_line("git", &["rev-parse", "HEAD"])),
        ),
    ];

    let (metrics, attempted, failed) = if traced {
        let traced = trace::measure(w, &ops, args.seed, args.seconds, &journals, &args.out_dir)?;
        env.push(("traced_ops", Json::u64(traced.sample as u64)));
        (traced.metrics, traced.attempted, traced.failed)
    } else {
        let measured = run::measure(w, &ops, args.seconds, &journals)?;
        for (name, unit, value) in &measured.info {
            println!("info {name} = {value} {unit}");
        }
        let samples = measured.attempted - measured.failed;
        env.extend([
            ("ops", Json::u64(measured.attempted as u64)),
            ("samples", Json::u64(samples as u64)),
            ("window_s", Json::Num(measured.window_s)),
            ("setups", Json::u64(SETUPS as u64)),
            // Whether p90 has the ten samples beyond it that make it
            // worth reading, and the highest percentile that does.
            ("p90_samples_beyond", Json::u64((samples / 10) as u64)),
            (
                "supported_tail_percentile",
                Json::Num(supported_tail(samples)),
            ),
        ]);
        (measured.metrics, measured.attempted, measured.failed)
    };
    drop(awake);
    drop(journals);

    for (name, unit, value) in &metrics {
        println!("{name} = {value} {unit}");
    }
    println!("attempted = {attempted} count");
    println!("failed = {failed} count");
    println!("env {}", Json::obj(env).dump());
    let correct = failed == 0;
    println!(
        "{}",
        Json::obj([
            ("correct", Json::Bool(correct)),
            ("attempted", Json::u64(attempted as u64)),
            ("failed", Json::u64(failed as u64)),
            ("metrics", metrics_json(&metrics)),
        ])
        .dump()
    );
    Ok(correct)
}

/// One child run's parsed output.
struct ChildResult {
    /// The result object (the last line), plus the `env` line under
    /// `"env"`.
    result: Json,
    /// `correct` in the result and a zero exit code.
    correct: bool,
}

impl ChildResult {
    fn count(&self, key: &str) -> u64 {
        self.result.get(key).and_then(Json::as_u64).unwrap_or(0)
    }

    /// `(name, value, unit)` in printed order.
    fn metrics(&self) -> impl Iterator<Item = (&str, f64, &str)> {
        let metrics = self.result.get("metrics").and_then(Json::as_obj);
        metrics.into_iter().flatten().filter_map(|(name, m)| {
            Some((
                name.as_str(),
                m.get("value")?.as_f64()?,
                m.get("unit")?.as_str()?,
            ))
        })
    }

    fn value(&self, name: &str) -> Option<f64> {
        self.metrics()
            .find(|&(n, _, _)| n == name)
            .map(|(_, v, _)| v)
    }
}

/// Runs one workload in a fresh child process and parses its output.
fn run_child(w: &Workload, args: &SuiteArgs, traced: bool) -> io::Result<ChildResult> {
    let output = Command::new(std::env::current_exe()?)
        .args(["--workload", w.name])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .arg("--out")
        .arg(&args.out_dir)
        .output()?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let bad = |what: &str| {
        io::Error::other(format!(
            "{} (trace={}): {what}\n{}",
            w.name,
            u8::from(traced),
            String::from_utf8_lossy(&output.stderr)
        ))
    };
    let last = stdout
        .lines()
        .last()
        .ok_or_else(|| bad("printed nothing"))?;
    let mut result = json::parse(last).map_err(|e| bad(&format!("last line is not JSON: {e}")))?;
    let env = stdout
        .lines()
        .find_map(|l| l.strip_prefix("env "))
        .and_then(|l| json::parse(l).ok())
        .unwrap_or(Json::Null);
    let correct =
        result.get("correct").and_then(Json::as_bool) == Some(true) && output.status.success();
    match &mut result {
        Json::Obj(pairs) if pairs.iter().any(|(k, _)| k == "metrics") => {
            pairs.push(("env".to_string(), env));
        }
        _ => return Err(bad("result has no metrics")),
    }
    Ok(ChildResult { result, correct })
}

/// One full set: every workload untraced, then every workload traced.
struct Set {
    untraced: Vec<ChildResult>,
    traced: Vec<ChildResult>,
}

fn run_set(args: &SuiteArgs) -> io::Result<Set> {
    let pass = |traced: bool| {
        WORKLOADS
            .iter()
            .map(|w| {
                eprintln!("running {} (trace={})...", w.name, u8::from(traced));
                run_child(w, args, traced)
            })
            .collect::<io::Result<Vec<_>>>()
    };
    Ok(Set {
        untraced: pass(false)?,
        traced: pass(true)?,
    })
}

fn print_set(set: &Set) {
    for (w, (untraced, traced)) in WORKLOADS.iter().zip(set.untraced.iter().zip(&set.traced)) {
        println!("\n== {} ==", w.name);
        println!("   {}", w.why);
        println!(
            "   end to end (untraced): attempted {} failed {} failed_ops_pct {:.3} %",
            untraced.count("attempted"),
            untraced.count("failed"),
            100.0 * untraced.count("failed") as f64 / untraced.count("attempted").max(1) as f64
        );
        for (name, value, unit) in untraced.metrics() {
            println!("   {name:<44} {value:>16.4} {unit}");
        }
        println!(
            "   per layer (traced): attempted {} failed {}",
            traced.count("attempted"),
            traced.count("failed")
        );
        for (name, value, unit) in traced.metrics() {
            println!("   {name:<44} {value:>16.4} {unit}");
        }
        if let (Some(plain), Some(with_trace)) = (
            untraced.value("done_ms_p50"),
            traced.value("benchmark.traced_done_ms_p50"),
        ) {
            println!(
                "   {:<44} {:>16.4} % (traced root p50 {with_trace:.4} ms vs untraced {plain:.4} ms)",
                "trace_overhead_pct",
                100.0 * (with_trace / plain - 1.0)
            );
        }
    }
}

/// `(name, higher is better, bound)` of every end-to-end metric, from
/// the `BENCHMARK.json` in the working directory (`run.sh` runs from
/// the checkout's root).
fn declared_bounds() -> io::Result<Vec<(String, bool, f64)>> {
    let text = std::fs::read_to_string("BENCHMARK.json")?;
    let contract = json::parse(&text).map_err(io::Error::other)?;
    contract
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or_else(|| io::Error::other("BENCHMARK.json has no end_to_end"))?
        .iter()
        .map(|m| {
            let name = m.get("name").and_then(Json::as_str);
            let better = m.get("better").and_then(Json::as_str);
            let bound = m.get("bound").and_then(Json::as_f64);
            match (name, better, bound) {
                (Some(name), Some(better), Some(bound)) => {
                    Ok((name.to_string(), better == "higher", bound))
                }
                _ => Err(io::Error::other("malformed end_to_end entry")),
            }
        })
        .collect()
}

/// Compares two sets: every end-to-end metric against its own bound,
/// and the exact per-run counts for equality. Returns whether the
/// counts matched (a metric out of bound is UNRESOLVED, not a failure:
/// it says the sandbox was too noisy to tell, not that the code moved).
fn check_repeat(first: &Set, second: &Set) -> io::Result<bool> {
    let bounds = declared_bounds()?;
    println!("\n== check-repeat: two sets, same build ==");
    for (i, w) in WORKLOADS.iter().enumerate() {
        for (name, higher_better, bound) in &bounds {
            let (Some(a), Some(b)) = (
                first.untraced[i].value(name),
                second.untraced[i].value(name),
            ) else {
                continue;
            };
            let worse = if *higher_better {
                (a - b) / a
            } else {
                (b - a) / a
            };
            let verdict = if worse <= *bound {
                "PASS"
            } else {
                "UNRESOLVED"
            };
            println!(
                "   {:<18} {name:<14} {a:>14.4} {b:>14.4} {:>+8.2} % (bound {:.0} %) {verdict}",
                w.name,
                100.0 * (b - a) / a,
                100.0 * bound
            );
        }
    }
    let mut counts_match = true;
    for (i, w) in WORKLOADS.iter().enumerate() {
        for name in EXACT_COUNTS {
            let (a, b) = (first.traced[i].value(name), second.traced[i].value(name));
            let same = a == b && a.is_some();
            counts_match &= same;
            println!(
                "   {:<18} {name:<32} {a:?} {b:?} {}",
                w.name,
                if same { "IDENTICAL" } else { "DIFFERENT" }
            );
        }
    }
    Ok(counts_match)
}

/// The whole suite: each workload in a fresh child process, tracing off,
/// then a second, traced pass; prints every metric by name with its unit
/// and writes `<out>/results.json`. With `check_repeat`, does all of it
/// twice and compares the two sets.
pub fn run_all(args: &SuiteArgs) -> io::Result<bool> {
    let first = run_set(args)?;
    print_set(&first);
    let mut sets = vec![first];
    let mut ok = true;
    if args.check_repeat {
        let second = run_set(args)?;
        print_set(&second);
        ok &= check_repeat(&sets[0], &second)?;
        sets.push(second);
    }
    ok &= sets
        .iter()
        .flat_map(|s| s.untraced.iter().chain(&s.traced))
        .all(|r| r.correct);

    let results = Json::Arr(
        sets.iter()
            .map(|set| {
                Json::Obj(
                    WORKLOADS
                        .iter()
                        .zip(set.untraced.iter().zip(&set.traced))
                        .map(|(w, (untraced, traced))| {
                            (
                                w.name.to_string(),
                                Json::obj([
                                    ("untraced", untraced.result.clone()),
                                    ("traced", traced.result.clone()),
                                ]),
                            )
                        })
                        .collect(),
                )
            })
            .collect(),
    );
    std::fs::create_dir_all(&args.out_dir)?;
    let path = args.out_dir.join("results.json");
    std::fs::write(&path, Json::obj([("sets", results)]).dump())?;
    println!(
        "\nresults: {}; traces: {}/trace-<workload>.json; every op checked bit-exactly: {}",
        path.display(),
        args.out_dir.display(),
        if ok { "PASS" } else { "FAIL" }
    );
    Ok(ok)
}
