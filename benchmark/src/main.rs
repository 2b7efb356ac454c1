//! `torus-benchmark`: one workload per process (the `BENCHMARK.json`
//! contract), or — without `--workload` — the whole suite.

use std::path::PathBuf;
use std::process::ExitCode;

use torus_benchmark::suite::{self, SuiteArgs};
use torus_benchmark::workload;

const USAGE: &str = "usage: torus-benchmark [--workload NAME|all] [--seed N] [--seconds 1..60] \
[--trace 0|1] [--quick] [--check-repeat] [--out DIR]";

struct Cli {
    suite: SuiteArgs,
    workload: Option<String>,
    trace: bool,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Cli, String> {
    let mut cli = Cli {
        suite: SuiteArgs {
            seed: 1,
            seconds: 15,
            check_repeat: false,
            out_dir: std::env::var_os("TORUS_BENCH_OUT")
                .map_or_else(|| PathBuf::from("benchmark/out"), PathBuf::from),
        },
        workload: None,
        trace: false,
    };
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => cli.workload = Some(value()?),
            "--seed" => cli.suite.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                cli.suite.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=60).contains(&cli.suite.seconds) {
                    return Err("--seconds must be 1..=60".into());
                }
            }
            "--trace" => cli.trace = value()? == "1",
            "--quick" => cli.suite.seconds = 1,
            "--check-repeat" => cli.suite.check_repeat = true,
            "--out" => cli.suite.out_dir = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(cli)
}

fn main() -> ExitCode {
    let cli = match parse_args(std::env::args().skip(1)) {
        Ok(cli) => cli,
        Err(message) => {
            eprintln!("{message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match cli.workload.as_deref() {
        None | Some("all") => suite::run_all(&cli.suite),
        Some(name) => match workload::by_name(name) {
            Some(w) => suite::run_one(w, &cli.suite, cli.trace),
            None => {
                let names: Vec<_> = workload::WORKLOADS.iter().map(|w| w.name).collect();
                eprintln!("unknown workload {name:?}; known: {}", names.join(", "));
                return ExitCode::from(2);
            }
        },
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        // Some op failed the correctness gate: the result was printed
        // with `correct: false`.
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("torus-benchmark: {e}");
            ExitCode::from(1)
        }
    }
}
