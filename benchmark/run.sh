#!/usr/bin/env bash
# Builds the benchmark (release, offline) and runs it.
#
#   benchmark/run.sh [--seed N] [--quick] [--check-repeat]
#       every workload in a fresh child process, untraced, then a second,
#       traced pass; prints every metric by name with its unit.
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#       one workload; the last line of stdout is the result object the
#       BENCHMARK.json contract asks for.
#
# Touches nothing outside the checkout except the journal directory it
# creates under /dev/shm (and removes) when that is writable.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
if [ ! -f crates/torus-serviced/Cargo.toml ] || [ ! -d vendor ]; then
    echo "benchmark/run.sh: the stack's sources (crates/, vendor/) are not next to benchmark/; nothing to measure" >&2
    exit 2
fi

# The driver points CARGO_TARGET_DIR at its own build directory; on a
# plain checkout build inside benchmark/ (ignored by git).
target="${CARGO_TARGET_DIR:-benchmark/target}"
CARGO_TARGET_DIR="$target" cargo build --release --offline --quiet \
    --manifest-path benchmark/Cargo.toml >&2

export TORUS_BENCH_OUT="${TORUS_BENCH_OUT:-benchmark/out}"
exec "$target/release/torus-benchmark" "$@"
