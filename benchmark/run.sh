#!/usr/bin/env bash
# The repo benchmark's one command. Builds the driver in benchmark/ (a
# package of its own; offline, and without touching the root Cargo.toml
# or Cargo.lock) and runs it:
#
#   benchmark/run.sh --workload <name>|all [--seed N] [--seconds S] [--trace 0|1] [--smoke]
#   benchmark/run.sh repeat [--seed N] [--smoke]   # two sets of three passes, A B A B A B
#   benchmark/run.sh spec | metrics                # render BENCHMARK.json | METRICS.json from src/spec.rs
#   benchmark/run.sh test                          # the driver's own unit tests
#
# Every metric is printed as `name value unit`; the last line of stdout
# is the JSON result. Output files go to benchmark/out/. See README.md.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
# A relative CARGO_TARGET_DIR (the harness sets one) is relative to the
# caller's directory, so nothing here changes directory before cargo runs.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$here/target}"
export LAGRAPH_BENCHMARK_OUT="${LAGRAPH_BENCHMARK_OUT:-$here/out}"

if [ "${1:-}" = "test" ]; then
    exec cargo test --release --offline --manifest-path "$here/Cargo.toml"
fi

# Build output goes to stderr: stdout carries only the benchmark's lines.
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
exec "$CARGO_TARGET_DIR/release/lagraph-benchmark" "$@"
