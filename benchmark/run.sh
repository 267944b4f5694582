#!/usr/bin/env bash
# The one command of the benchmark. Builds the harness (offline, locked) and
# runs it from the repository root.
#
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#       one run of one workload; the last stdout line is the result object
#   benchmark/run.sh [--seed N] [--seconds S] [--traced] [--repeat N]
#       the whole suite, each workload in its own process; writes
#       benchmark/out/result.json; --repeat N adds the A/A spread check
#
# Exits non-zero on a build failure, a failed verification, or (with
# --repeat) a spread beyond its bound in BENCHMARK.json.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
cargo build --release --offline --locked --manifest-path benchmark/Cargo.toml >&2
exec "${CARGO_TARGET_DIR:-benchmark/target}/release/ml4db-benchmark" "$@"
