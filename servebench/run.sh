#!/usr/bin/env bash
# Builds ntgd-serve and the benchmark from source, then runs one workload.
#
#   bash servebench/run.sh --workload chase-rw --seed 1 --seconds 10 --trace 0
#
# Run from anywhere; builds land in $CARGO_TARGET_DIR (default: .bench_build
# at the repository root).  Build output goes to stderr, so the last line of
# stdout is the benchmark's JSON result.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet -p ntgd-server --bin ntgd-serve 1>&2
cargo build --release --offline --quiet --manifest-path servebench/Cargo.toml 1>&2
exec "$CARGO_TARGET_DIR/release/servebench" --server "$CARGO_TARGET_DIR/release/ntgd-serve" "$@"
