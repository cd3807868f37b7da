#!/usr/bin/env bash
# Builds the repository's `hdx` binary and this benchmark from source, then
# runs the benchmark:
#
#   bash pipebench/run.sh --workload <explore-shallow|explore-deep|serve-append|all> \
#       --seed <n> --seconds <s> --trace <0|1>
#
# Run from the repository root. Build output goes to $CARGO_TARGET_DIR
# (default `.bench_build`); inputs, server state and per-run artifacts go
# to `.bench_work`. Without the repository around this directory the build
# fails and the script exits non-zero.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet -p hdx-cli >&2
cargo build --release --offline --quiet --manifest-path pipebench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/pipebench" \
    --hdx "$CARGO_TARGET_DIR/release/hdx" --work .bench_work "$@"
