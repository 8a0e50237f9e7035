#!/usr/bin/env bash
# Build the release tarr-serve daemon and the perfbench binary from source,
# then run perfbench. Every argument is passed through, e.g.
#
#   bash perfbench/run.sh --workload lockstep_warm --seed 1 --seconds 10 --trace 0
#   bash perfbench/run.sh --smoke
#
# Run from the repository root. Build output goes to stderr; perfbench's
# last line of stdout is the JSON result.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet -p tarr-serve --bin tarr-serve 1>&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml 1>&2
exec "$CARGO_TARGET_DIR/release/perfbench" --serve-bin "$CARGO_TARGET_DIR/release/tarr-serve" "$@"
