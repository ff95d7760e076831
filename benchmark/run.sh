#!/usr/bin/env bash
# Builds the benchmark (offline, release) and runs it. All arguments go to
# fast-bench; see README.md. The driver's form is
#   bash benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
# With no --workload, every workload runs in a fresh process each.
set -euo pipefail
cd "$(dirname "$0")/.."
# The repo's own target directory unless the caller names another; never
# benchmark/target, so the package leaves nothing behind in its directory.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/fast-bench" "$@"
