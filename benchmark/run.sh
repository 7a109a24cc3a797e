#!/usr/bin/env bash
# The benchmark of record: builds hexbench in release mode and runs it.
#
#   benchmark/run.sh [--workload W] [--seed N] [--trace [0|1]] [--check]
#   benchmark/run.sh sweep OUT.json          ten seeds per workload into one file
#   benchmark/run.sh compare A.json B.json   medians, quartiles, ratio, verdict
#
# A timed section lasts BENCHMARK.json's run_seconds; the driver of that
# contract passes the same number as `--seconds`.
#
# Run from anywhere; it works from the root of the checkout, reads and
# writes only there, and leaves its files in benchmark/out/.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cd "$here/.."

case "${1:-}" in
sweep | compare)
    exec python3 benchmark/tools.py "$@"
    ;;
esac

# The driver names the target directory; on its own the benchmark keeps
# its build inside its directory.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-benchmark/target}"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2

export HEXBENCH_RUSTC="$(rustc -V 2>/dev/null || echo unknown)"
export HEXBENCH_COMMIT="$(git rev-parse HEAD 2>/dev/null || echo unknown)"
exec "$CARGO_TARGET_DIR/release/hexbench" "$@"
