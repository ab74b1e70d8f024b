#!/usr/bin/env bash
# Builds the benchmark once and runs it.
#
#   benchmark/run.sh [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--out FILE]
#
# Without --workload all four workloads run in turn; without --trace both
# the timed and the traced pass run. Every metric is printed by name with
# its unit; the last line of standard output is one JSON object. Build
# output goes to standard error.
#
# The build is offline and lands in $CARGO_TARGET_DIR (default
# .bench_build at the repo root, which .gitignore names), never in the
# source tree. Traces and checkpoint scratch files go to benchmark/out/.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$root/.bench_build}"

cargo build --release --offline --manifest-path benchmark/Cargo.toml >&2

# The commit goes into the machine descriptor when this is a git checkout.
OAK_BENCH_COMMIT="$(git -C "$root" rev-parse --short HEAD 2>/dev/null || true)"
export OAK_BENCH_COMMIT

exec "$CARGO_TARGET_DIR/release/oak-benchmark" --out-dir benchmark/out "$@"
