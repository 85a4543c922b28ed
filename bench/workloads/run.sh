#!/usr/bin/env bash
# Builds the workload benchmark (a Release build of its own CMake package)
# and runs it from the repository root.
#
#   bench/workloads/run.sh --workload W --seed S --seconds N --trace 0|1
#       Runs one workload. Its metrics are printed as `name value unit`;
#       the last line of standard output is the JSON result.
#   bench/workloads/run.sh [--seed S] [--seconds N] [--trace 0|1]
#       Runs every workload, each in its own process, so peak_rss_mb
#       belongs to that workload alone.
#
# Either form takes --results DIR (one result file per run, with the run's
# context; default .bench_build/results) and exits non-zero if any answer
# check failed. Build, scratch and result files stay under
# $CARGO_TARGET_DIR, default .bench_build, of the current directory.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
state="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$state"
state="$(cd "$state" && pwd)"
build="$state/workloads"
export TMPDIR="$state/tmp"
mkdir -p "$TMPDIR"

workloads=(deductive_batch served_reads write_ivm)
seed=1
seconds=10
trace=0
results="$state/results"
while [ "$#" -gt 0 ]; do
  case "$1" in
    --workload) workloads=("$2"); shift 2 ;;
    --seed) seed="$2"; shift 2 ;;
    --seconds) seconds="$2"; shift 2 ;;
    --trace) trace="$2"; shift 2 ;;
    --results) results="$2"; shift 2 ;;
    *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
  esac
done

cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=Release >&2
cmake --build "$build" --target bench_workloads -j "$(nproc)" >&2

commit="$(git -C "$here" rev-parse HEAD 2>/dev/null || echo unknown)"
mkdir -p "$results"
status=0
for w in "${workloads[@]}"; do
  "$build/bench_workloads" --workload "$w" --seed "$seed" \
    --seconds "$seconds" --trace "$trace" --work "$state/work" \
    --out "$results/$w-seed$seed-trace$trace.json" --commit "$commit" ||
    status=$?
done
exit "$status"
