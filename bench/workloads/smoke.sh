#!/usr/bin/env bash
# Smoke run of the workload benchmark (ctest -L bench): every workload,
# untraced and traced, at tiny scale, twice; then the compare tool over
# the two sets. Fails if a run fails or reports a failed operation, or if a
# metric BENCHMARK.json names is missing.
#
#   smoke.sh <bench_workloads binary> <scratch dir>
set -euo pipefail

bin="$1"
out="$2"
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
rm -rf "$out"
for set in a b; do
  mkdir -p "$out/$set"
  for w in deductive_batch served_reads write_ivm; do
    for trace in 0 1; do
      "$bin" --workload "$w" --seed 1 --seconds 0.3 --trace "$trace" --tiny \
        --work "$out/work" --out "$out/$set/$w-trace$trace.json" >/dev/null
    done
  done
done
# Tiny single runs are too noisy for verdicts: only unusable input (exit 2)
# fails the smoke run.
status=0
python3 "$here/compare.py" --benchmark "$here/../../BENCHMARK.json" \
  "$out/a" "$out/b" || status=$?
[ "$status" -le 1 ]
