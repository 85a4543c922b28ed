#!/usr/bin/env bash
# Builds the benchmarks in Release mode and runs them, leaving one
# BENCH_<name>.json per benchmark in the repo root (or $BENCH_OUT_DIR).
#
# Usage: tools/run_bench.sh [bench_name ...]
#   tools/run_bench.sh                 # run every bench target
#   tools/run_bench.sh bench_storage   # run just one
#   tools/run_bench.sh bench_planner   # cost-based planning A/B
#                                      #   -> BENCH_planner.json
#   tools/run_bench.sh bench_observability
#                                      # tracing off/on + DumpMetrics
#                                      #   -> BENCH_observability.json
#   tools/run_bench.sh bench_server    # wire protocol vs in-process,
#                                      # 1..16 concurrent socket clients
#                                      #   -> BENCH_server.json
#   tools/run_bench.sh bench_vector    # batch vs tuple execution A/B at
#                                      # 10k/100k/1M rows
#                                      #   -> BENCH_vector.json
#   tools/run_bench.sh bench_wal       # durable commits/sec at 1..16
#                                      # writers per durability level,
#                                      # recovered state verified
#                                      #   -> BENCH_wal.json
#   tools/run_bench.sh bench_ivm       # incremental (DRed) vs full memo
#                                      # refresh over a 1M-tuple closure
#                                      # and a non-recursive join, batch
#                                      # sizes 1/64/4096, results verified
#                                      # identical
#                                      #   -> BENCH_ivm.json
#   tools/run_bench.sh bench_repl      # read throughput on 1/2/4 WAL-
#                                      # tailing replicas vs the write-
#                                      # loaded primary, plus steady-
#                                      # state replication lag
#                                      #   -> BENCH_repl.json
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${BENCH_BUILD_DIR:-$repo_root/build-release}"
out_dir="${BENCH_OUT_DIR:-$repo_root}"

cmake -B "$build_dir" -S "$repo_root" -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build "$build_dir" -j "$(nproc)" >/dev/null

if [ "$#" -gt 0 ]; then
  benches=("$@")
else
  benches=()
  for exe in "$build_dir"/bench/bench_*; do
    [ -x "$exe" ] && benches+=("$(basename "$exe")")
  done
fi

for name in "${benches[@]}"; do
  exe="$build_dir/bench/$name"
  if [ ! -x "$exe" ]; then
    echo "error: no such benchmark: $name" >&2
    exit 1
  fi
  out="$out_dir/BENCH_${name#bench_}.json"
  echo "== $name -> $out"
  "$exe" --benchmark_out="$out" --benchmark_out_format=json
done
