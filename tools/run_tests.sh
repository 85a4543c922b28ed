#!/usr/bin/env bash
# Builds and runs the test suite across the build configurations the CI
# matrix cares about:
#
#   debug  — Debug build with -Werror (warnings fail the build), full
#            ctest suite; fault/obs/server/vector/wal/ivm/repl share its
#            build tree
#   asan   — -DGLUENAIL_ASAN=ON, runs the asan-labelled storage tests
#            (relation_test includes the dense-key probe-length checks on
#            the dedup and index head tables), barrier_ops_test (record
#            dedup, group_by and aggregates compacting in place), the
#            operator golden suite plus hilog_test and cross_feature_test
#            (structural and HiLog matches on raw lane pointers), the
#            IVM suite with its allocation-fault sweep, the fixpoint
#            oracle suites (nail_reference_test, magic_test), and the
#            durable path: wal_test, commit_log_test, replication_test,
#            persistence_test (with the fact reader's nesting bound),
#            engine_api_test and application_test (which reloads the
#            EDB through LoadEdbFile), and the term pool (term_pool_test)
#            and the `read` builtin's ground-term reads
#            (io_builtins_test), the read plan cache (plan_cache_test),
#            EXPLAIN (explain_test), the service layer (server_test),
#            and the entry points of the engine's request bracket:
#            ad-hoc statements (glue_statements_test), procedure calls
#            (procedures_test) and the fault-injection matrix
#            (fault_injection_test), and the statement writes over NAIL!
#            programs and module facts that the EDB change journal
#            records (nail_test, nail_edge_test, module_system_test),
#            and the small units every layer leans on: the fixed-width
#            integer and FNV helpers (strings_test), status codes
#            (status_test), the REPL with :save through the one atomic
#            file writer (repl_test) and the term printer
#            (ast_printer_test)
#   ubsan  — -DGLUENAIL_UBSAN=ON, runs the ubsan-labelled planner tests,
#            plus relation_test's dense-key checks, barrier_ops_test,
#            hilog_test, cross_feature_test, the IVM suite with its
#            allocation-fault sweep, the fixpoint oracle suites, and the
#            same durable-path (application_test included), term-pool,
#            `read` builtin, plan-cache, service-layer, request-bracket
#            (glue_statements_test, procedures_test, fault_injection_test),
#            change-journal (nail_test, nail_edge_test,
#            module_system_test), storage-stress and small-unit
#            (strings_test, status_test, repl_test, ast_printer_test)
#            suites as asan
#   tsan   — -DGLUENAIL_TSAN=ON, runs the tsan-labelled concurrency tests
#   fault  — Debug build, runs only the faultinject-labelled matrix
#   obs    — Debug build, runs only the obs-labelled observability suite
#            (metrics, traces, the slow-query log, and the golden list of
#            every metric's name, type and help text)
#   server — Debug build, runs only the server-labelled service-layer
#            suite (framing, codecs, end-to-end socket tests); the same
#            tests also run under asan, ubsan and tsan via their labels
#   vector — Debug build, runs only the vector-labelled operator golden
#            suite (pinned answers, actual= rows and rows_scanned,
#            structural and HiLog ops) plus hilog_test and
#            cross_feature_test; the same tests also run under asan, and
#            under tsan or ubsan via their labels
#   wal    — Debug build, runs only the wal-labelled durability suite
#            (crash-point sweeps over batches and inline EDB loads,
#            torn-tail/mid-log recovery, group commit, Recover racing
#            four group-commit writers, the data-directory lifecycle);
#            the same tests also run under asan, ubsan and tsan via
#            their labels
#   ivm    — Debug build, runs only the ivm-labelled incremental view
#            maintenance suite (DRed differential checks,
#            randomized DRed differentials, fallback guards, recovery
#            invalidation, inline EDB loads refreshed by delta, the
#            DRed allocation-fault sweep); both also run under asan and
#            ubsan, and ivm_test under tsan, via their labels
#   repl   — Debug build, runs only the repl-labelled log-shipping
#            replication suite (codecs, the write fence on every EDB
#            write command, convergence, inline loads shipped, snapshot
#            bootstrap, torn streams, fault sweeps); the same tests
#            also run under asan, ubsan and tsan via their labels
#   bench  — Release build of the bench/workloads CMake package in a tree
#            of its own, runs its bench-labelled tests: the workload
#            oracle test and a tiny smoke run of every workload, so each
#            workload's answer checks run against the current engine
#   coverage — Debug build with --coverage in a tree of its own, runs the
#            full ctest suite, then prints (with gcov alone) the fraction
#            of instrumented src/ lines the suite ran and the ten src/
#            files with the most lines it left unrun
#
# Usage: tools/run_tests.sh [config ...]
#   tools/run_tests.sh                # debug + asan + ubsan + tsan
#   tools/run_tests.sh debug          # just the plain suite
#   tools/run_tests.sh fault          # just the fault-injection matrix
#   tools/run_tests.sh obs            # just the observability suite
#
# Build trees are kept per-config under build-<config>/ (override the
# prefix with $TEST_BUILD_PREFIX) so switching configs never thrashes one
# cache. A config that runs one label builds only that label's tests (test
# names equal target names), so a sanitizer tree holds a few test
# binaries, not the whole project. The trees are Ninja trees: Ninja builds
# a label's targets in parallel, where CMake's top-level Makefile
# (.NOTPARALLEL) builds them one after another.
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
prefix="${TEST_BUILD_PREFIX:-$repo_root/build}"

# Every config that shares the build-debug tree configures it the same way,
# so switching between them never reconfigures it.
debug_flags=(-DCMAKE_BUILD_TYPE=Debug -DCMAKE_CXX_FLAGS=-Werror)

# configure <dir> <source> [cmake args...]: configures <dir> with Ninja. A
# tree another generator made is reconfigured from scratch.
configure() {
  local dir="$1" src="$2"; shift 2
  if [ -f "$dir/CMakeCache.txt" ] &&
    ! grep -qx 'CMAKE_GENERATOR:INTERNAL=Ninja' "$dir/CMakeCache.txt"; then
    rm -rf "$dir/CMakeCache.txt" "$dir/CMakeFiles"
  fi
  cmake -B "$dir" -S "$src" -G Ninja "$@" >/dev/null
}

# configure_and_build <dir> <label> [cmake args...]: configures <dir>,
# then builds the targets of the tests labelled <label>, or every target
# when <label> is empty.
configure_and_build() {
  local dir="$1" label="$2"; shift 2
  configure "$dir" "$repo_root" "$@"
  local targets=()
  if [ -n "$label" ]; then
    mapfile -t targets < <(cd "$dir" && ctest -N -L "$label" |
      sed -n 's/^ *Test *#[0-9]*: //p')
    if [ "${#targets[@]}" -eq 0 ]; then
      echo "error: no test carries label '$label'" >&2
      exit 1
    fi
    targets=(--target "${targets[@]}")
  fi
  cmake --build "$dir" -j "$(nproc)" "${targets[@]}"
}

# report_coverage <dir>: merges the gcov line counts of every object in
# <dir> (a line counts as run when any object ran it) and prints the src/
# line fraction and the ten src/ files with the most unrun lines.
report_coverage() {
  local dir="$1"
  find "$dir" -name '*.gcda' -print0 |
    (cd "$dir" && xargs -0 gcov --stdout 2>/dev/null) |
    awk -v src="$repo_root/src/" '
      # gcov text format: "count:line:text"; "-" marks a line with no
      # code, "#####" or "=====" an instrumented line that never ran.
      /^ *-: *0:Source:/ {
        sub(/^ *-: *0:Source:/, ""); file = $0; next
      }
      index(file, src) != 1 || !match($0, /^ *[^ :]+: *[0-9]+:/) { next }
      {
        split(substr($0, 1, RLENGTH), fld, ":")
        count = fld[1]; gsub(/ /, "", count)
        if (count == "-") next
        key = file SUBSEP (fld[2] + 0)
        if (!(key in ran)) { ran[key] = 0; lines[file]++ }
        if (count !~ /^(#####|=====)$/ && !ran[key]) {
          ran[key] = 1; hit[file]++
        }
      }
      END {
        for (f in lines) { total += lines[f]; covered += hit[f] }
        printf "src line coverage: %d of %d lines ran (%.1f%%), %d unrun\n",
               covered, total, total ? 100 * covered / total : 0,
               total - covered
        for (f in lines) {
          printf "%d %s\n", lines[f] - hit[f], substr(f, length(src) + 1)
        }
      }' | {
        IFS= read -r summary
        echo "$summary"
        echo "most unrun lines:"
        sort -rn | head -10 | awk '{ printf "  %6d  src/%s\n", $1, $2 }'
      }
}

# run_ctest <dir> [label]: runs the tests of <dir> (only those labelled
# <label>, when given) with one job per CPU. The job count is explicit
# because a bare `ctest -j` runs the tests one at a time on CMake 3.25.
run_ctest() {
  local dir="$1" label="${2:-}"
  local args=(--output-on-failure -j "$(nproc)")
  if [ -n "$label" ]; then args+=(-L "$label"); fi
  (cd "$dir" && ctest "${args[@]}")
}

run_config() {
  local config="$1"
  case "$config" in
    debug)
      configure_and_build "$prefix-debug" "" "${debug_flags[@]}"
      run_ctest "$prefix-debug"
      ;;
    asan)
      configure_and_build "$prefix-asan" asan -DCMAKE_BUILD_TYPE=Debug \
        -DGLUENAIL_ASAN=ON
      run_ctest "$prefix-asan" asan
      ;;
    ubsan)
      configure_and_build "$prefix-ubsan" ubsan -DCMAKE_BUILD_TYPE=Debug \
        -DGLUENAIL_UBSAN=ON
      run_ctest "$prefix-ubsan" ubsan
      ;;
    tsan)
      configure_and_build "$prefix-tsan" tsan -DCMAKE_BUILD_TYPE=Debug \
        -DGLUENAIL_TSAN=ON
      run_ctest "$prefix-tsan" tsan
      ;;
    fault)
      configure_and_build "$prefix-debug" faultinject "${debug_flags[@]}"
      run_ctest "$prefix-debug" faultinject
      ;;
    obs)
      configure_and_build "$prefix-debug" obs "${debug_flags[@]}"
      run_ctest "$prefix-debug" obs
      ;;
    server)
      configure_and_build "$prefix-debug" server "${debug_flags[@]}"
      run_ctest "$prefix-debug" server
      ;;
    vector)
      configure_and_build "$prefix-debug" vector "${debug_flags[@]}"
      run_ctest "$prefix-debug" vector
      ;;
    wal)
      configure_and_build "$prefix-debug" wal "${debug_flags[@]}"
      run_ctest "$prefix-debug" wal
      ;;
    ivm)
      configure_and_build "$prefix-debug" ivm "${debug_flags[@]}"
      run_ctest "$prefix-debug" ivm
      ;;
    repl)
      configure_and_build "$prefix-debug" repl "${debug_flags[@]}"
      run_ctest "$prefix-debug" repl
      ;;
    coverage)
      configure_and_build "$prefix-coverage" "" -DCMAKE_BUILD_TYPE=Debug \
        -DCMAKE_CXX_FLAGS=--coverage -DCMAKE_EXE_LINKER_FLAGS=--coverage
      # Counts accumulate across runs; start from zero.
      find "$prefix-coverage" -name '*.gcda' -delete
      run_ctest "$prefix-coverage"
      report_coverage "$prefix-coverage"
      ;;
    bench)
      configure "$prefix-bench" "$repo_root/bench/workloads" \
        -DCMAKE_BUILD_TYPE=Release
      cmake --build "$prefix-bench" -j "$(nproc)"
      run_ctest "$prefix-bench" bench
      ;;
    *)
      echo "error: unknown config '$config' (debug|asan|ubsan|tsan|fault|obs|server|vector|wal|ivm|repl|bench|coverage)" >&2
      exit 1
      ;;
  esac
}

configs=("$@")
if [ "${#configs[@]}" -eq 0 ]; then
  configs=(debug asan ubsan tsan)
fi

for config in "${configs[@]}"; do
  echo "== $config"
  run_config "$config"
done
echo "== all configs passed"
