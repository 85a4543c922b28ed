/// \file bench_vector.cc
/// \brief Experiment E16: the batch-at-a-time operator path on the
/// join/scan hot path.
///
/// Every match, negation and comparison runs through the batch runner
/// (src/exec/vector/): lane buffers + selection vectors, one emit per
/// 4096-lane batch. Sized at 10k / 100k / 1M rows, and every shape checks
/// its answer.
///
/// History: until the per-record tuple path was deleted, each shape ran
/// twice, tuple-at-a-time and batched, and this file recorded the
/// tuple-vs-batch speedups (about 2x on the 1M-row BM_JoinScan). Those
/// rows are history; the file now tracks the one path over time.
///
/// Heads are kept small on purpose: inserting a large result relation
/// would turn the pipeline measurement into a storage benchmark.
/// BM_KeyedProbeJoin is the deliberately memory-bound counterpoint —
/// index probe chains over a 1M-row arena miss cache, so batching only
/// trims the dispatch slice.

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"

namespace gluenail {
namespace {

/// Values cycle over [0, kVals) so filter selectivities are exact.
constexpr int kVals = 1000;

void RequireRows(Engine* engine, const std::string& goal, size_t expect) {
  auto out = bench::Require(engine->Query(goal));
  if (out.rows.size() != expect) {
    fprintf(stderr, "bench result mismatch for %s: got %zu want %zu\n",
            goal.c_str(), out.rows.size(), expect);
    std::abort();
  }
}

/// Scan leg: full scan of big through a chain of four filters, the last
/// two selective (4 of every 1000 rows survive). The pipelineable run the
/// batch runner fuses into one lane-at-a-time segment.
void BM_ScanFilterChain(benchmark::State& state) {
  const int rows = static_cast<int>(state.range(0));
  Engine engine;
  for (int i = 0; i < rows; ++i) {
    bench::Require(engine.AddFact(StrCat("big(", i, ",", i % kVals, ").")));
  }
  const std::string stmt =
      "out(X) := big(X, Y) & Y >= 0 & Y < 1000 & Y > 990 & Y < 995.";
  for (auto _ : state) {
    bench::Require(engine.ExecuteStatement(stmt));
  }
  RequireRows(&engine, "out(X)", static_cast<size_t>(rows / kVals) * 4);
  state.SetItemsProcessed(state.iterations() * rows);
  state.SetLabel(StrCat("rows=", rows));
}
BENCHMARK(BM_ScanFilterChain)
    ->Arg(10'000)
    ->Arg(100'000)
    ->Arg(1'000'000)
    ->Unit(benchmark::kMillisecond);

/// The headline join/scan shape: scan big, filter down to the last 2999
/// rows, then join the survivors against a 1000-row dimension keyed on
/// its first column. The syntactic cost model pins the written order, so
/// every run uses the same scan-driven plan (plan choice is E13's
/// experiment, not this one).
void BM_JoinScan(benchmark::State& state) {
  const int rows = static_cast<int>(state.range(0));
  EngineOptions opts;
  opts.planner.cost_model = PlannerOptions::CostModel::kSyntactic;
  Engine engine(opts);
  for (int i = 0; i < rows; ++i) {
    bench::Require(engine.AddFact(StrCat("big(", i, ",", i % kVals, ").")));
  }
  for (int k = 0; k < kVals; ++k) {
    bench::Require(engine.AddFact(StrCat("dim(", k, ",", k % 10, ").")));
  }
  const std::string stmt = StrCat(
      "out(P) := big(K, V) & V >= 0 & K > ", rows - 3000, " & dim(V, P).");
  for (auto _ : state) {
    bench::Require(engine.ExecuteStatement(stmt));
  }
  // Survivors cover every V in [0, kVals), so out(P) is the 10 distinct
  // dim payloads.
  RequireRows(&engine, "out(P)", 10);
  state.SetItemsProcessed(state.iterations() * rows);
  state.SetLabel(StrCat("rows=", rows));
}
BENCHMARK(BM_JoinScan)
    ->Arg(10'000)
    ->Arg(100'000)
    ->Arg(1'000'000)
    ->Unit(benchmark::kMillisecond);

/// Probe-heavy join: 1000 driver rows each probing a chain of rows/1000
/// matches keyed into big, filtered selectively afterwards. Walking the
/// probe chains misses cache — the memory-bound bound on what batching
/// can buy.
void BM_KeyedProbeJoin(benchmark::State& state) {
  const int rows = static_cast<int>(state.range(0));
  Engine engine;
  for (int i = 0; i < rows; ++i) {
    bench::Require(engine.AddFact(StrCat("big(", i, ",", i % kVals, ").")));
  }
  for (int k = 0; k < kVals; ++k) {
    bench::Require(engine.AddFact(StrCat("dim(", k, ",", k % 10, ").")));
  }
  const std::string stmt = StrCat(
      "out(P) := dim(V, P) & big(K, V) & K > ", rows - 3000, ".");
  for (auto _ : state) {
    bench::Require(engine.ExecuteStatement(stmt));
  }
  RequireRows(&engine, "out(P)", 10);
  state.SetItemsProcessed(state.iterations() * rows);
  state.SetLabel(StrCat("rows=", rows));
}
BENCHMARK(BM_KeyedProbeJoin)
    ->Arg(10'000)
    ->Arg(100'000)
    ->Arg(1'000'000)
    ->Unit(benchmark::kMillisecond);

/// Negation over the scan path: for every driver row, prove absence in a
/// half-sized relation. Exercises the batched existence check with
/// per-lane early exit.
void BM_NegationScan(benchmark::State& state) {
  const int rows = static_cast<int>(state.range(0));
  Engine engine;
  for (int i = 0; i < rows; ++i) {
    bench::Require(engine.AddFact(StrCat("n(", i, ").")));
    if (i % 2 == 0) bench::Require(engine.AddFact(StrCat("odd(", i, ").")));
  }
  const std::string stmt = "out(X) := n(X) & !odd(X).";
  for (auto _ : state) {
    bench::Require(engine.ExecuteStatement(stmt));
  }
  RequireRows(&engine, "out(X)", static_cast<size_t>(rows / 2));
  state.SetItemsProcessed(state.iterations() * rows);
  state.SetLabel(StrCat("rows=", rows));
}
BENCHMARK(BM_NegationScan)
    ->Arg(10'000)
    ->Arg(100'000)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace gluenail

BENCHMARK_MAIN();
