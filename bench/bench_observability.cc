/// \file bench_observability.cc
/// \brief Experiment E14: observability overhead A/B.
///
/// Every benchmark runs the same workload with tracing off (the default)
/// and on (QueryOptions::trace), so the per-query cost of span recording,
/// plan capture, and ring insertion is the off/on delta. The acceptance
/// bar from the issue is the *off* side: with no sink installed a span
/// site is one thread-local load, so TraceOff must stay within 5% of the
/// pre-observability baseline (tracked via BENCH_observability.json
/// deltas across commits). A third group measures DumpMetrics itself,
/// since scrapes run concurrently with queries in production.

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"

namespace gluenail {
namespace {

/// Join workload: a 3-atom body over relations with maintained stats, the
/// shape where per-op spans and plan capture cost the most relative to
/// useful work.
std::unique_ptr<Engine> JoinEngine() {
  auto engine = std::make_unique<Engine>();
  std::mt19937 rng(1991);
  std::uniform_int_distribution<int> key(0, 199);
  for (int i = 0; i < 2000; ++i) {
    bench::Require(engine->AddFact(StrCat("big(", key(rng), ",", i, ").")));
  }
  for (int i = 0; i < 200; ++i) {
    bench::Require(engine->AddFact(StrCat("mid(", i, ",", i % 10, ").")));
  }
  for (int i = 0; i < 10; ++i) {
    bench::Require(engine->AddFact(StrCat("tiny(", i, ").")));
  }
  return engine;
}

void BM_Query_Join(benchmark::State& state) {
  std::unique_ptr<Engine> engine = JoinEngine();
  QueryOptions opts;
  opts.trace = state.range(0) != 0;
  for (auto _ : state) {
    Result<Engine::QueryResult> r =
        engine->Query("tiny(X) & mid(X,Y) & big(Y,Z)", opts);
    bench::Require(r.status());
    benchmark::DoNotOptimize(r->rows.size());
  }
}
BENCHMARK(BM_Query_Join)
    ->Arg(0)
    ->Arg(1)
    ->ArgName("trace");

/// Fixpoint workload: transitive closure on a chain, where the semi-naive
/// driver's per-iteration spans dominate the trace.
void BM_Query_Fixpoint(benchmark::State& state) {
  Engine engine;
  bench::Require(
      engine.LoadProgram(bench::TcModule(bench::ChainFacts(128))));
  QueryOptions opts;
  opts.trace = state.range(0) != 0;
  for (auto _ : state) {
    Result<Engine::QueryResult> r = engine.Query("path(0,X)", opts);
    bench::Require(r.status());
    benchmark::DoNotOptimize(r->rows.size());
  }
}
BENCHMARK(BM_Query_Fixpoint)
    ->Arg(0)
    ->Arg(1)
    ->ArgName("trace");

/// Tiny point query: the worst case for relative overhead — almost no
/// work per query, so the Begin/FinishQueryObs bracket and the metric
/// increments are a visible fraction.
void BM_Query_Point(benchmark::State& state) {
  Engine engine;
  for (int i = 0; i < 64; ++i) {
    bench::Require(engine.AddFact(StrCat("p(", i, ").")));
  }
  QueryOptions opts;
  opts.trace = state.range(0) != 0;
  for (auto _ : state) {
    Result<Engine::QueryResult> r = engine.Query("p(7)", opts);
    bench::Require(r.status());
    benchmark::DoNotOptimize(r->rows.size());
  }
}
BENCHMARK(BM_Query_Point)
    ->Arg(0)
    ->Arg(1)
    ->ArgName("trace");

/// Statement execution with per-op profiling + spans vs. without.
void BM_Statement_Join(benchmark::State& state) {
  std::unique_ptr<Engine> engine = JoinEngine();
  QueryOptions opts;
  opts.trace = state.range(0) != 0;
  for (auto _ : state) {
    bench::Require(engine->ExecuteStatement(
        "out(X,Z) := tiny(X) & mid(X,Y) & big(Y,Z).", opts));
  }
}
BENCHMARK(BM_Statement_Join)
    ->Arg(0)
    ->Arg(1)
    ->ArgName("trace");

/// A metrics scrape: registry walk + every pull callback under the shared
/// engine lock. Range arg selects the export format.
void BM_DumpMetrics(benchmark::State& state) {
  std::unique_ptr<Engine> engine = JoinEngine();
  bench::Require(engine->Query("tiny(X) & mid(X,Y) & big(Y,Z)").status());
  MetricsFormat format =
      state.range(0) != 0 ? MetricsFormat::kJson : MetricsFormat::kPrometheus;
  for (auto _ : state) {
    std::string dump = engine->DumpMetrics(format);
    benchmark::DoNotOptimize(dump.data());
    state.SetBytesProcessed(state.bytes_processed() + dump.size());
  }
}
BENCHMARK(BM_DumpMetrics)
    ->Arg(0)
    ->Arg(1)
    ->ArgName("json");

}  // namespace
}  // namespace gluenail

BENCHMARK_MAIN();
