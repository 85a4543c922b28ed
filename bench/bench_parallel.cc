/// \file bench_parallel.cc
/// \brief E11: parallel semi-naive scaling. Transitive closure on a random
/// graph with the delta partitioned across 1/2/4/8 worker threads
/// (EngineOptions::num_threads). Every row runs the direct NAIL! mode (the
/// only one that partitions), so the single-thread row doubles as the
/// serial baseline.

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "src/api/session.h"

namespace gluenail {
namespace bench {
namespace {

void BM_ParallelTc(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  const int nodes = static_cast<int>(state.range(1));
  const int edges = nodes * 4;
  const std::string module = TcModule(RandomGraphFacts(nodes, edges));

  size_t rows = 0;
  uint64_t batches = 0;
  for (auto _ : state) {
    state.PauseTiming();
    EngineOptions opts;
    opts.nail_mode = NailMode::kDirect;
    opts.num_threads = threads;
    Engine engine(opts);
    Require(engine.LoadProgram(module));
    state.ResumeTiming();

    auto result = Require(engine.Query("path(0, Y)"));
    rows = result.rows.size();
    batches = engine.nail_engine()->parallel_batches();
    benchmark::DoNotOptimize(result.rows.data());
  }
  state.counters["rows"] = static_cast<double>(rows);
  state.counters["parallel_batches"] = static_cast<double>(batches);
}

BENCHMARK(BM_ParallelTc)
    ->ArgsProduct({{1, 2, 4, 8}, {300, 1000}})
    ->ArgNames({"threads", "nodes"})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

}  // namespace
}  // namespace bench
}  // namespace gluenail

BENCHMARK_MAIN();
