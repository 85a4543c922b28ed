/// \file bench_storage.cc
/// \brief Storage-layer microbenchmarks: insert, probe, uniondiff, scan.
///
/// These measure the §10 relational back end directly — no parser, no
/// planner, no executor — so storage changes show up undiluted. The
/// binary writes BENCH_storage.json by default (override with the usual
/// --benchmark_out= flags); tools/run_bench.sh builds Release and runs it.

#include <benchmark/benchmark.h>

#include <string>
#include <string_view>
#include <vector>

#include "src/storage/relation.h"
#include "src/term/term_pool.h"

namespace gluenail {
namespace {

/// Pre-interned int terms so the benchmarks time storage, not interning.
std::vector<TermId> Ints(TermPool* pool, int n) {
  std::vector<TermId> ids;
  ids.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) ids.push_back(pool->MakeInt(i));
  return ids;
}

/// Fill \p r with n distinct binary tuples whose first column has the
/// given fanout (n / fanout distinct keys).
void Fill(Relation* r, const std::vector<TermId>& ids, int n, int fanout) {
  for (int i = 0; i < n; ++i) {
    r->Insert(Tuple{ids[static_cast<size_t>(i / fanout)],
                    ids[static_cast<size_t>(i)]});
  }
}

/// Insert n distinct rows, then re-insert all of them (pure dedup hits).
void BM_InsertDedup(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  TermPool pool;
  std::vector<TermId> ids = Ints(&pool, n);
  for (auto _ : state) {
    Relation r("r", 2);
    Fill(&r, ids, n, 8);
    Fill(&r, ids, n, 8);  // all duplicates
    benchmark::DoNotOptimize(r.size());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n);
}
BENCHMARK(BM_InsertDedup)->Arg(4096)->Arg(65536);

/// Every pair of n ids, then a re-insert of each: a graph closure's
/// shape. Both columns take dense TermIds, so the low bits of the row
/// hash barely change from row to row, unlike Fill's (i/8, i) rows.
void BM_InsertDense(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  TermPool pool;
  std::vector<TermId> ids = Ints(&pool, n);
  for (auto _ : state) {
    Relation r("r", 2);
    for (int pass = 0; pass < 2; ++pass) {
      for (TermId x : ids) {
        for (TermId y : ids) r.Insert(Tuple{x, y});
      }
    }
    benchmark::DoNotOptimize(r.size());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n);
}
BENCHMARK(BM_InsertDense)->Arg(180);

/// The headline: build a relation, index it, then one keyed probe per
/// distinct key with the matching rows consumed. This is the inner loop
/// of every join the executors run.
void BM_InsertProbe(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int fanout = 8;
  TermPool pool;
  std::vector<TermId> ids = Ints(&pool, n);
  for (auto _ : state) {
    Relation r("r", 2);
    Fill(&r, ids, n, fanout);
    r.EnsureIndex(0b01);
    std::vector<uint32_t> rows;
    Tuple key(1);
    uint64_t matched = 0;
    for (int rep = 0; rep < fanout; ++rep) {
      for (int k = 0; k < n / fanout; ++k) {
        key[0] = ids[static_cast<size_t>(k)];
        rows.clear();
        r.Select(0b01, key, &rows);
        for (uint32_t row : rows) {
          matched += r.row(row).size();
        }
      }
    }
    benchmark::DoNotOptimize(matched);
  }
  state.SetItemsProcessed(state.iterations() * 2 * n);
}
BENCHMARK(BM_InsertProbe)->Arg(4096)->Arg(65536);

/// Contains() hit + miss per element: the semi-naive merge filter.
void BM_ContainsProbe(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  TermPool pool;
  std::vector<TermId> ids = Ints(&pool, 2 * n);
  Relation r("r", 2);
  Fill(&r, ids, n, 8);
  for (auto _ : state) {
    uint64_t hits = 0;
    for (int i = 0; i < n; ++i) {
      if (r.Contains(Tuple{ids[static_cast<size_t>(i / 8)],
                           ids[static_cast<size_t>(i)]})) {
        ++hits;
      }
      if (r.Contains(Tuple{ids[static_cast<size_t>(n + i)],
                           ids[static_cast<size_t>(i)]})) {
        ++hits;
      }
    }
    benchmark::DoNotOptimize(hits);
  }
  state.SetItemsProcessed(state.iterations() * 2 * n);
}
BENCHMARK(BM_ContainsProbe)->Arg(4096)->Arg(65536);

/// uniondiff with a half-overlapping source: one semi-naive iteration.
void BM_UnionDiff(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  TermPool pool;
  std::vector<TermId> ids = Ints(&pool, 2 * n);
  Relation src("src", 2);
  for (int i = 0; i < n; ++i) {
    src.Insert(Tuple{ids[static_cast<size_t>(i / 2)],
                     ids[static_cast<size_t>(i + n / 2)]});
  }
  for (auto _ : state) {
    state.PauseTiming();
    Relation acc("acc", 2);
    Fill(&acc, ids, n, 2);
    Relation delta("delta", 2);
    state.ResumeTiming();
    size_t added = acc.UnionDiff(src, &delta);
    benchmark::DoNotOptimize(added);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_UnionDiff)->Arg(4096)->Arg(65536);

/// Full scan over live rows, touching both columns.
void BM_Scan(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  TermPool pool;
  std::vector<TermId> ids = Ints(&pool, n);
  Relation r("r", 2);
  Fill(&r, ids, n, 8);
  // Erase a third so the scan also exercises liveness checks.
  for (int i = 0; i < n; i += 3) {
    r.Erase(Tuple{ids[static_cast<size_t>(i / 8)],
                  ids[static_cast<size_t>(i)]});
  }
  for (auto _ : state) {
    uint64_t sum = 0;
    for (const auto& t : r) {
      sum += t[0] + t[1];
    }
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(r.size()));
}
BENCHMARK(BM_Scan)->Arg(4096)->Arg(65536);

}  // namespace
}  // namespace gluenail

/// Defaults --benchmark_out to BENCH_storage.json so a bare Release run
/// leaves a machine-readable trace of the perf trajectory.
int main(int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  bool has_out = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]).rfind("--benchmark_out=", 0) == 0) {
      has_out = true;
    }
  }
  static std::string out_flag = "--benchmark_out=BENCH_storage.json";
  static std::string fmt_flag = "--benchmark_out_format=json";
  if (!has_out) {
    args.push_back(out_flag.data());
    args.push_back(fmt_flag.data());
  }
  int argc2 = static_cast<int>(args.size());
  benchmark::Initialize(&argc2, args.data());
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
