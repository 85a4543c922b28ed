/// \file bench_ivm.cc
/// \brief Experiment E18: incremental view maintenance vs. full recompute.
///
/// Two mixed read/write loops, each over one large memo:
///
///  * chains — a ~1M-tuple transitive-closure memo: 9600 disjoint
///    14-edge chains (134,400 edge tuples, 1,008,000 path tuples), a
///    recursive SCC;
///  * join — a non-recursive join with a wildcard projection,
///    tagged(N, T) :- event(_, N) & tag(N, T), over 262,144 events (four
///    per key) and 69,632 tags (65,536 tagged memo rows).
///
/// Each iteration appends a batch (one tail edge per chain, or one event
/// per spare tag key; batch sizes 1 / 64 / 4096), reads through the memo
/// — which forces the refresh being measured — then erases the same rows
/// and reads again, restoring the base state. The refresh dominates, so
/// the loop measures patching a small delta into a large memo (ivm auto)
/// vs. rerunning the evaluation from scratch (ivm off).
///
/// The acceptance criterion is the per-batch-size ratio of
/// BM_RefreshFull to BM_RefreshAuto wall time: >= 10x at every batch
/// size up to 4096. BM_VerifyIdentical is registered last and aborts
/// the binary if the two engines' memos ever diverge (checked after the
/// insert half and after the erase half at every batch size, for both
/// programs).
///
/// Output lands in BENCH_ivm.json via tools/run_bench.sh bench_ivm.

#include <benchmark/benchmark.h>

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "bench/bench_util.h"
#include "src/api/engine.h"

namespace gluenail {
namespace {

/// The two maintained programs.
enum class Workload { kChains, kJoin };

constexpr int kChains = 9600;
constexpr int kChainEdges = 14;  // nodes 0..14 per chain; slot 15 appended
constexpr int kStride = 32;      // node id = chain * kStride + slot

constexpr int kEvents = 262144;
constexpr int kKeys = 65536;  // event E carries key E % kKeys
constexpr int kSpare = 4096;  // tag keys kKeys.. have no event in the base

constexpr std::string_view kJoinModule = R"(
module kb;
edb event(E, N), tag(N, T);
tagged(N, T) :- event(_, N) & tag(N, T).
end
)";

int Node(int chain, int slot) { return chain * kStride + slot; }

/// The batch appended (and later retracted) by one iteration: one tail
/// edge per chain for the first \p batch chains, or one event for each of
/// the first \p batch spare tag keys.
MutationBatch DeltaBatch(Workload w, int batch, bool insert) {
  MutationBatch b;
  for (int i = 0; i < batch; ++i) {
    std::string fact =
        w == Workload::kChains
            ? StrCat("edge(", Node(i, kChainEdges), ",",
                     Node(i, kChainEdges + 1), ")")
            : StrCat("event(", kEvents + i, ",", kKeys + i, ")");
    if (insert) {
      b.Insert(fact);
    } else {
      b.Erase(fact);
    }
  }
  return b;
}

/// The memo rows a batch's \p i-th row changes, as a goal.
std::string TouchedGoal(Workload w, int i) {
  return w == Workload::kChains ? StrCat("path(", Node(i, 0), ", Y)")
                                : StrCat("tagged(", kKeys + i, ", T)");
}

/// One engine per (workload, ivm mode), built lazily and kept for the
/// whole binary (function-local statics are constructed thread-safely).
class IvmHarness {
 public:
  static IvmHarness& Get(Workload w, IvmMode mode) {
    if (w == Workload::kChains) {
      static IvmHarness auto_h(w, IvmMode::kAuto);
      static IvmHarness off_h(w, IvmMode::kOff);
      return mode == IvmMode::kOff ? off_h : auto_h;
    }
    static IvmHarness auto_h(w, IvmMode::kAuto);
    static IvmHarness off_h(w, IvmMode::kOff);
    return mode == IvmMode::kOff ? off_h : auto_h;
  }

  Engine& engine() { return *engine_; }

  /// Read through the memo at one key; forces the refresh.
  size_t Probe() {
    Engine::QueryResult r =
        bench::Require(engine_->Query(TouchedGoal(workload_, 0)));
    return r.rows.size();
  }

 private:
  IvmHarness(Workload w, IvmMode mode) : workload_(w) {
    EngineOptions opts;
    opts.ivm_mode = mode;
    engine_ = std::make_unique<Engine>(opts);
    MutationBatch base;
    if (w == Workload::kChains) {
      bench::Require(engine_->LoadProgram(bench::TcModule("")));
      for (int c = 0; c < kChains; ++c) {
        for (int i = 0; i < kChainEdges; ++i) {
          base.Insert(
              StrCat("edge(", Node(c, i), ",", Node(c, i + 1), ")"));
        }
      }
    } else {
      bench::Require(engine_->LoadProgram(kJoinModule));
      for (int e = 0; e < kEvents; ++e) {
        base.Insert(StrCat("event(", e, ",", e % kKeys, ")"));
      }
      for (int n = 0; n < kKeys + kSpare; ++n) {
        base.Insert(StrCat("tag(", n, ",c", n % 16, ")"));
      }
    }
    bench::Require(engine_->ApplyBatch(base).status());
    Probe();  // materialize the base memo outside any timing loop
  }

  Workload workload_;
  std::unique_ptr<Engine> engine_;
};

void RefreshLoop(benchmark::State& state, Workload w, IvmMode mode) {
  IvmHarness& harness = IvmHarness::Get(w, mode);
  const int batch = static_cast<int>(state.range(0));
  const MutationBatch grow = DeltaBatch(w, batch, /*insert=*/true);
  const MutationBatch shrink = DeltaBatch(w, batch, /*insert=*/false);
  for (auto _ : state) {
    bench::Require(harness.engine().ApplyBatch(grow).status());
    benchmark::DoNotOptimize(harness.Probe());
    bench::Require(harness.engine().ApplyBatch(shrink).status());
    benchmark::DoNotOptimize(harness.Probe());
  }
  NailEngine* nail = harness.engine().nail_engine();
  state.SetItemsProcessed(state.iterations() * 2);  // refreshes
  state.counters["delta_refreshes"] =
      static_cast<double>(nail->delta_refresh_count());
  state.counters["full_refreshes"] =
      static_cast<double>(nail->full_refresh_count());
}

void BM_RefreshAuto(benchmark::State& state) {
  RefreshLoop(state, Workload::kChains, IvmMode::kAuto);
}
BENCHMARK(BM_RefreshAuto)->Arg(1)->Arg(64)->Arg(4096)->UseRealTime();

void BM_RefreshFull(benchmark::State& state) {
  RefreshLoop(state, Workload::kChains, IvmMode::kOff);
}
BENCHMARK(BM_RefreshFull)
    ->Arg(1)
    ->Arg(64)
    ->Arg(4096)
    ->Iterations(2)
    ->UseRealTime();

void BM_RefreshAutoJoin(benchmark::State& state) {
  RefreshLoop(state, Workload::kJoin, IvmMode::kAuto);
}
BENCHMARK(BM_RefreshAutoJoin)->Arg(1)->Arg(64)->Arg(4096)->UseRealTime();

void BM_RefreshFullJoin(benchmark::State& state) {
  RefreshLoop(state, Workload::kJoin, IvmMode::kOff);
}
BENCHMARK(BM_RefreshFullJoin)
    ->Arg(1)
    ->Arg(64)
    ->Arg(4096)
    ->Iterations(2)
    ->UseRealTime();

/// Aborts the binary if the incrementally maintained memo ever differs
/// from the recomputed one. Row-count equality over the whole memo plus
/// rendered-row equality on every key the batch touched (TermIds are
/// pool-local, so cross-engine comparison goes through text), checked
/// after both halves of the mixed loop.
void CheckIdentical(Workload w, int batch) {
  Engine& a = IvmHarness::Get(w, IvmMode::kAuto).engine();
  Engine& b = IvmHarness::Get(w, IvmMode::kOff).engine();
  const char* all = w == Workload::kChains ? "path(X, Y)" : "tagged(N, T)";
  size_t na = bench::Require(a.Query(all)).rows.size();
  size_t nb = bench::Require(b.Query(all)).rows.size();
  if (na != nb) {
    fprintf(stderr, "bench_ivm: %s size diverged at batch %d: %zu vs %zu\n",
            all, batch, na, nb);
    std::abort();
  }
  for (int i = 0; i < batch; ++i) {
    std::string goal = TouchedGoal(w, i);
    auto render = [&goal](Engine& e) {
      std::string out;
      for (const Tuple& row : bench::Require(e.Query(goal)).rows) {
        for (TermId id : row) {
          out += e.terms().ToString(id);
          out += ',';
        }
        out += ';';
      }
      return out;
    };
    if (render(a) != render(b)) {
      fprintf(stderr, "bench_ivm: %s diverged at batch %d\n", goal.c_str(),
              batch);
      std::abort();
    }
  }
}

void BM_VerifyIdentical(benchmark::State& state) {
  for (auto _ : state) {
    for (Workload w : {Workload::kChains, Workload::kJoin}) {
      for (int batch : {1, 64, 4096}) {
        for (IvmMode mode : {IvmMode::kAuto, IvmMode::kOff}) {
          Engine& e = IvmHarness::Get(w, mode).engine();
          bench::Require(e.ApplyBatch(DeltaBatch(w, batch, true)).status());
        }
        CheckIdentical(w, batch);
        for (IvmMode mode : {IvmMode::kAuto, IvmMode::kOff}) {
          Engine& e = IvmHarness::Get(w, mode).engine();
          bench::Require(e.ApplyBatch(DeltaBatch(w, batch, false)).status());
        }
        CheckIdentical(w, batch);
      }
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_VerifyIdentical)->Iterations(1);

}  // namespace
}  // namespace gluenail

BENCHMARK_MAIN();
