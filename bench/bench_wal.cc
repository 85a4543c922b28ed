/// \file bench_wal.cc
/// \brief Experiment E17: durable commit throughput and the group-commit
/// amortization.
///
/// Measures commits/sec for the served mutation path (Session::Execute of
/// a MutationBatch) at 1..16 concurrent writers under each durability
/// level:
///
///   none   — no log at all: the in-memory writer-lock floor
///   async  — log every batch, ack immediately, fsync lazily
///   sync   — fsync before every ack, one batch at a time (the honest
///            per-batch baseline)
///   group  — one leader fsyncs the whole commit group per window
///
/// The acceptance criterion for ROADMAP item 1 is the Threads(8) rows:
/// BM_CommitGroup must beat BM_CommitSync by ≥5× commits/sec — with
/// identical recovered state, which BM_Recover enforces at the end by
/// recovering each level's data directory into a fresh engine and
/// comparing relation contents against the live engine before timing.
///
/// Output lands in BENCH_wal.json via tools/run_bench.sh bench_wal.

#include <benchmark/benchmark.h>

#include <unistd.h>

#include <cstdlib>
#include <set>
#include <vector>

#include "bench/bench_util.h"
#include "src/api/command.h"
#include "src/api/engine.h"
#include "src/api/session.h"
#include "src/storage/recovery.h"

namespace gluenail {
namespace {

/// Distinct keys per writer thread: commits mostly re-insert existing
/// tuples, so memory stays bounded while every commit still pays the full
/// log-append + durability cost.
constexpr int kKeysPerWriter = 1024;

std::string FreshDir(const char* tag) {
  std::string tmpl = StrCat("/tmp/bench_wal_", tag, "_XXXXXX");
  std::vector<char> buf(tmpl.begin(), tmpl.end());
  buf.push_back('\0');
  if (::mkdtemp(buf.data()) == nullptr) {
    fprintf(stderr, "bench_wal: mkdtemp %s failed\n", tmpl.c_str());
    std::abort();
  }
  return std::string(buf.data());
}

/// Every w/2 fact in the engine, rendered to text — the shadow state the
/// recovered engine is compared against.
std::set<std::string> Facts(Engine* engine) {
  Result<std::vector<Tuple>> rows = engine->RelationContents("w", 2);
  std::set<std::string> out;
  if (!rows.ok()) return out;
  for (const Tuple& t : *rows) {
    std::string key;
    for (TermId id : t) {
      key += engine->terms().ToString(id);
      key += ',';
    }
    out.insert(key);
  }
  return out;
}

/// One durable engine per level, lazily built, shared by every thread of
/// that level's benchmark (google-benchmark constructs function-local
/// statics thread-safely).
class WalHarness {
 public:
  static WalHarness& Get(DurabilityLevel level) {
    switch (level) {
      case DurabilityLevel::kNone: {
        static WalHarness* h = new WalHarness(level, "none");
        return *h;
      }
      case DurabilityLevel::kAsync: {
        static WalHarness* h = new WalHarness(level, "async");
        return *h;
      }
      case DurabilityLevel::kSync: {
        static WalHarness* h = new WalHarness(level, "sync");
        return *h;
      }
      case DurabilityLevel::kGroupCommit: {
        static WalHarness* h = new WalHarness(level, "group");
        return *h;
      }
    }
    std::abort();
  }

  Engine& engine() { return *engine_; }
  const std::string& dir() const { return dir_; }
  DurabilityLevel level() const { return level_; }
  bool durable() const { return level_ != DurabilityLevel::kNone; }

  /// Recovers this level's directory into a fresh engine and aborts on
  /// any divergence from the live engine — the "identical recovered
  /// state" half of the acceptance criterion.
  void VerifyRecoveredState() {
    if (!durable()) return;
    EngineOptions opts;
    opts.data_dir = dir_;
    opts.durability = level_;
    Engine fresh(opts);
    bench::Require(fresh.Recover().status());
    std::set<std::string> live = Facts(engine_.get());
    std::set<std::string> recovered = Facts(&fresh);
    if (live != recovered) {
      fprintf(stderr,
              "bench_wal[%s]: recovered state diverges from live state "
              "(%zu vs %zu facts)\n",
              std::string(DurabilityLevelName(level_)).c_str(),
              recovered.size(), live.size());
      std::abort();
    }
  }

 private:
  WalHarness(DurabilityLevel level, const char* tag) : level_(level) {
    EngineOptions opts;
    if (level != DurabilityLevel::kNone) {
      dir_ = FreshDir(tag);
      opts.data_dir = dir_;
      opts.durability = level;
    }
    if (level == DurabilityLevel::kGroupCommit) {
      // Ablation hook: sweep the group-commit linger cap without a
      // rebuild (microseconds; unset keeps the engine default).
      const char* linger = getenv("GLUENAIL_BENCH_GROUP_LINGER_US");
      if (linger != nullptr) {
        opts.wal_group_linger = std::chrono::microseconds(atoll(linger));
      }
    }
    engine_ = std::make_unique<Engine>(opts);
    if (level != DurabilityLevel::kNone) {
      bench::Require(engine_->Recover().status());
    }
  }

  DurabilityLevel level_;
  std::string dir_;
  std::unique_ptr<Engine> engine_;
};

/// One committed batch per iteration through the served mutation path.
/// With --threads=N this is N concurrent writer sessions, which is where
/// group commit's shared fsync separates from kSync's serialized one.
void CommitLoop(benchmark::State& state, DurabilityLevel level) {
  WalHarness& harness = WalHarness::Get(level);
  Session session = harness.engine().OpenSession();
  const int me = state.thread_index();
  int i = 0;
  for (auto _ : state) {
    MutationBatch batch;
    batch.Insert(StrCat("w(", me, ",", i % kKeysPerWriter, ")"));
    Response r = session.Execute(Command::MutateBatch(std::move(batch)));
    bench::Require(r.status);
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
  if (state.thread_index() == 0 && harness.durable()) {
    state.counters["wal_syncs"] = static_cast<double>(
        harness.engine().wal_status().syncs);
    state.counters["durable_lsn"] =
        static_cast<double>(harness.engine().durable_lsn());
  }
}

void BM_CommitNone(benchmark::State& state) {
  CommitLoop(state, DurabilityLevel::kNone);
}
BENCHMARK(BM_CommitNone)->ThreadRange(1, 16)->UseRealTime();

void BM_CommitAsync(benchmark::State& state) {
  CommitLoop(state, DurabilityLevel::kAsync);
}
BENCHMARK(BM_CommitAsync)->ThreadRange(1, 16)->UseRealTime();

void BM_CommitSync(benchmark::State& state) {
  CommitLoop(state, DurabilityLevel::kSync);
}
BENCHMARK(BM_CommitSync)->ThreadRange(1, 16)->UseRealTime();

void BM_CommitGroup(benchmark::State& state) {
  CommitLoop(state, DurabilityLevel::kGroupCommit);
}
BENCHMARK(BM_CommitGroup)->ThreadRange(1, 16)->UseRealTime();

/// Registered last so every commit benchmark has already filled its log:
/// verifies recovered == live for each durable level (aborting the whole
/// binary on divergence), then times a full checkpoint+WAL recovery of
/// the group-commit directory into a scratch database.
void BM_Recover(benchmark::State& state) {
  for (DurabilityLevel level :
       {DurabilityLevel::kAsync, DurabilityLevel::kSync,
        DurabilityLevel::kGroupCommit}) {
    WalHarness::Get(level).VerifyRecoveredState();
  }
  WalHarness& group = WalHarness::Get(DurabilityLevel::kGroupCommit);
  uint64_t replayed = 0;
  for (auto _ : state) {
    TermPool pool;
    Database db(&pool);
    CommitLogOptions no_log;
    no_log.durability = DurabilityLevel::kNone;
    DataDir data_dir(group.dir(), RecoveryMode::kStrict, no_log);
    Result<RecoveryReport> r = data_dir.Recover(&db, &pool);
    bench::Require(r.status());
    replayed = r->records_replayed;
    benchmark::DoNotOptimize(db.num_relations());
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["records_replayed"] = static_cast<double>(replayed);
}
BENCHMARK(BM_Recover);

}  // namespace
}  // namespace gluenail

BENCHMARK_MAIN();
