/// \file engine.h
/// \brief The Glue-Nail engine: the library's public entry point.
///
/// Typical use (see examples/quickstart.cc):
/// \code
///   gluenail::Engine engine;
///   engine.RegisterHostProcedure(...);             // optional
///   GLUENAIL_RETURN_NOT_OK(engine.LoadProgram(source_text));
///   engine.AddFact("edge(1,2).");
///   auto rows = engine.Query("tc_e(1, Y)");        // call a procedure
///   auto rows2 = engine.Query("path(1, Y)");       // or a NAIL! predicate
///   engine.ExecuteStatement("seen(X) += path(1,X).");
///   engine.SaveEdbFile("data.facts");              // §10 persistence
/// \endcode
///
/// Concurrency model (see docs/ARCHITECTURE.md, "Concurrency model"):
/// every Engine method is a *write* entry point — it takes the engine's
/// writer lock and is safe to call from any thread, one at a time.
/// Concurrent *readers* use Session handles (one per client thread,
/// Engine::OpenSession): Session reads take a shared lock and evaluate
/// against read-only storage, so any number of read sessions proceed in
/// parallel with each other and block only while a writer runs. Immutable
/// point-in-time views come from Engine::snapshot() / Session::Snapshot().

#ifndef GLUENAIL_API_ENGINE_H_
#define GLUENAIL_API_ENGINE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <string>
#include <type_traits>
#include <vector>

#include "src/analysis/resolver.h"
#include "src/api/options.h"
#include "src/api/stats.h"
#include "src/common/deadline.h"
#include "src/obs/metrics.h"
#include "src/obs/slow_query.h"
#include "src/obs/trace.h"
#include "src/plan/plan_cache.h"
#include "src/storage/commit_log.h"
#include "src/storage/database.h"
#include "src/storage/delta_log.h"
#include "src/storage/mutation_batch.h"
#include "src/storage/persistence.h"
#include "src/storage/recovery.h"
#include "src/storage/snapshot.h"
#include "src/storage/wal.h"

namespace gluenail {

class Session;

/// How Query evaluates its goal.
enum class QueryStrategy {
  /// Bottom-up: bring every NAIL! predicate to fixpoint, then filter.
  kBottomUp,
  /// Goal-directed magic-sets rewriting (E7); single-atom goals only.
  kMagic,
};

struct QueryOptions {
  QueryStrategy strategy = QueryStrategy::kBottomUp;

  // --- Guardrails (see src/common/deadline.h) ----------------------------
  /// Wall-clock bound; an expired deadline aborts with Status::Cancelled.
  Deadline deadline;
  /// Cooperative cancellation; trip from another thread to abort with
  /// Status::Cancelled. Default-constructed tokens are inert.
  CancelToken cancel;
  /// Tuple / arena-byte budgets; exceeding one aborts the query with
  /// Status::ResourceExhausted before memory runs away.
  ResourceLimits limits;

  /// True when any guardrail is active (the unguarded path stays
  /// zero-overhead).
  bool guarded() const {
    return !deadline.infinite() || cancel.valid() || !limits.unlimited();
  }

  // --- Observability -----------------------------------------------------
  /// Record a structured trace of this query (span tree + chosen plans with
  /// actual rows) into the engine's/session's trace ring. Queries also
  /// trace implicitly while the slow-query log is armed
  /// (EngineOptions::slow_query_threshold > 0), but only explicit traces
  /// are pushed to the ring.
  bool trace = false;
};

/// Export format for Engine::DumpMetrics.
enum class MetricsFormat {
  kPrometheus,  ///< text exposition format (# HELP / # TYPE + samples)
  kJson,
};

struct ExplainOptions {
  /// EXPLAIN ANALYZE: execute the statement and render per-op actual row
  /// counts alongside the planner's estimates.
  bool analyze = false;
};

/// An immutable, consistent view of the engine's databases at one point in
/// time. Copyable and cheap to pass around (relation contents are shared,
/// not duplicated); stays valid after the engine mutates or is destroyed —
/// except terms(), which borrows the engine's pool.
class EngineSnapshot {
 public:
  EngineSnapshot() = default;

  /// The engine's term pool (terms are append-only, so reading through a
  /// snapshot is always safe while the engine is alive).
  const TermPool& terms() const { return *pool_; }
  const DatabaseSnapshot& edb() const { return edb_; }
  const DatabaseSnapshot& idb() const { return idb_; }

 private:
  friend class Engine;
  const TermPool* pool_ = nullptr;
  DatabaseSnapshot edb_;
  DatabaseSnapshot idb_;
  /// Liveness token shared with the engine: while any snapshot copy is
  /// alive, Engine::Recover refuses to swap the state out from under it
  /// (the contents stay *valid* — relation data is copied — but readers
  /// holding a snapshot mid-conversation should not silently observe the
  /// engine jump to a different history).
  std::shared_ptr<const int> guard_;
};

/// The facade over one deductive database: a term pool, the EDB, the
/// NAIL! memos (IDB), the linked program, and the data directory
/// (storage/recovery.h: checkpoint, WAL and commit log). Every EDB write
/// that can be logged — ApplyBatch, AddFact, wire batches and the inline
/// and file EDB loads — is one commit of resolved ops, so it is
/// validated, logged with the configured ack, delta-captured for IVM and
/// fenced on replicas. Recover and a replica's bootstrap rebuild the EDB
/// through one staged swap. Each subsystem registers its own metrics into
/// metrics().
class Engine {
 public:
  explicit Engine(EngineOptions options = {});
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  // --- Concurrent-read surface -------------------------------------------

  /// Opens a session handle. One per client thread; see session.h.
  Session OpenSession();

  /// Immutable view of the current EDB + IDB (NAIL! predicates brought up
  /// to date first). Cheap when nothing changed since the last snapshot.
  Result<EngineSnapshot> snapshot();

  /// Read-only access to the term pool. Interning and accessors are
  /// thread-safe, so this needs no locking.
  const TermPool& terms() const { return pool_; }

  /// Parses and interns a ground term, e.g. "f(a,1)" or "42". The pool is
  /// thread-safe, so this is callable from any thread at any time.
  Result<TermId> InternTerm(std::string_view text);

  // --- Write entry points (serialized behind the writer lock) ------------

  /// Registers a foreign procedure (§10 future work: the foreign-language
  /// interface). Must precede LoadProgram so imports can resolve to it.
  Status RegisterHostProcedure(HostProcedure host);

  /// Parses, links, and compiles \p source (one or more modules),
  /// replacing any previously loaded program. Module-level facts are
  /// inserted into the EDB.
  Status LoadProgram(std::string_view source);

  /// LoadProgram from a file.
  Status LoadProgramFile(const std::string& path);

  /// Executes one ad-hoc Glue statement (assignment or repeat loop)
  /// against the loaded program's exports, the EDB, and the NAIL!
  /// predicates, planned against memos refreshed from the current EDB.
  /// Unknown plain names resolve to EDB relations. \p options carries
  /// guardrails and tracing (QueryOptions::trace lands the statement's
  /// trace in the engine's trace ring). Refused on a replica.
  Status ExecuteStatement(std::string_view statement,
                          const QueryOptions& options = {});

  /// Answer set of a conjunctive goal, e.g. "path(1,X) & X != 3".
  struct QueryResult {
    /// Goal variables in first-appearance order; one column each.
    std::vector<std::string> vars;
    /// Distinct answers in canonical term order.
    std::vector<Tuple> rows;
  };
  /// Like OpenSession().Execute(Command::Query(goal)), but on the writer
  /// path with full QueryOptions: the evaluation strategy (kBottomUp |
  /// kMagic), cancel tokens, absolute deadlines.
  Result<QueryResult> Query(std::string_view goal,
                            const QueryOptions& options = {});

  /// Calls an exported procedure by name on \p inputs (each of the
  /// procedure's bound arity); returns the full (bound+free) result rows.
  /// Runs in the same bracket as Query: memos refreshed first, observed,
  /// and an allocation failure answered as ResourceExhausted.
  Result<std::vector<Tuple>> Call(std::string_view name,
                                  const std::vector<Tuple>& inputs);

  /// EXPLAIN: compiles \p statement ad-hoc and renders its plan(s) —
  /// access paths, keyed columns, barriers, head action, and the physical
  /// planner's estimated row count per op, costed against memos refreshed
  /// from the current EDB (the plans a statement run would get).
  /// EXPLAIN ANALYZE (options.analyze): *runs* the statement like
  /// ExecuteStatement — side effects included, so a replica refuses it —
  /// and returns the profiled plan text its trace carries: actual rows
  /// next to each op's estimate, then the NAIL! refresh the run paid for.
  Result<std::string> ExplainStatement(std::string_view statement,
                                       const ExplainOptions& options = {});

  /// Inserts one ground fact, "edge(1,2)." (trailing dot optional).
  Status AddFact(std::string_view fact);

  /// §10: EDB persistence between runs. Saves are crash-safe (temp file +
  /// fsync + atomic rename).
  Status SaveEdbFile(const std::string& path);
  /// Adds a fact file's facts to the EDB: read once into a staging
  /// database (LoadDatabase; RecoveryMode::kSalvage keeps the good
  /// sections of a torn file), then committed as one insert batch like
  /// ApplyBatch's, so a record past Wal::kMaxPayloadBytes is refused.
  /// Refused on a replica before the file is read. A relation the file
  /// holds empty is not created.
  Result<LoadReport> LoadEdbFile(const std::string& path,
                                 const LoadOptions& options = {});
  /// LoadEdbFile of \p text (Command::LoadEdbText).
  Result<LoadReport> LoadEdbText(std::string_view text,
                                 const LoadOptions& options = {});

  // --- Durability (EngineOptions::data_dir + durability) ------------------

  /// Applies a MutationBatch with the configured durability: the batch is
  /// validated, appended to the WAL, applied to the EDB, and the call
  /// returns only once the ack's promise holds (kGroupCommit/kSync: the
  /// record is fsynced; kAsync: it is logged; kNone / no WAL: it is
  /// applied). The batch is read (MutationBatch::Resolve) before the
  /// writer lock; the commit behind it is the one the wire protocol, the
  /// REPL, AddFact and the inline and file EDB loads share.
  Result<MutationBatch::ApplyReport> ApplyBatch(const MutationBatch& batch);

  /// Rebuilds the EDB from the data directory (DataDir::Recover): loads
  /// the checkpoint and replays the WAL tail into a staging copy
  /// (EngineOptions::wal_recovery decides how much damage is tolerated),
  /// opens the log for appending, and only then swaps the copy in — the
  /// same swap a replica's bootstrap uses. A failed Recover leaves the EDB
  /// and any open log as they were. With durability on, only Recover opens
  /// the log: until one succeeds, ApplyBatch, Checkpoint and the EDB loads
  /// return FailedPrecondition. Refuses while live EngineSnapshots are
  /// outstanding — readers must drop their views of the old history first
  /// — and with FailedPrecondition while a commit is in flight (an
  /// ApplyBatch still waiting for its ack).
  Result<RecoveryReport> Recover();

  /// Writes an atomic checkpoint of the EDB to the data directory and
  /// rotates the WAL behind it (drains in-flight commits first). A broken
  /// log (failed sync) is healed by this: the checkpoint captures the
  /// in-memory truth and the rotation gives it a fresh file. Refused with
  /// FailedPrecondition before Recover, whose image it would overwrite.
  Status Checkpoint();

  /// What the open WAL reports, copied under the shared lock. Recover
  /// replaces the log, so the engine hands out copies, never the log.
  struct WalStatus {
    bool open = false;    ///< false before Recover or with durability off
    bool broken = false;  ///< a sync failed; Checkpoint's rotation heals it
    uint64_t durable_lsn = 0;  ///< of the log itself (0 after a rotation)
    uint64_t appends = 0;
    uint64_t syncs = 0;
  };
  WalStatus wal_status() const;
  /// Highest LSN known durable (0 = no WAL or nothing synced).
  uint64_t durable_lsn() const;
  /// EngineOptions::data_dir's checkpoint file.
  std::string checkpoint_path() const { return data_dir_.checkpoint_path(); }

  // --- Replication (EngineOptions::replica; src/server/replication.h) ----

  /// True when this engine is a read replica (EngineOptions::replica):
  /// mutations are refused and state arrives via ApplyReplicatedBatch.
  bool replica() const { return options_.replica; }
  /// The kFailedPrecondition a replica answers mutations with, pointing
  /// the client at the primary (EngineOptions::primary_hint).
  Status ReplicaWriteFence(std::string_view op) const;

  /// Applies one batch shipped from the primary's WAL (replica mode only;
  /// bypasses the write fence) like a commit's apply, captured for IVM,
  /// then advances the replica's applied-LSN watermark to \p lsn.
  /// Out-of-order or replayed LSNs are refused — the stream must deliver
  /// the primary's durable prefix in order.
  Status ApplyReplicatedBatch(uint64_t lsn, const MutationBatch& batch);

  /// Replaces the EDB wholesale with a primary checkpoint image (snapshot
  /// bootstrap: the replica's cursor was rotated out of the primary's
  /// log), staged and swapped in exactly like Recover; a corrupt image
  /// changes nothing. Refuses while live EngineSnapshots are outstanding.
  /// The applied watermark becomes \p covers_lsn.
  Status ResetFromCheckpointImage(uint64_t covers_lsn, std::string_view image);

  /// Replica progress, readable from any thread: highest LSN applied
  /// locally, and the primary's durable LSN as of its last heartbeat.
  /// Their difference is the replication lag /healthz and the
  /// gluenail_repl_* metrics report.
  uint64_t replica_applied_lsn() const {
    return repl_applied_lsn_.load(std::memory_order_acquire);
  }
  uint64_t replica_primary_lsn() const {
    return repl_primary_lsn_.load(std::memory_order_acquire);
  }
  uint64_t replica_lag() const {
    const uint64_t primary = replica_primary_lsn();
    const uint64_t applied = replica_applied_lsn();
    return primary > applied ? primary - applied : 0;
  }
  /// Records the primary's durable LSN from a heartbeat (replication
  /// client only).
  void set_replica_primary_lsn(uint64_t lsn) {
    repl_primary_lsn_.store(lsn, std::memory_order_release);
  }

  /// Primary side: one consistent (checkpoint image, covered LSN) pair
  /// for bootstrapping a subscriber whose requested LSN was rotated away.
  Result<CheckpointImage> ReadCheckpointImage() const;

  /// Primary side: the durable records from \p from_lsn on
  /// (Wal::ReadRecordsFrom) of the log open now, read under the shared
  /// lock, so a subscriber polling across a Recover never holds a log
  /// Recover replaced. FailedPrecondition when no log is open.
  Result<Wal::TailChunk> ReadWalTail(uint64_t from_lsn) const;

  /// Sorted contents of an EDB relation or NAIL! predicate instance.
  Result<std::vector<Tuple>> RelationContents(std::string_view name_term,
                                              uint32_t arity);

  /// Redirect the I/O builtins.
  void SetIo(std::ostream* out, std::istream* in);

  // --- Observability (src/obs/) ------------------------------------------

  /// Renders every registered metric — engine-owned query counters plus
  /// pull metrics over storage, executor, planner, semi-naive, and
  /// persistence counters. Takes the shared lock, so it is safe to call
  /// from a scrape thread while queries run.
  std::string DumpMetrics(MetricsFormat format = MetricsFormat::kPrometheus)
      const;
  /// The engine's metric registry, for callers registering their own.
  MetricsRegistry& metrics() { return metrics_; }
  /// Most recent explicitly traced query on the writer path (null when
  /// nothing was traced yet). Session traces land in the session's ring.
  std::shared_ptr<const QueryTrace> last_trace() const {
    return trace_ring_.Last();
  }
  TraceRing& trace_ring() { return trace_ring_; }
  const SlowQueryLog& slow_query_log() const { return slow_log_; }

  const CompileStats& compile_stats() const { return compile_stats_; }
  /// Statistics of the writer-path executor. Read while quiescent.
  const ExecStats& exec_stats() const;
  void ResetExecStats();
  /// Storage-layer counters aggregated over every EDB and IDB relation.
  StorageStats storage_stats() const;
  NailEngine* nail_engine() { return nail_engine_.get(); }
  const CompiledProgram* program() const {
    return linked_ ? &linked_->program : nullptr;
  }

 private:
  friend class Session;

  /// One request's state in RunObserved: a sink installed thread-locally
  /// for its duration (when tracing is on, explicitly or via the armed
  /// slow-query log), the timing the latency histogram and the slow-query
  /// check need, its guardrails, and the executor its work runs on.
  struct Request {
    bool active = false;      ///< a sink is installed
    bool want_trace = false;  ///< push the finished trace to the ring
    TraceSink sink;
    std::chrono::steady_clock::time_point start;
    /// NAIL! counters read under the lock before the first refresh this
    /// request may pay for; a different refresh count at finish means it
    /// paid for one, which the slow-query entry and EXPLAIN ANALYZE report
    /// (full vs. DRed, delta sizes).
    uint64_t replans_before = 0;
    uint64_t refreshes_before = 0;
    std::optional<TraceScope> scope;
    ExecControl ctl;
    ExecControl* control = nullptr;  ///< &ctl when guarded
    /// The writer-path executor, or a session read's private read-only one.
    Executor* exec = nullptr;

    void CountFrom(const NailEngine* nail) {
      if (nail == nullptr) return;
      replans_before = nail->replan_count();
      refreshes_before = nail->refresh_count();
    }
    /// The refresh this request paid for, if one ran since CountFrom.
    std::optional<NailRefreshInfo> PaidRefresh(const NailEngine* nail) const {
      if (nail == nullptr || nail->refresh_count() == refreshes_before) {
        return std::nullopt;
      }
      return nail->last_refresh();
    }
  };
  /// Observes latency, pushes the trace to \p ring (explicit traces only),
  /// and records a slow-query entry when over threshold. \p ring may be
  /// the engine's or a session's.
  void FinishQueryObs(Request* req, std::string_view query, TraceRing* ring);
  /// The one bracket every evaluation entry point runs through (Query,
  /// Call, ExecuteStatement, ExplainStatement and Session's Query and
  /// Call): observation, the guardrails and their fail-fast check, the
  /// lock — shared through \p reader's EnterRead when \p reader is set,
  /// else exclusive — with every stale memo refreshed under the request's
  /// guardrails, then \p work(Request&) on the request's executor, with an
  /// allocation failure anywhere turned into ResourceExhausted. Latency is
  /// timed from after the writer lock, or from before a reader's
  /// EnterRead, so both count the refresh they pay for. Explicit traces
  /// land in \p reader's ring, or the engine's.
  template <typename Work>
  std::invoke_result_t<Work&, Request&> RunObserved(
      Session* reader, std::string_view text, const QueryOptions& options,
      Work&& work);
  /// Query and Call through RunObserved; Session's reads pass themselves
  /// as \p reader.
  Result<QueryResult> QueryFor(Session* reader, std::string_view goal,
                               const QueryOptions& options);
  Result<std::vector<Tuple>> CallFor(Session* reader, std::string_view name,
                                     const std::vector<Tuple>& inputs);
  /// An ad-hoc statement on the writer path: run (null \p explain), only
  /// planned (EXPLAIN) or run with its plans profiled (EXPLAIN ANALYZE).
  /// Returns the plan text an EXPLAIN asked for.
  Result<std::string> RunStatement(std::string_view statement,
                                   const QueryOptions& options,
                                   const ExplainOptions* explain);
  /// The runtime environment executors run in (I/O, hosts, NAIL!).
  RuntimeEnv Env();
  void RegisterBuiltinMetrics();
  /// Commits the rows of a load's \p staged database as one insert batch
  /// through Commit, like ApplyBatch.
  Result<LoadReport> CommitLoad(Result<LoadReport> report,
                                const Database& staged);
  /// The one commit of ApplyBatch and the EDB loads: under the writer
  /// lock, refuses (InvalidArgument, nothing applied or logged) an
  /// insert whose (name, arity) belongs to a NAIL! predicate of the
  /// linked program, then runs DataDir::Commit of \p ops logged as \p record.
  Result<MutationBatch::ApplyReport> Commit(
      const MutationBatch::Resolved& ops, const MutationBatch& record);

  /// Parses an ad-hoc statement and compiles it by wrapping it in a
  /// throwaway procedure.
  Result<CompiledProcedure> CompileAdhoc(std::string_view statement);

  Status LoadProgramLocked(std::string_view source);

  /// True when reads can proceed under a shared lock: a program is linked
  /// (which gives it a NAIL! engine) and the NAIL! materialization matches
  /// the current EDB.
  bool ReadReadyLocked() const;
  /// Brings the engine into ReadReady state, linking an empty program if
  /// none is loaded and refreshing under \p control (null: unguarded);
  /// needs the writer lock.
  Status PrepareForReadLocked(ExecControl* control);

  /// Goal evaluation through \p exec (the writer path passes executor_,
  /// read sessions pass a private read-only executor).
  Result<QueryResult> QueryGoalWith(Executor* exec, std::string_view goal);
  /// Magic-sets evaluation with the engine's ExecOptions, \p access to
  /// the shared EDB and the query's \p control.
  Result<QueryResult> QueryMagicWith(std::string_view goal,
                                     StorageAccess access,
                                     ExecControl* control);
  Result<std::vector<Tuple>> RelationContentsLocked(
      std::string_view name_term, uint32_t arity);
  EngineSnapshot SnapshotLocked();

  /// The one swap behind Recover and a replica bootstrap: refuses to
  /// \p what while snapshots are live, runs \p stage into a scratch
  /// database, and only if it succeeds replaces the EDB's contents with it
  /// in place, dropping the NAIL! memos and captured deltas derived from
  /// the old contents.
  Status ReplaceEdbLocked(std::string_view what,
                          const std::function<Status(Database*)>& stage);

  /// Single-writer / shared-reader lock over all engine state. Engine
  /// methods hold it exclusively; Session reads hold it shared.
  mutable std::shared_mutex state_mu_;

  EngineOptions options_;
  TermPool pool_;
  Database edb_;
  Database idb_;
  /// Cardinality estimates for the physical planner, answered from the
  /// live relations' incrementally maintained statistics (EDB first, then
  /// IDB for NAIL! storage relations).
  DatabasePairStatsProvider stats_provider_{&edb_, &idb_};
  std::vector<HostProcedure> hosts_;
  std::unique_ptr<LinkedProgram> linked_;
  /// One plan per read shape (plan/plan_cache.h), shared by the writer and
  /// every session; LoadProgram invalidates it.
  PlanCache plan_cache_;
  std::unique_ptr<NailEngine> nail_engine_;
  /// The EDB change journal feeding delta-driven memo maintenance
  /// (src/nail/ivm.cc). Attached to edb_, so every relation records each
  /// row that really changes, whichever write made it: commits, replica
  /// apply, Glue statements and procedures. The NAIL! refresh consumes
  /// and rebases it; LoadProgram, Recover and a replica bootstrap
  /// invalidate it before they write the EDB.
  DeltaLog ivm_log_;
  std::unique_ptr<Executor> executor_;
  IoEnv io_;
  CompileStats compile_stats_;

  /// Live-snapshot guard: SnapshotLocked hands each EngineSnapshot a copy;
  /// use_count() - 1 is the number of outstanding snapshots Recover must
  /// refuse over.
  std::shared_ptr<const int> snapshot_token_ = std::make_shared<int>(0);

  // --- Replication -------------------------------------------------------
  /// Replica progress watermarks. Atomics: the replication client writes
  /// them, /healthz and the metric pull callbacks read them lock-free.
  std::atomic<uint64_t> repl_applied_lsn_{0};
  std::atomic<uint64_t> repl_primary_lsn_{0};

  // --- Observability -----------------------------------------------------
  MetricsRegistry metrics_;
  TraceRing trace_ring_;
  SlowQueryLog slow_log_;
  /// Engine-owned handles (registered in the constructor; single relaxed
  /// atomic ops on the query path).
  Counter* m_queries_ = nullptr;
  Counter* m_traced_queries_ = nullptr;
  Counter* m_slow_queries_ = nullptr;
  Histogram* m_query_latency_ = nullptr;
  /// Replica-mode handles (registered only when options_.replica).
  Counter* m_repl_batches_ = nullptr;
  Counter* m_repl_bootstraps_ = nullptr;

  /// The checkpoint, the WAL and the commit log over it (storage/
  /// recovery.h). The open log is replaced only under state_mu_ held
  /// exclusively (Recover); commits Await it after releasing state_mu_.
  /// Declared last so the log closes, draining its tail even under kAsync,
  /// before the metrics it reports into are destroyed.
  DataDir data_dir_;
};

}  // namespace gluenail

#endif  // GLUENAIL_API_ENGINE_H_
