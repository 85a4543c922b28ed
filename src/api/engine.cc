#include "src/api/engine.h"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <mutex>
#include <sstream>

#include "src/analysis/binding.h"
#include "src/api/session.h"
#include "src/common/strings.h"
#include "src/nail/magic.h"
#include "src/parser/parser.h"
#include "src/plan/physical.h"
#include "src/plan/plan_printer.h"

namespace gluenail {

namespace {

/// Installs a control block on the writer-path executor for the duration
/// of one guarded call. Safe under the exclusive writer lock: nothing else
/// runs through executor_ while the scope is live.
class ControlScope {
 public:
  ControlScope(Executor* exec, const ExecControl* ctl) : exec_(exec) {
    if (exec_ != nullptr) exec_->set_control(ctl);
  }
  ~ControlScope() {
    if (exec_ != nullptr) exec_->set_control(nullptr);
  }
  ControlScope(const ControlScope&) = delete;
  ControlScope& operator=(const ControlScope&) = delete;

 private:
  Executor* exec_;
};

ExecControl MakeControl(const QueryOptions& options) {
  ExecControl ctl;
  ctl.deadline = options.deadline;
  ctl.cancel = options.cancel;
  ctl.limits = options.limits;
  return ctl;
}

}  // namespace

Engine::Engine() : Engine(EngineOptions{}) {}

Engine::Engine(EngineOptions options)
    : options_(options),
      edb_(&pool_),
      idb_(&pool_),
      ivm_log_(options.ivm_max_delta_rows),
      trace_ring_(options.trace_ring_capacity),
      slow_log_(options.slow_query_log_capacity) {
  edb_.set_default_index_policy(options_.index_policy);
  edb_.set_default_adaptive_config(options_.adaptive);
  idb_.set_default_index_policy(options_.index_policy);
  idb_.set_default_adaptive_config(options_.adaptive);
  RegisterBuiltinMetrics();
}

Engine::~Engine() {
  // Stops the pump and drains the log's tail (so a clean shutdown loses
  // nothing even under kAsync) while the histogram it reports into is
  // still alive.
  commit_log_.reset();
}

void Engine::RegisterBuiltinMetrics() {
  // Engine-owned handles: updated on the query path with single relaxed
  // atomic ops.
  m_queries_ = metrics_.RegisterCounter(
      "gluenail_queries_total", "queries and traced statements executed");
  m_traced_queries_ = metrics_.RegisterCounter(
      "gluenail_queries_traced_total",
      "queries traced explicitly (QueryOptions::trace)");
  m_slow_queries_ = metrics_.RegisterCounter(
      "gluenail_slow_queries_total",
      "queries over EngineOptions::slow_query_threshold");
  m_query_latency_ = metrics_.RegisterHistogram(
      "gluenail_query_latency_ns", "end-to-end query latency in nanoseconds");

  // Pull metrics: values the subsystems already maintain. The callbacks
  // run under DumpMetrics' shared lock, so they must read lock-free state
  // (atomics, the thread-safe pool) and never re-lock state_mu_.
  metrics_.RegisterPullGauge("gluenail_termpool_terms",
                             "terms interned in the pool", [this] {
                               return static_cast<int64_t>(pool_.size());
                             });
  metrics_.RegisterPullGauge("gluenail_storage_relations",
                             "relations across the EDB and IDB", [this] {
                               return static_cast<int64_t>(
                                   StorageStatsNoLock().relations);
                             });
  metrics_.RegisterPullGauge("gluenail_storage_live_tuples",
                             "live tuples across every relation", [this] {
                               return static_cast<int64_t>(
                                   StorageStatsNoLock().live_tuples);
                             });
  metrics_.RegisterPullGauge("gluenail_storage_arena_bytes",
                             "bytes held by arenas, dedup tables, indexes",
                             [this] {
                               return static_cast<int64_t>(
                                   StorageStatsNoLock().arena_bytes);
                             });
  metrics_.RegisterPullCounter(
      "gluenail_storage_scan_rows_total", "rows visited by full scans",
      [this] { return StorageStatsNoLock().scan_rows; });
  metrics_.RegisterPullCounter(
      "gluenail_storage_index_lookups_total", "keyed index lookups",
      [this] { return StorageStatsNoLock().index_lookups; });
  metrics_.RegisterPullCounter(
      "gluenail_storage_index_probe_rows_total",
      "rows walked along index probe chains",
      [this] { return StorageStatsNoLock().index_probe_rows; });
  metrics_.RegisterPullCounter(
      "gluenail_storage_indexes_built_total", "hash indexes built",
      [this] { return StorageStatsNoLock().indexes_built; });
  metrics_.RegisterPullCounter(
      "gluenail_storage_dedup_probes_total", "dedup-table probe steps",
      [this] { return StorageStatsNoLock().dedup_probes; });
  metrics_.RegisterPullCounter(
      "gluenail_storage_stats_rebuilds_total",
      "NDV-sketch rebuilds (erase churn or compaction)",
      [this] { return StorageStatsNoLock().stats_rebuilds; });

  // Writer-path executor counters (the long-lived executor; read sessions'
  // ephemeral executors are not aggregated here).
  auto exec_stat = [this](uint64_t ExecStats::* field) {
    return [this, field]() -> uint64_t {
      return executor_ != nullptr ? executor_->stats().*field : 0;
    };
  };
  metrics_.RegisterPullCounter("gluenail_exec_statements_total",
                               "statement plans executed",
                               exec_stat(&ExecStats::statements));
  metrics_.RegisterPullCounter("gluenail_exec_records_produced_total",
                               "binding records produced",
                               exec_stat(&ExecStats::records_produced));
  metrics_.RegisterPullCounter(
      "gluenail_exec_rows_scanned_total",
      "rows visited answering matches (scan + probe chains)",
      exec_stat(&ExecStats::rows_scanned));
  metrics_.RegisterPullCounter("gluenail_exec_control_checks_total",
                               "full guardrail checks",
                               exec_stat(&ExecStats::control_checks));
  metrics_.RegisterPullCounter("gluenail_exec_pipeline_breaks_total",
                               "pipelined-strategy materialization points",
                               exec_stat(&ExecStats::pipeline_breaks));
  metrics_.RegisterPullCounter("gluenail_exec_duplicates_removed_total",
                               "records dropped by dedup-at-breaks",
                               exec_stat(&ExecStats::duplicates_removed));
  metrics_.RegisterPullCounter("gluenail_exec_batch_segments_total",
                               "batch-at-a-time segments run",
                               exec_stat(&ExecStats::batch_segments));
  metrics_.RegisterPullCounter(
      "gluenail_exec_batch_rows_total",
      "binding records entering batch segments",
      exec_stat(&ExecStats::batch_rows));

  // Semi-naive driver counters.
  metrics_.RegisterPullCounter(
      "gluenail_nail_refreshes_total", "NAIL! memo refreshes", [this] {
        return nail_engine_ != nullptr ? nail_engine_->refresh_count() : 0;
      });
  metrics_.RegisterPullCounter(
      "gluenail_nail_iterations_total", "semi-naive fixpoint iterations",
      [this] {
        return nail_engine_ != nullptr ? nail_engine_->iteration_count() : 0;
      });
  metrics_.RegisterPullCounter(
      "gluenail_nail_parallel_batches_total",
      "parallel fixpoint iterations dispatched to workers", [this] {
        return nail_engine_ != nullptr ? nail_engine_->parallel_batches() : 0;
      });
  metrics_.RegisterPullCounter(
      "gluenail_nail_replans_total",
      "mid-evaluation SCC replans on cardinality drift", [this] {
        return nail_engine_ != nullptr ? nail_engine_->replan_count() : 0;
      });
  // Incremental view maintenance: how often refreshes were served from
  // captured deltas vs. recomputed, and how much the deltas moved.
  metrics_.RegisterPullCounter(
      "gluenail_nail_delta_refresh_total",
      "NAIL! memo refreshes patched incrementally from captured deltas",
      [this] {
        return nail_engine_ != nullptr ? nail_engine_->delta_refresh_count()
                                       : 0;
      });
  metrics_.RegisterPullCounter(
      "gluenail_nail_full_refresh_total",
      "NAIL! memo refreshes recomputed from scratch", [this] {
        return nail_engine_ != nullptr ? nail_engine_->full_refresh_count()
                                       : 0;
      });
  metrics_.RegisterPullCounter(
      "gluenail_nail_ivm_fallbacks_total",
      "full recomputes forced while delta maintenance was enabled", [this] {
        return nail_engine_ != nullptr ? nail_engine_->ivm_fallback_count()
                                       : 0;
      });
  metrics_.RegisterPullCounter(
      "gluenail_nail_ivm_delta_rows_in_total",
      "EDB delta rows consumed by incremental refreshes", [this] {
        return nail_engine_ != nullptr ? nail_engine_->ivm_delta_rows_in()
                                       : 0;
      });
  metrics_.RegisterPullCounter(
      "gluenail_nail_ivm_delta_rows_out_total",
      "memo rows changed by incremental refreshes", [this] {
        return nail_engine_ != nullptr ? nail_engine_->ivm_delta_rows_out()
                                       : 0;
      });
  metrics_.RegisterPullCounter(
      "gluenail_nail_ivm_old_state_rows_total",
      "rows copied into old-state overrides by incremental refreshes",
      [this] {
        return nail_engine_ != nullptr ? nail_engine_->ivm_old_state_rows()
                                       : 0;
      });

  // Process-wide planner and persistence counters (free-function layers).
  metrics_.RegisterPullCounter(
      "gluenail_planner_bodies_planned_total",
      "statement bodies ordered by the physical planner", [] {
        return GlobalPlannerCounters().bodies_planned.load(
            std::memory_order_relaxed);
      });
  metrics_.RegisterPullCounter(
      "gluenail_planner_index_builds_scheduled_total",
      "planner-decided index builds", [] {
        return GlobalPlannerCounters().index_builds_scheduled.load(
            std::memory_order_relaxed);
      });
  metrics_.RegisterPullCounter(
      "gluenail_persist_saves_total", "successful database file saves", [] {
        return GlobalPersistenceCounters().saves.load(
            std::memory_order_relaxed);
      });
  metrics_.RegisterPullCounter(
      "gluenail_persist_save_failures_total", "failed database file saves",
      [] {
        return GlobalPersistenceCounters().save_failures.load(
            std::memory_order_relaxed);
      });
  metrics_.RegisterPullCounter(
      "gluenail_persist_loads_total", "successful database file loads", [] {
        return GlobalPersistenceCounters().loads.load(
            std::memory_order_relaxed);
      });
  metrics_.RegisterPullCounter(
      "gluenail_persist_load_failures_total", "failed database file loads",
      [] {
        return GlobalPersistenceCounters().load_failures.load(
            std::memory_order_relaxed);
      });

  // Durability: engine-owned commit counters plus pulls over the commit
  // log's and the recovery layer's own counters. commit_log_ is guarded
  // like executor_: the callbacks run under DumpMetrics' shared lock, and
  // only exclusive holders replace the pointer.
  m_wal_commits_ = metrics_.RegisterCounter(
      "gluenail_wal_commits_total",
      "mutation batches committed through the WAL write path");
  m_wal_commit_failures_ = metrics_.RegisterCounter(
      "gluenail_wal_commit_failures_total",
      "mutation batches rejected or not made durable");
  m_checkpoints_ = metrics_.RegisterCounter(
      "gluenail_checkpoints_total", "checkpoint saves with WAL rotation");
  m_wal_group_size_ = CommitLog::RegisterMetrics(
      &metrics_, [this] { return commit_log_.get(); });
  metrics_.RegisterPullCounter(
      "gluenail_recovery_runs_total", "successful crash recoveries", [] {
        return GlobalRecoveryCounters().recoveries.load(
            std::memory_order_relaxed);
      });
  metrics_.RegisterPullCounter(
      "gluenail_recovery_failures_total", "failed crash recoveries", [] {
        return GlobalRecoveryCounters().failures.load(
            std::memory_order_relaxed);
      });
  metrics_.RegisterPullCounter(
      "gluenail_recovery_records_replayed_total",
      "WAL records replayed during recovery", [] {
        return GlobalRecoveryCounters().records_replayed.load(
            std::memory_order_relaxed);
      });
  metrics_.RegisterPullCounter(
      "gluenail_recovery_torn_bytes_total",
      "torn-tail bytes discarded during recovery", [] {
        return GlobalRecoveryCounters().torn_bytes.load(
            std::memory_order_relaxed);
      });

  // Replication (replica side; the primary's stream counters live in the
  // server that owns the subscriber connections). The watermarks are
  // atomics, so the pulls stay lock-free under DumpMetrics' shared lock.
  if (options_.replica) {
    m_repl_batches_ = metrics_.RegisterCounter(
        "gluenail_repl_batches_applied_total",
        "WAL batches shipped from the primary and applied");
    m_repl_bootstraps_ = metrics_.RegisterCounter(
        "gluenail_repl_snapshot_bootstraps_total",
        "checkpoint-image bootstraps (requested LSN rotated away)");
    metrics_.RegisterPullGauge(
        "gluenail_repl_applied_lsn",
        "highest primary LSN applied on this replica", [this] {
          return static_cast<int64_t>(replica_applied_lsn());
        });
    metrics_.RegisterPullGauge(
        "gluenail_repl_primary_durable_lsn",
        "primary's durable LSN as of its last heartbeat", [this] {
          return static_cast<int64_t>(replica_primary_lsn());
        });
    metrics_.RegisterPullGauge(
        "gluenail_repl_lag", "primary durable LSN minus applied LSN",
        [this] {
          uint64_t primary = replica_primary_lsn();
          uint64_t applied = replica_applied_lsn();
          return static_cast<int64_t>(primary > applied ? primary - applied
                                                        : 0);
        });
  }
}

std::string Engine::DumpMetrics(MetricsFormat format) const {
  // Shared lock: pull callbacks read executor_/nail_engine_ and walk the
  // databases, which only writers (exclusive holders) replace or mutate.
  std::shared_lock<std::shared_mutex> lock(state_mu_);
  return format == MetricsFormat::kJson ? metrics_.RenderJson()
                                        : metrics_.RenderPrometheus();
}

void Engine::BeginQueryObs(QueryObs* obs, bool want_trace) {
  obs->start = std::chrono::steady_clock::now();
  obs->want_trace = want_trace;
  obs->active = want_trace || options_.slow_query_threshold.count() > 0;
  if (!obs->active) return;
  obs->scope.emplace(&obs->sink);
}

void Engine::SampleReplanBaseline(QueryObs* obs) {
  // Separate from BeginQueryObs: sessions install the sink before taking
  // the engine lock (to trace the read-upgrade NAIL! refresh), but the
  // nail_engine_ pointer itself may only be dereferenced under the lock —
  // a concurrent LoadProgram can swap it.
  if (!obs->active) return;
  obs->replans_before =
      nail_engine_ != nullptr ? nail_engine_->replan_count() : 0;
  obs->refresh_seq_before =
      nail_engine_ != nullptr ? nail_engine_->refresh_seq() : 0;
}

void Engine::FinishQueryObs(QueryObs* obs, std::string_view query,
                            TraceRing* ring) {
  const auto total_ns = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - obs->start)
          .count());
  m_queries_->Add(1);
  m_query_latency_->Observe(total_ns);
  if (!obs->active) return;
  obs->scope.reset();  // uninstall before freezing
  auto trace = std::make_shared<const QueryTrace>(
      obs->sink.Finish(std::string(query), total_ns));
  if (obs->want_trace) {
    m_traced_queries_->Add(1);
    if (ring != nullptr) ring->Push(trace);
  }
  const auto threshold = options_.slow_query_threshold;
  if (threshold.count() > 0 &&
      total_ns >= static_cast<uint64_t>(threshold.count())) {
    SlowQueryEntry entry;
    entry.query = trace->query;
    entry.seconds = static_cast<double>(total_ns) * 1e-9;
    const uint64_t replans_now =
        nail_engine_ != nullptr ? nail_engine_->replan_count() : 0;
    entry.replans = replans_now - obs->replans_before;
    if (nail_engine_ != nullptr &&
        nail_engine_->refresh_seq() != obs->refresh_seq_before) {
      // This query paid for a memo refresh; record how it ran.
      NailRefreshInfo info = nail_engine_->last_refresh();
      entry.nail_refresh_mode = info.mode;
      if (!info.fallback.empty()) {
        entry.nail_refresh_mode += StrCat(" (", info.fallback, ")");
      }
      entry.nail_delta_rows_in = info.delta_rows_in;
      entry.nail_delta_rows_out = info.delta_rows_out;
    }
    entry.plan = trace->plan;
    entry.top_spans = TopSpansByDuration(trace->spans, 3);
    m_slow_queries_->Add(1);
    slow_log_.Record(std::move(entry));
  }
  obs->active = false;
}

Session Engine::OpenSession() { return Session(this); }

Status Engine::RegisterHostProcedure(HostProcedure host) {
  std::unique_lock<std::shared_mutex> lock(state_mu_);
  if (linked_ != nullptr) {
    return Status::InvalidArgument(
        "host procedures must be registered before LoadProgram");
  }
  if (!host.fn) {
    return Status::InvalidArgument(
        StrCat("host procedure ", host.name, " has no callback"));
  }
  hosts_.push_back(std::move(host));
  return Status::OK();
}

Status Engine::LoadProgram(std::string_view source) {
  std::unique_lock<std::shared_mutex> lock(state_mu_);
  return LoadProgramLocked(source);
}

Status Engine::LoadProgramLocked(std::string_view source) {
  auto start = std::chrono::steady_clock::now();
  if (options_.num_threads > 1 &&
      options_.nail_mode == NailMode::kCompiledGlue) {
    // The parallel evaluator partitions the direct fixpoint; the generated
    // Glue driver cannot be split.
    return Status::InvalidArgument(
        "nail_mode kCompiledGlue cannot run with num_threads > 1");
  }
  GLUENAIL_ASSIGN_OR_RETURN(ast::Program parsed, ParseProgram(source));

  LinkOptions link_opts;
  link_opts.planner = options_.planner;
  link_opts.nail_mode = options_.nail_mode;
  link_opts.stats = &stats_provider_;
  GLUENAIL_ASSIGN_OR_RETURN(
      LinkedProgram linked, LinkProgram(parsed, hosts_, &pool_, link_opts));
  linked_ = std::make_unique<LinkedProgram>(std::move(linked));

  nail_engine_ = std::make_unique<NailEngine>(linked_->nail, &edb_, &idb_,
                                              &pool_);
  nail_engine_->set_mode(options_.nail_mode);
  nail_engine_->set_num_threads(options_.num_threads);
  // The direct plans serve every delta refresh, so they are compiled in
  // every mode; kCompiledGlue only adds its generated driver for full
  // refreshes.
  GLUENAIL_RETURN_NOT_OK(nail_engine_->CompileDirect(
      linked_->builtin_scope.get(), options_.planner, &stats_provider_));
  if (options_.nail_mode == NailMode::kCompiledGlue) {
    nail_engine_->set_driver_proc(linked_->nail_driver_proc);
  }
  nail_engine_->ConfigureIvm(options_.ivm_mode,
                             options_.ivm_max_delta_fraction, &ivm_log_);
  // A new program means new memos; deltas captured against the old one
  // are meaningless (the first refresh rebases the log).
  ivm_log_.Invalidate();

  RuntimeEnv env;
  env.io = io_;
  env.hosts = &hosts_;
  env.nail = nail_engine_.get();
  executor_ = std::make_unique<Executor>(&linked_->program, &edb_, &idb_,
                                         &pool_, env, options_.exec);
  nail_engine_->set_executor(executor_.get());

  for (const auto& [name, tuple] : linked_->facts) {
    edb_.GetOrCreate(name, static_cast<uint32_t>(tuple.size()))
        ->Insert(tuple);
  }

  compile_stats_ = CompileStats{};
  compile_stats_.modules = parsed.modules.size();
  for (const CompiledProcedure& p : linked_->program.procedures) {
    if (p.generated) {
      ++compile_stats_.generated_procedures;
    } else {
      ++compile_stats_.procedures;
    }
    compile_stats_.statements += p.plans.size();
  }
  compile_stats_.nail_rules = linked_->nail.rules.size();
  compile_stats_.nail_predicates = linked_->nail.preds.size();
  compile_stats_.nail_strata = linked_->nail.scc_order.size();
  compile_stats_.compile_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return Status::OK();
}

Status Engine::LoadProgramFile(const std::string& path) {
  std::ifstream f(path);
  if (!f.is_open()) {
    return Status::IoError(StrCat("cannot open ", path));
  }
  std::ostringstream text;
  text << f.rdbuf();
  return LoadProgram(text.str()).WithContext(path);
}

Status Engine::EnsureLoadedLocked() {
  if (linked_ == nullptr) {
    // An empty program: everything ad-hoc against the bare EDB.
    GLUENAIL_RETURN_NOT_OK(LoadProgramLocked("module main; end"));
  }
  return Status::OK();
}

bool Engine::ReadReadyLocked() const {
  return linked_ != nullptr &&
         (nail_engine_ == nullptr || nail_engine_->IsFresh());
}

Status Engine::PrepareForReadLocked() {
  GLUENAIL_RETURN_NOT_OK(EnsureLoadedLocked());
  if (nail_engine_ != nullptr) {
    GLUENAIL_RETURN_NOT_OK(nail_engine_->EnsureAllNail());
  }
  return Status::OK();
}

Result<CompiledProcedure> Engine::CompileAdhoc(const ast::Statement& stmt) {
  ast::Procedure proc;
  proc.name = "$adhoc";
  proc.bound_arity = 0;
  proc.free_arity = 0;
  proc.body.push_back(stmt);
  return CompileProcedureAst(proc, *linked_->global_scope, &pool_, "$adhoc",
                             /*fixed=*/true, options_.planner,
                             /*implicit_edb=*/true, &stats_provider_);
}

Status Engine::ExecuteStatement(std::string_view statement) {
  std::unique_lock<std::shared_mutex> lock(state_mu_);
  return ExecuteStatementLocked(statement);
}

Status Engine::ExecuteStatement(std::string_view statement,
                                const QueryOptions& options) {
  std::unique_lock<std::shared_mutex> lock(state_mu_);
  GLUENAIL_RETURN_NOT_OK(EnsureLoadedLocked());
  ExecControl ctl = MakeControl(options);
  const ExecControl* ctl_ptr = options.guarded() ? &ctl : nullptr;
  if (ctl_ptr != nullptr) GLUENAIL_RETURN_NOT_OK(ctl.Check());
  QueryObs obs;
  BeginQueryObs(&obs, options.trace);
  SampleReplanBaseline(&obs);
  Status st;
  try {
    ControlScope scope(executor_.get(), ctl_ptr);
    st = ExecuteStatementLocked(statement);
  } catch (const std::bad_alloc&) {
    st = Status::ResourceExhausted("allocation failed during statement");
  }
  FinishQueryObs(&obs, statement, &trace_ring_);
  return st;
}

Status Engine::ExecuteStatementLocked(std::string_view statement) {
  GLUENAIL_RETURN_NOT_OK(EnsureLoadedLocked());
  ScopedSpan parse_span("stmt:parse");
  GLUENAIL_ASSIGN_OR_RETURN(ast::Statement stmt, ParseStatement(statement));
  parse_span.End();
  ScopedSpan compile_span("stmt:compile");
  GLUENAIL_ASSIGN_OR_RETURN(CompiledProcedure proc, CompileAdhoc(stmt));
  compile_span.End();
  // Under an active sink, profile every plan so the trace captures the
  // plan text with actual rows. The plans die with `proc`, so the
  // profiles (keyed by plan pointer) are dropped on every exit path.
  TraceSink* sink = TraceSink::Current();
  if (sink != nullptr) {
    for (const StatementPlan& plan : proc.plans) {
      executor_->EnableOpProfile(&plan);
    }
  }
  Frame frame(&proc);
  Status run = executor_->ExecBlock(proc.code, proc, &frame);
  if (sink != nullptr) {
    for (const StatementPlan& plan : proc.plans) {
      sink->AppendPlan(PlanToString(plan, pool_, executor_->OpProfile(&plan)));
      executor_->DisableOpProfile(&plan);
    }
  }
  return run;
}

Result<Engine::QueryResult> Engine::Query(std::string_view goal,
                                          const QueryOptions& options) {
  std::unique_lock<std::shared_mutex> lock(state_mu_);
  GLUENAIL_RETURN_NOT_OK(EnsureLoadedLocked());
  ExecControl ctl = MakeControl(options);
  const ExecControl* ctl_ptr = options.guarded() ? &ctl : nullptr;
  if (ctl_ptr != nullptr) {
    // Fail fast on pre-cancelled tokens and already-expired deadlines.
    GLUENAIL_RETURN_NOT_OK(ctl.Check());
  }
  QueryObs obs;
  BeginQueryObs(&obs, options.trace);
  SampleReplanBaseline(&obs);
  // Arena growth reports OOM (real or injected) as bad_alloc; surface it
  // as a status so the engine stays usable. Any half-built NAIL! state is
  // memo-invalid (Refresh unwound) and recomputed on the next demand.
  Result<QueryResult> result = [&]() -> Result<QueryResult> {
    try {
      if (options.strategy == QueryStrategy::kMagic) {
        ExecOptions eo;
        eo.control = ctl_ptr;
        return QueryMagicWith(goal, eo);
      }
      ControlScope scope(executor_.get(), ctl_ptr);
      return QueryGoalWith(executor_.get(), goal);
    } catch (const std::bad_alloc&) {
      return Status::ResourceExhausted("allocation failed during query");
    }
  }();
  FinishQueryObs(&obs, goal, &trace_ring_);
  return result;
}

Result<Engine::QueryResult> Engine::QueryGoalWith(Executor* exec,
                                                  std::string_view goal) {
  ScopedSpan parse_span("query:parse");
  GLUENAIL_ASSIGN_OR_RETURN(std::vector<ast::Subgoal> body, ParseGoal(goal));
  parse_span.End();

  // Head variables: every goal variable, in first-appearance order.
  std::vector<std::string> vars;
  for (const ast::Subgoal& g : body) {
    g.pred.CollectVariables(&vars);
    for (const ast::Term& a : g.args) a.CollectVariables(&vars);
    g.lhs.CollectVariables(&vars);
    g.rhs.CollectVariables(&vars);
  }

  ast::Assignment a;
  a.head_pred = ast::Term::Symbol("$query");
  for (const std::string& v : vars) {
    a.head_args.push_back(ast::Term::Variable(v));
  }
  a.op = ast::AssignOp::kClear;
  a.body = std::move(body);

  CompileEnv env;
  env.pool = &pool_;
  env.scope = linked_->global_scope.get();
  env.implicit_edb = true;
  env.stats = &stats_provider_;
  ScopedSpan plan_span("query:plan");
  GLUENAIL_ASSIGN_OR_RETURN(StatementPlan plan,
                            PlanAssignment(a, env, options_.planner));
  plan_span.End();

  // Under an active sink, profile the ad-hoc plan so the trace can carry
  // its plan text with actual rows. The plan is stack-local, so the
  // profile (keyed by plan pointer) must be dropped on every exit path.
  TraceSink* sink = TraceSink::Current();
  if (sink != nullptr) exec->EnableOpProfile(&plan);

  Frame frame(nullptr);
  RecordSet sup;
  ScopedSpan exec_span("query:execute");
  Status run = exec->ExecuteBodyOnly(plan, &frame, &sup);
  exec_span.End();
  if (sink != nullptr) {
    sink->AppendPlan(PlanToString(plan, pool_, exec->OpProfile(&plan)));
    exec->DisableOpProfile(&plan);
  }
  GLUENAIL_RETURN_NOT_OK(run);

  // Evaluate the head expressions per record; dedupe and sort.
  ScopedSpan answers_span("query:answers");
  Relation answers("$answers", static_cast<uint32_t>(vars.size()));
  for (const Record& rec : sup.records) {
    Tuple row;
    row.reserve(plan.head.arg_exprs.size());
    for (ExprId e : plan.head.arg_exprs) {
      GLUENAIL_ASSIGN_OR_RETURN(TermId v, EvalExpr(plan, e, rec, &pool_));
      row.push_back(v);
    }
    answers.Insert(row);
  }
  QueryResult out;
  out.vars = std::move(vars);
  out.rows = answers.SortedTuples(pool_);
  answers_span.AddRows(out.rows.size());
  return out;
}

Result<std::vector<Tuple>> Engine::Call(std::string_view name,
                                        const std::vector<Tuple>& inputs) {
  std::unique_lock<std::shared_mutex> lock(state_mu_);
  GLUENAIL_RETURN_NOT_OK(EnsureLoadedLocked());
  return CallWith(executor_.get(), name, inputs);
}

Result<std::vector<Tuple>> Engine::CallWith(Executor* exec,
                                            std::string_view name,
                                            const std::vector<Tuple>& inputs) {
  // Find an exported procedure with this name (any arity; unique names).
  int index = -1;
  std::string prefix = StrCat(name, "/");
  for (const auto& [key, idx] : linked_->program.proc_by_export) {
    if (StartsWith(key, prefix)) {
      if (index >= 0) {
        return Status::InvalidArgument(
            StrCat("procedure name '", name, "' is ambiguous; qualify with "
                   "arity"));
      }
      index = idx;
    }
  }
  if (index < 0) {
    return Status::NotFound(
        StrCat("no exported procedure named '", name, "'"));
  }
  const CompiledProcedure& proc =
      linked_->program.procedures[static_cast<size_t>(index)];
  Relation input("in", proc.bound_arity);
  for (const Tuple& t : inputs) {
    if (t.size() != proc.bound_arity) {
      return Status::InvalidArgument(
          StrCat("input tuple arity ", t.size(), " != bound arity ",
                 proc.bound_arity, " of ", proc.name));
    }
    input.Insert(t);
  }
  Relation output("out", proc.arity());
  GLUENAIL_RETURN_NOT_OK(exec->CallProcedureByIndex(index, input, &output));
  return output.SortedTuples(pool_);
}

Result<Engine::QueryResult> Engine::QueryMagicWith(
    std::string_view goal, const ExecOptions& exec_opts) {
  GLUENAIL_ASSIGN_OR_RETURN(std::vector<ast::Subgoal> body, ParseGoal(goal));
  if (body.size() != 1 || body[0].kind != ast::SubgoalKind::kAtom ||
      !body[0].pred.IsSymbol()) {
    return Status::InvalidArgument(
        "a magic-strategy query takes a single atom over a NAIL! predicate");
  }
  const ast::Subgoal& atom = body[0];
  MagicQuery q;
  q.pred = atom.pred.name;
  QueryResult out;
  std::vector<size_t> free_columns;
  for (size_t i = 0; i < atom.args.size(); ++i) {
    const ast::Term& arg = atom.args[i];
    if (arg.IsGround()) {
      GLUENAIL_ASSIGN_OR_RETURN(TermId value, InternGroundTerm(&pool_, arg));
      q.columns.push_back(value);
    } else if (arg.IsVariable() || arg.IsWildcard()) {
      q.columns.push_back(std::nullopt);
      out.vars.push_back(arg.IsVariable() ? arg.name
                                          : StrCat("_", i));
      free_columns.push_back(i);
    } else {
      return Status::InvalidArgument(
          "magic-strategy query arguments must be constants or variables");
    }
  }
  GLUENAIL_ASSIGN_OR_RETURN(
      std::vector<Tuple> rows,
      EvaluateWithMagic(linked_->nail.rules, q, &edb_, &pool_, exec_opts));
  for (const Tuple& row : rows) {
    Tuple projected;
    for (size_t c : free_columns) projected.push_back(row[c]);
    out.rows.push_back(std::move(projected));
  }
  return out;
}

Result<std::string> Engine::ExplainStatement(std::string_view statement,
                                             const ExplainOptions& options) {
  std::unique_lock<std::shared_mutex> lock(state_mu_);
  GLUENAIL_RETURN_NOT_OK(EnsureLoadedLocked());
  GLUENAIL_ASSIGN_OR_RETURN(ast::Statement stmt, ParseStatement(statement));
  GLUENAIL_ASSIGN_OR_RETURN(CompiledProcedure proc, CompileAdhoc(stmt));
  std::string out;
  if (!options.analyze) {
    for (const StatementPlan& plan : proc.plans) {
      out += PlanToString(plan, pool_);
    }
    return out;
  }
  // ANALYZE: run the statement with per-op row profiling switched on, then
  // render each op's estimate next to the rows it actually produced.
  for (const StatementPlan& plan : proc.plans) {
    executor_->EnableOpProfile(&plan);
  }
  const uint64_t refresh_seq_before =
      nail_engine_ != nullptr ? nail_engine_->refresh_seq() : 0;
  Frame frame(&proc);
  Status run = executor_->ExecBlock(proc.code, proc, &frame);
  if (!run.ok()) {
    executor_->ClearOpProfiles();
    return run;
  }
  for (const StatementPlan& plan : proc.plans) {
    out += PlanToString(plan, pool_, executor_->OpProfile(&plan));
  }
  executor_->ClearOpProfiles();
  if (nail_engine_ != nullptr &&
      nail_engine_->refresh_seq() != refresh_seq_before) {
    // The statement demanded a stale NAIL! memo; show how the refresh ran
    // (full vs. delta-driven, and why a fallback recomputed).
    NailRefreshInfo info = nail_engine_->last_refresh();
    out += StrCat("nail refresh: mode=", info.mode);
    if (!info.fallback.empty()) out += StrCat(" fallback=", info.fallback);
    out += StrCat(" delta_rows_in=", info.delta_rows_in,
                  " delta_rows_out=", info.delta_rows_out,
                  " old_state_rows=", info.old_state_rows, "\n");
  }
  return out;
}

Status Engine::AddFact(std::string_view fact) {
  // A one-op batch, so ad-hoc facts take the one write path: captured for
  // IVM, logged with the configured ack promise, fenced on replicas.
  MutationBatch batch;
  batch.Insert(fact);
  return ApplyBatch(batch).status();
}

Result<MutationBatch::ApplyReport> Engine::ApplyBatchCapturedLocked(
    const MutationBatch& batch) {
  MutationBatch::ChangeObserver observer =
      [this](MutationBatch::OpKind kind, TermId name, uint32_t arity,
             RowView row) {
        if (kind == MutationBatch::OpKind::kInsert) {
          ivm_log_.CaptureInsert(name, arity, row);
        } else {
          ivm_log_.CaptureErase(name, arity, row);
        }
      };
  Result<MutationBatch::ApplyReport> applied =
      batch.Apply(&edb_, &pool_, &observer);
  if (applied.ok()) {
    ivm_log_.SealBatch(SnapshotEdbVersion(edb_));
  } else {
    // A failed apply can leave a captured prefix the watermark will never
    // catch up to; drop it.
    ivm_log_.Invalidate();
  }
  return applied;
}

Result<TermId> Engine::InternTerm(std::string_view text) {
  // The pool is thread-safe; no engine lock required.
  return ParseGroundTerm(&pool_, text);
}

Status Engine::Mutate(const std::function<Status(Database*, Database*,
                                                 TermPool*)>& fn) {
  std::unique_lock<std::shared_mutex> lock(state_mu_);
  return fn(&edb_, &idb_, &pool_);
}

Result<EngineSnapshot> Engine::snapshot() {
  std::unique_lock<std::shared_mutex> lock(state_mu_);
  GLUENAIL_RETURN_NOT_OK(PrepareForReadLocked());
  return SnapshotLocked();
}

EngineSnapshot Engine::SnapshotLocked() {
  EngineSnapshot snap;
  snap.pool_ = &pool_;
  snap.edb_ = edb_.Snapshot();
  snap.idb_ = idb_.Snapshot();
  snap.guard_ = snapshot_token_;
  return snap;
}

Status Engine::SaveEdbFile(const std::string& path) {
  std::unique_lock<std::shared_mutex> lock(state_mu_);
  // Flush in-flight commits first so the saved image is at or ahead of the
  // log's durable point (ignore a broken log — memory is the truth, and
  // the save captures it either way).
  if (commit_log_ != nullptr) (void)commit_log_->Drain();
  return SaveDatabaseToFile(edb_, path);
}

Status Engine::LoadEdbFile(const std::string& path) {
  return LoadEdbFile(path, LoadOptions{}).status();
}

Result<LoadReport> Engine::LoadEdbFile(const std::string& path,
                                       const LoadOptions& options) {
  std::unique_lock<std::shared_mutex> lock(state_mu_);
  // Loading replaces relation contents out from under point-in-time
  // readers' feet semantically (their copies stay valid, but the engine
  // jumps to a different history mid-conversation) — refuse, like
  // Recover().
  const long live = snapshot_token_.use_count() - 1;
  if (live > 0) {
    return Status::InvalidArgument(
        StrCat("cannot load an EDB while ", live,
               " live snapshot(s) are outstanding; drop them first"));
  }
  GLUENAIL_ASSIGN_OR_RETURN(LoadReport report,
                            LoadDatabaseFromFile(&edb_, path, options));
  // The load rewrote relations wholesale (possibly salvaging only part of
  // a damaged file); captured deltas describe a history that no longer
  // exists. The version watermark would catch this too — invalidating is
  // the explicit belt-and-braces the salvage path demands.
  ivm_log_.Invalidate();
  if (nail_engine_ != nullptr) nail_engine_->Invalidate();
  // Loaded facts bypassed the log; checkpoint immediately so the durable
  // state includes them (otherwise a crash would silently undo the load).
  if (commit_log_ != nullptr) GLUENAIL_RETURN_NOT_OK(CheckpointLocked());
  return report;
}

Result<std::vector<Tuple>> Engine::RelationContents(
    std::string_view name_term, uint32_t arity) {
  std::unique_lock<std::shared_mutex> lock(state_mu_);
  if (nail_engine_ != nullptr) {
    GLUENAIL_RETURN_NOT_OK(nail_engine_->EnsureAllNail());
  }
  return RelationContentsLocked(name_term, arity);
}

Result<std::vector<Tuple>> Engine::RelationContentsLocked(
    std::string_view name_term, uint32_t arity) {
  GLUENAIL_ASSIGN_OR_RETURN(TermId name, ParseGroundTerm(&pool_, name_term));
  Relation* rel = edb_.Find(name, arity);
  if (rel == nullptr) rel = idb_.Find(name, arity);
  if (rel == nullptr) {
    return Status::NotFound(StrCat("no relation ", name_term, "/", arity));
  }
  return rel->SortedTuples(pool_);
}

void Engine::SetIo(std::ostream* out, std::istream* in) {
  std::unique_lock<std::shared_mutex> lock(state_mu_);
  if (out != nullptr) io_.out = out;
  if (in != nullptr) io_.in = in;
  if (executor_ != nullptr) executor_->set_io(io_);
}

const ExecStats& Engine::exec_stats() const {
  static const ExecStats kEmpty{};
  return executor_ ? executor_->stats() : kEmpty;
}

void Engine::ResetExecStats() {
  std::unique_lock<std::shared_mutex> lock(state_mu_);
  if (executor_ != nullptr) executor_->stats() = ExecStats{};
}

StorageStats Engine::storage_stats() const {
  std::shared_lock<std::shared_mutex> lock(state_mu_);
  return StorageStatsNoLock();
}

StorageStats Engine::StorageStatsNoLock() const {
  StorageStats out;
  auto add = [&out](TermId, uint32_t, Relation* rel) {
    ++out.relations;
    out.live_tuples += rel->size();
    out.arena_bytes += rel->arena_bytes();
    const Relation::Counters& c = rel->counters();
    out.dedup_probes += c.dedup_probes.load(std::memory_order_relaxed);
    out.scan_rows += c.scan_rows.load(std::memory_order_relaxed);
    out.index_lookups += c.index_lookups.load(std::memory_order_relaxed);
    out.index_probe_rows +=
        c.index_probe_rows.load(std::memory_order_relaxed);
    out.indexes_built += c.indexes_built.load(std::memory_order_relaxed);
    out.stats_rebuilds += c.stats_rebuilds.load(std::memory_order_relaxed);
  };
  edb_.ForEach(add);
  idb_.ForEach(add);
  return out;
}

// --- Durability ------------------------------------------------------------

std::string Engine::checkpoint_path() const {
  return StrCat(options_.data_dir, "/checkpoint.facts");
}

std::string Engine::wal_path() const {
  return StrCat(options_.data_dir, "/wal.log");
}

uint64_t Engine::durable_lsn() const {
  std::shared_lock<std::shared_mutex> lock(state_mu_);
  return commit_log_ != nullptr ? commit_log_->durable_lsn() : 0;
}

std::optional<RecoveryReport> Engine::last_recovery() const {
  std::shared_lock<std::shared_mutex> lock(state_mu_);
  return last_recovery_;
}

Status Engine::OpenCommitLogLocked(std::unique_ptr<Wal> wal) {
  CommitLogOptions opts;
  opts.durability = options_.durability;
  opts.fsync_interval = options_.wal_fsync_interval;
  opts.group_linger = options_.wal_group_linger;
  opts.group_size = m_wal_group_size_;
  GLUENAIL_ASSIGN_OR_RETURN(commit_log_, CommitLog::Open(std::move(wal), opts));
  return Status::OK();
}

Result<MutationBatch::ApplyReport> Engine::ApplyBatch(
    const MutationBatch& batch) {
  if (options_.replica) return ReplicaWriteFence("ApplyBatch");
  if (batch.empty()) return MutationBatch::ApplyReport{};
  auto commit_failed = [this](Status s) -> Status {
    if (!s.ok()) m_wal_commit_failures_->Add();
    return s;
  };

  CommitLog* log = nullptr;
  CommitLog::Ticket ticket;
  Result<MutationBatch::ApplyReport> applied =
      MutationBatch::ApplyReport{};
  {
    std::unique_lock<std::shared_mutex> lock(state_mu_);
    // Durability off: the batch is just a structured multi-op apply.
    if (commit_log_ == nullptr) return ApplyBatchCapturedLocked(batch);
    log = commit_log_.get();
    // Write-ahead: validate (so a malformed batch is never logged), log,
    // then apply to memory. The apply happens before the ack wait so the
    // writer lock is released during the fsync — the whole point of group
    // commit.
    GLUENAIL_RETURN_NOT_OK(commit_failed(batch.Validate(&pool_)));
    Result<CommitLog::Ticket> appended = log->Append(batch);
    if (!appended.ok()) return commit_failed(appended.status());
    ticket = *appended;
    applied = ApplyBatchCapturedLocked(batch);
    if (!applied.ok()) {
      // Validate passed, so this cannot happen short of an engine bug —
      // but if it does, the log now has a record memory does not reflect.
      return commit_failed(applied.status().WithContext(
          "applied to log but not memory; recovery will replay it"));
    }
  }
  GLUENAIL_RETURN_NOT_OK(commit_failed(log->Await(ticket)));
  m_wal_commits_->Add();
  return applied;
}

Status Engine::Checkpoint() {
  std::unique_lock<std::shared_mutex> lock(state_mu_);
  return CheckpointLocked();
}

Status Engine::CheckpointLocked() {
  if (options_.data_dir.empty()) {
    return Status::InvalidArgument(
        "Checkpoint needs EngineOptions::data_dir");
  }
  // The image holds every appended batch (each was applied to memory under
  // this lock), including batches whose fsync failed — so the rotation
  // behind it heals a broken log, and waiters on the old log's LSNs are
  // released by the new epoch.
  GLUENAIL_RETURN_NOT_OK(SaveDatabaseToFile(edb_, checkpoint_path()));
  if (commit_log_ != nullptr) {
    GLUENAIL_RETURN_NOT_OK(commit_log_->Rotate());
  } else if (options_.durability != DurabilityLevel::kNone) {
    // Durability configured but Recover() never ran (fresh directory
    // bootstrap): bring the log up now.
    GLUENAIL_ASSIGN_OR_RETURN(std::unique_ptr<Wal> wal,
                              Wal::Create(wal_path(), 1));
    GLUENAIL_RETURN_NOT_OK(OpenCommitLogLocked(std::move(wal)));
  }
  m_checkpoints_->Add();
  return Status::OK();
}

Result<RecoveryReport> Engine::Recover() {
  std::unique_lock<std::shared_mutex> lock(state_mu_);
  if (options_.data_dir.empty()) {
    return Status::InvalidArgument("Recover needs EngineOptions::data_dir");
  }
  // Refuse while point-in-time readers are live: their copies would stay
  // valid, but the engine swapping to a different history underneath a
  // reader mid-conversation is exactly the confusion snapshots exist to
  // prevent.
  const long live = snapshot_token_.use_count() - 1;
  if (live > 0) {
    return Status::InvalidArgument(
        StrCat("cannot recover while ", live,
               " live snapshot(s) are outstanding; drop them first"));
  }
  commit_log_.reset();  // drains in-flight commits, closes the log
  // Clear in place so relation version counters stay monotone — cached
  // NAIL! memos and relation snapshots key off versions, and a fresh
  // Database would reset them.
  edb_.ForEach([](TermId, uint32_t, Relation* rel) { rel->Clear(); });
  idb_.ForEach([](TermId, uint32_t, Relation* rel) { rel->Clear(); });
  if (nail_engine_ != nullptr) nail_engine_->Invalidate();
  // Pre-recovery deltas describe the pre-crash history; a refresh against
  // them could serve memo rows the recovered (possibly salvaged) EDB never
  // derived. Drop them before the rebuild below.
  ivm_log_.Invalidate();

  RecoveryOptions ropts;
  ropts.mode = options_.wal_recovery;
  GLUENAIL_ASSIGN_OR_RETURN(
      RecoveryReport report,
      RecoverDatabase(&edb_, &pool_, checkpoint_path(), wal_path(), ropts));

  if (options_.durability != DurabilityLevel::kNone) {
    std::unique_ptr<Wal> wal;
    if (report.needs_reset) {
      // The old log is damaged past repair: capture the salvaged truth as
      // a fresh checkpoint and rotate to a clean log.
      GLUENAIL_RETURN_NOT_OK(SaveDatabaseToFile(edb_, checkpoint_path()));
      GLUENAIL_ASSIGN_OR_RETURN(
          wal, Wal::Create(wal_path(), report.last_lsn + 1));
    } else {
      GLUENAIL_ASSIGN_OR_RETURN(
          wal, Wal::Open(wal_path(), report.last_lsn + 1));
    }
    GLUENAIL_RETURN_NOT_OK(OpenCommitLogLocked(std::move(wal)));
  }
  last_recovery_ = report;
  return report;
}

// --- Replication ---------------------------------------------------------

Status Engine::ReplicaWriteFence(std::string_view op) const {
  std::string msg =
      StrCat(op, " refused: this engine is a read replica; apply "
                 "mutations at the primary");
  if (!options_.primary_hint.empty()) {
    msg = StrCat(msg, " (", options_.primary_hint, ")");
  }
  return Status::FailedPrecondition(std::move(msg));
}

Status Engine::ApplyReplicatedBatch(uint64_t lsn,
                                    const MutationBatch& batch) {
  std::unique_lock<std::shared_mutex> lock(state_mu_);
  if (!options_.replica) {
    return Status::InvalidArgument(
        "ApplyReplicatedBatch on a non-replica engine");
  }
  const uint64_t applied =
      repl_applied_lsn_.load(std::memory_order_relaxed);
  if (lsn <= applied) {
    return Status::InvalidArgument(
        StrCat("replicated lsn ", lsn, " does not advance applied lsn ",
               applied, "; stream out of order"));
  }
  GLUENAIL_RETURN_NOT_OK(batch.Validate(&pool_));
  Result<MutationBatch::ApplyReport> report = ApplyBatchCapturedLocked(batch);
  if (!report.ok()) return report.status();
  repl_applied_lsn_.store(lsn, std::memory_order_release);
  if (m_repl_batches_ != nullptr) m_repl_batches_->Add();
  return Status::OK();
}

Status Engine::ResetFromCheckpointImage(uint64_t covers_lsn,
                                        std::string_view image) {
  std::unique_lock<std::shared_mutex> lock(state_mu_);
  if (!options_.replica) {
    return Status::InvalidArgument(
        "ResetFromCheckpointImage on a non-replica engine");
  }
  const long live = snapshot_token_.use_count() - 1;
  if (live > 0) {
    return Status::InvalidArgument(
        StrCat("cannot bootstrap while ", live,
               " live snapshot(s) are outstanding; drop them first"));
  }
  // Validate into a scratch database first: the in-place clear below is
  // destructive, so a torn or corrupt image must be rejected before it
  // can take down the replica's current (stale but consistent) state.
  // Interning into the engine's pool is harmless — pools are append-only.
  Database staged(&pool_);
  std::istringstream in{std::string(image)};
  GLUENAIL_RETURN_NOT_OK(
      LoadDatabase(&staged, in).WithContext("checkpoint image"));
  // Same in-place clear Recover uses, keeping relation versions monotone
  // for cached memos and snapshots.
  edb_.ForEach([](TermId, uint32_t, Relation* rel) { rel->Clear(); });
  std::istringstream again{std::string(image)};
  GLUENAIL_RETURN_NOT_OK(
      LoadDatabase(&edb_, again).WithContext("checkpoint image"));
  if (nail_engine_ != nullptr) nail_engine_->Invalidate();
  ivm_log_.Invalidate();
  repl_applied_lsn_.store(covers_lsn, std::memory_order_release);
  if (m_repl_bootstraps_ != nullptr) m_repl_bootstraps_->Add();
  return Status::OK();
}

Result<Engine::CheckpointImage> Engine::ReadCheckpointImage() const {
  // Shared lock: CheckpointLocked saves the image and rotates the log
  // under the exclusive lock, so (file bytes, wal start_lsn) read here are
  // one consistent pair.
  std::shared_lock<std::shared_mutex> lock(state_mu_);
  if (commit_log_ == nullptr) {
    return Status::FailedPrecondition(
        "no WAL open; a primary needs durability on to ship snapshots");
  }
  CheckpointImage img;
  img.covers_lsn = commit_log_->wal().start_lsn() - 1;
  std::ifstream in(checkpoint_path(), std::ios::binary);
  if (!in) {
    return Status::IoError(
        StrCat("cannot open checkpoint '", checkpoint_path(), "'"));
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  if (!in.good() && !in.eof()) {
    return Status::IoError(
        StrCat("error reading checkpoint '", checkpoint_path(), "'"));
  }
  img.bytes = std::move(buf).str();
  return img;
}

}  // namespace gluenail
