#include "src/api/engine.h"

#include <chrono>
#include <mutex>

#include "src/api/session.h"
#include "src/common/strings.h"
#include "src/nail/magic.h"
#include "src/parser/parser.h"
#include "src/plan/physical.h"
#include "src/plan/plan_printer.h"

namespace gluenail {

namespace {

/// Entries the slow-query log keeps before evicting the oldest.
constexpr size_t kSlowQueryLogCapacity = 64;

/// Refuses a batch or load that inserts under a NAIL! predicate's
/// (name, arity) (NailProgram::CheckEdbInsert).
Status RefuseNailRows(const NailProgram& nail, const TermPool& pool,
                      const MutationBatch::Resolved& ops) {
  // A batch mostly repeats one relation: each run of it is checked once.
  const MutationBatch::ResolvedOp* checked = nullptr;
  for (const MutationBatch::ResolvedOp& op : ops) {
    if (op.kind != MutationBatch::OpKind::kInsert) continue;
    const auto arity = static_cast<uint32_t>(op.row.size());
    if (checked != nullptr && checked->name == op.name &&
        checked->row.size() == arity) {
      continue;
    }
    checked = &op;
    GLUENAIL_RETURN_NOT_OK(nail.CheckEdbInsert(pool, op.name, arity));
  }
  return Status::OK();
}

}  // namespace

Engine::Engine(EngineOptions options)
    : options_(options),
      edb_(&pool_),
      idb_(&pool_),
      ivm_log_(options.ivm_max_delta_rows),
      trace_ring_(options.trace_ring_capacity),
      slow_log_(kSlowQueryLogCapacity),
      data_dir_(options.data_dir, options.wal_recovery,
                CommitLogOptions{options.durability,
                                 options.wal_fsync_interval,
                                 options.wal_group_linger, nullptr}) {
  edb_.set_default_index_policy(options_.index_policy);
  edb_.set_delta_log(&ivm_log_);
  idb_.set_default_index_policy(options_.index_policy);
  RegisterBuiltinMetrics();
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

  // Each subsystem registers its own pulls. They run under DumpMetrics'
  // shared lock, which is what keeps executor_, nail_engine_ and the open
  // commit log from being replaced mid-read.
  RegisterStorageMetrics(&metrics_, &pool_, &edb_, &idb_);
  Executor::RegisterMetrics(&metrics_, &executor_);
  NailEngine::RegisterMetrics(&metrics_, &nail_engine_);
  RegisterPlannerMetrics(&metrics_);
  PlanCache::RegisterMetrics(&metrics_, &plan_cache_);
  RegisterPersistenceMetrics(&metrics_);
  data_dir_.RegisterMetrics(&metrics_);

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
        [this] { return static_cast<int64_t>(replica_lag()); });
  }
}

std::string Engine::DumpMetrics(MetricsFormat format) const {
  // Shared lock: pull callbacks read executor_/nail_engine_ and walk the
  // databases, which only writers (exclusive holders) replace or mutate.
  std::shared_lock<std::shared_mutex> lock(state_mu_);
  return format == MetricsFormat::kJson ? metrics_.RenderJson()
                                        : metrics_.RenderPrometheus();
}

void Engine::FinishQueryObs(Request* req, std::string_view query,
                            TraceRing* ring) {
  const auto total_ns = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - req->start)
          .count());
  m_queries_->Add(1);
  m_query_latency_->Observe(total_ns);
  if (!req->active) return;
  req->scope.reset();  // uninstall before freezing
  auto trace = std::make_shared<const QueryTrace>(
      req->sink.Finish(std::string(query), total_ns));
  if (req->want_trace) {
    m_traced_queries_->Add(1);
    if (ring != nullptr) ring->Push(trace);
  }
  const auto threshold = options_.slow_query_threshold;
  if (threshold.count() > 0 &&
      total_ns >= static_cast<uint64_t>(threshold.count())) {
    SlowQueryEntry entry;
    entry.query = trace->query;
    entry.seconds = static_cast<double>(total_ns) * 1e-9;
    if (nail_engine_ != nullptr) {
      // Saturated: a LoadProgram between a session read's count and its
      // refresh swaps in an engine whose counters restart.
      const uint64_t replans = nail_engine_->replan_count();
      entry.replans = replans - std::min(replans, req->replans_before);
    }
    if (auto info = req->PaidRefresh(nail_engine_.get())) {
      // This query paid for a memo refresh; record how it ran.
      entry.nail_refresh_mode = info->mode;
      if (!info->fallback.empty()) {
        entry.nail_refresh_mode += StrCat(" (", info->fallback, ")");
      }
      entry.nail_delta_rows_in = info->delta_rows_in;
      entry.nail_delta_rows_out = info->delta_rows_out;
    }
    entry.plan = trace->plan;
    entry.top_spans = TopSpansByDuration(trace->spans, 3);
    m_slow_queries_->Add(1);
    slow_log_.Record(std::move(entry));
  }
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
  GLUENAIL_ASSIGN_OR_RETURN(ast::Program parsed, ParseProgram(source));

  LinkOptions link_opts;
  link_opts.planner = options_.planner;
  link_opts.nail_mode = options_.nail_mode;
  link_opts.stats = &stats_provider_;
  GLUENAIL_ASSIGN_OR_RETURN(
      LinkedProgram linked, LinkProgram(parsed, hosts_, &pool_, link_opts));
  linked_ = std::make_unique<LinkedProgram>(std::move(linked));
  plan_cache_.Invalidate();

  nail_engine_ = std::make_unique<NailEngine>(linked_->nail, &edb_, &idb_,
                                              &pool_);
  nail_engine_->set_mode(options_.nail_mode);
  // The direct plans serve every delta refresh, so they are compiled in
  // every mode; kCompiledGlue only adds its generated driver for full
  // refreshes.
  GLUENAIL_RETURN_NOT_OK(nail_engine_->CompileDirect(
      linked_->builtin_scope.get(), options_.planner, &stats_provider_));
  if (options_.nail_mode == NailMode::kCompiledGlue) {
    nail_engine_->set_driver_proc(linked_->nail_driver_proc);
  }
  nail_engine_->ConfigureIvm(options_.ivm_mode, &ivm_log_);
  // A new program means new memos; deltas captured against the old one
  // are meaningless (the first refresh rebases the log).
  ivm_log_.Invalidate();

  executor_ = std::make_unique<Executor>(&linked_->program, &edb_, &idb_,
                                         &pool_, Env(), options_.exec);
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
  GLUENAIL_ASSIGN_OR_RETURN(std::string text, ReadFileText(path));
  return LoadProgram(text).WithContext(path);
}

bool Engine::ReadReadyLocked() const {
  return nail_engine_ != nullptr && nail_engine_->IsFresh();
}

Status Engine::PrepareForReadLocked(ExecControl* control) {
  if (linked_ == nullptr) {
    // An empty program: everything ad-hoc against the bare EDB.
    GLUENAIL_RETURN_NOT_OK(LoadProgramLocked("module main; end"));
  }
  ControlScope scope(executor_.get(), control);
  return nail_engine_->EnsureAllNail();
}

Result<CompiledProcedure> Engine::CompileAdhoc(std::string_view statement) {
  ScopedSpan parse_span("stmt:parse");
  GLUENAIL_ASSIGN_OR_RETURN(ast::Statement stmt, ParseStatement(statement));
  parse_span.End();
  ScopedSpan compile_span("stmt:compile");
  ast::Procedure proc;
  proc.name = "$adhoc";
  proc.bound_arity = 0;
  proc.free_arity = 0;
  proc.body.push_back(std::move(stmt));
  return CompileProcedureAst(proc, *linked_->global_scope, &pool_, "$adhoc",
                             /*fixed=*/true, options_.planner,
                             /*implicit_edb=*/true, &stats_provider_);
}

template <typename Work>
std::invoke_result_t<Work&, Engine::Request&> Engine::RunObserved(
    Session* reader, std::string_view text, const QueryOptions& options,
    Work&& work) {
  using Out = std::invoke_result_t<Work&, Request&>;
  std::unique_lock<std::shared_mutex> writer(state_mu_, std::defer_lock);
  std::shared_lock<std::shared_mutex> shared(state_mu_, std::defer_lock);
  // The sink goes in before the lock: when a request refreshes a stale
  // NAIL! memo, the refresh's fixpoint spans (usually the dominant cost)
  // belong to this trace. The sink is thread-local, so installing it
  // early races with nothing.
  Request req;
  req.want_trace = options.trace;
  req.active = options.trace || options_.slow_query_threshold.count() > 0;
  if (req.active) req.scope.emplace(&req.sink);
  // The control exists before the lock, so the refresh the request pays
  // for runs under its guardrails.
  if (options.guarded()) {
    req.ctl.deadline = options.deadline;
    req.ctl.cancel = options.cancel;
    req.ctl.limits = options.limits;
    req.control = &req.ctl;
    // Fail fast on pre-cancelled tokens and already-expired deadlines.
    GLUENAIL_RETURN_NOT_OK(req.ctl.Check());
  }
  // Arena growth reports OOM (real or injected) as bad_alloc; surface it
  // as a status so the engine stays usable. Any half-built NAIL! state is
  // memo-invalid (Refresh unwound) and recomputed on the next demand.
  Out out = [&]() -> Out {
    try {
      std::optional<Executor> read_exec;
      if (reader != nullptr) {
        // A session read's latency includes the refresh its upgrade pays
        // for.
        req.start = std::chrono::steady_clock::now();
        GLUENAIL_RETURN_NOT_OK(reader->EnterRead(&shared, &req));
        req.exec = &read_exec.emplace(&linked_->program, &edb_, &idb_, &pool_,
                                      Env(), options_.exec,
                                      StorageAccess::kReadOnly);
      } else {
        writer.lock();
        // Timed from here: waiting for the writer lock is not latency.
        req.start = std::chrono::steady_clock::now();
        req.CountFrom(nail_engine_.get());
        GLUENAIL_RETURN_NOT_OK(PrepareForReadLocked(req.control));
        req.exec = executor_.get();
      }
      ControlScope scope(req.exec, req.control);
      return work(req);
    } catch (const std::bad_alloc&) {
      return Status::ResourceExhausted("allocation failed during a request");
    }
  }();
  // A request refused before it held the lock has nothing to observe.
  if (writer.owns_lock() || shared.owns_lock()) {
    FinishQueryObs(&req, text,
                   reader != nullptr ? reader->ring_.get() : &trace_ring_);
  }
  return out;
}

Status Engine::ExecuteStatement(std::string_view statement,
                                const QueryOptions& options) {
  return RunStatement(statement, options, nullptr).status();
}

Result<std::string> Engine::ExplainStatement(std::string_view statement,
                                             const ExplainOptions& options) {
  return RunStatement(statement, {}, &options);
}

Result<std::string> Engine::RunStatement(std::string_view statement,
                                         const QueryOptions& options,
                                         const ExplainOptions* explain) {
  // EXPLAIN ANALYZE runs the statement, so a replica refuses it too.
  const bool runs = explain == nullptr || explain->analyze;
  if (options_.replica && runs) {
    return ReplicaWriteFence(explain != nullptr ? "EXPLAIN ANALYZE"
                                                : "ExecuteStatement");
  }
  return RunObserved(
      nullptr, statement, options, [&](Request& req) -> Result<std::string> {
        GLUENAIL_ASSIGN_OR_RETURN(CompiledProcedure proc,
                                  CompileAdhoc(statement));
        std::string plans;
        if (!runs) {
          for (const StatementPlan& plan : proc.plans) {
            plans += PlanToString(plan, pool_);
          }
          return plans;
        }
        // Under an active sink the trace carries the plans with actual
        // rows; EXPLAIN ANALYZE returns them. The profiles are keyed by
        // plan pointer and the plans die with `proc`, so they are dropped
        // on every exit path.
        TraceSink* sink = TraceSink::Current();
        const bool profile = explain != nullptr || sink != nullptr;
        for (const StatementPlan& plan : proc.plans) {
          if (profile) req.exec->EnableOpProfile(&plan);
        }
        Frame frame(&proc);
        Status run = req.exec->ExecBlock(proc.code, proc, &frame);
        for (const StatementPlan& plan : proc.plans) {
          if (!profile) break;
          plans += PlanToString(plan, pool_, req.exec->OpProfile(&plan));
          req.exec->DisableOpProfile(&plan);
        }
        if (sink != nullptr) sink->AppendPlan(plans);
        GLUENAIL_RETURN_NOT_OK(run);
        std::optional<NailRefreshInfo> info =
            req.PaidRefresh(nail_engine_.get());
        if (explain == nullptr || !info) return plans;
        // The statement paid for a stale NAIL! memo's refresh; show how it
        // ran (full vs. delta-driven, and why a fallback recomputed).
        plans += StrCat("nail refresh: mode=", info->mode);
        if (!info->fallback.empty()) {
          plans += StrCat(" fallback=", info->fallback);
        }
        plans += StrCat(" delta_rows_in=", info->delta_rows_in,
                        " delta_rows_out=", info->delta_rows_out,
                        " old_state_rows=", info->old_state_rows, "\n");
        return plans;
      });
}

Result<Engine::QueryResult> Engine::Query(std::string_view goal,
                                          const QueryOptions& options) {
  return QueryFor(nullptr, goal, options);
}

Result<Engine::QueryResult> Engine::QueryFor(Session* reader,
                                             std::string_view goal,
                                             const QueryOptions& options) {
  return RunObserved(
      reader, goal, options, [&](Request& req) -> Result<QueryResult> {
        if (options.strategy != QueryStrategy::kMagic) {
          return QueryGoalWith(req.exec, goal);
        }
        // Magic evaluation writes only a private scratch IDB, so a shared
        // reader keeps the EDB read-only.
        return QueryMagicWith(goal,
                              reader != nullptr ? StorageAccess::kPrivateIdb
                                                : StorageAccess::kReadWrite,
                              req.control);
      });
}

RuntimeEnv Engine::Env() {
  RuntimeEnv env;
  env.io = io_;
  env.hosts = &hosts_;
  env.nail = nail_engine_.get();
  return env;
}

Result<Engine::QueryResult> Engine::QueryGoalWith(Executor* exec,
                                                  std::string_view goal) {
  ScopedSpan parse_span("query:parse");
  GLUENAIL_ASSIGN_OR_RETURN(std::vector<ast::Subgoal> body, ParseGoal(goal));
  parse_span.End();

  CompileEnv env;
  env.pool = &pool_;
  env.scope = linked_->global_scope.get();
  env.implicit_edb = true;
  env.stats = &stats_provider_;
  ScopedSpan plan_span("query:plan");
  GLUENAIL_ASSIGN_OR_RETURN(
      PlanCache::Read read,
      plan_cache_.Plan(std::move(body), env, options_.planner));
  plan_span.End();
  const StatementPlan& plan = read.entry->plan;

  // Under an active sink, profile the plan so the trace can carry its plan
  // text with actual rows. The profile is keyed by plan pointer and the
  // plan may die with `read`, so it is dropped on every exit path.
  TraceSink* sink = TraceSink::Current();
  if (sink != nullptr) exec->EnableOpProfile(&plan);

  // The answers are the head tuples, deduplicated, then sorted.
  Relation answers("$answers",
                   static_cast<uint32_t>(read.entry->vars.size()));
  ScopedSpan exec_span("query:execute");
  Status run = exec->RunPlanHeads(
      plan, read.params, [&answers](Tuple row) { answers.Insert(row); });
  exec_span.End();
  if (sink != nullptr) {
    std::string text = PlanToString(plan, pool_, exec->OpProfile(&plan));
    if (read.cached) text.insert(text.size() - 1, "  ; cached");
    sink->AppendPlan(text);
    exec->DisableOpProfile(&plan);
  }
  GLUENAIL_RETURN_NOT_OK(run);

  ScopedSpan answers_span("query:answers");
  QueryResult out;
  out.vars = read.entry->vars;
  out.rows = answers.SortedTuples(pool_);
  answers_span.AddRows(out.rows.size());
  return out;
}

Result<std::vector<Tuple>> Engine::Call(std::string_view name,
                                        const std::vector<Tuple>& inputs) {
  return CallFor(nullptr, name, inputs);
}

Result<std::vector<Tuple>> Engine::CallFor(Session* reader,
                                           std::string_view name,
                                           const std::vector<Tuple>& inputs) {
  return RunObserved(
      reader, name, QueryOptions{},
      [&](Request& req) -> Result<std::vector<Tuple>> {
        // An exported procedure with this name (any arity; unique names).
        int index = -1;
        std::string prefix = StrCat(name, "/");
        for (const auto& [key, idx] : linked_->program.proc_by_export) {
          if (!StartsWith(key, prefix)) continue;
          if (index >= 0) {
            return Status::InvalidArgument(StrCat(
                "procedure name '", name, "' is ambiguous; qualify with "
                "arity"));
          }
          index = idx;
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
        GLUENAIL_RETURN_NOT_OK(
            req.exec->CallProcedureByIndex(index, input, &output));
        return output.SortedTuples(pool_);
      });
}

Result<Engine::QueryResult> Engine::QueryMagicWith(std::string_view goal,
                                                   StorageAccess access,
                                                   ExecControl* control) {
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
      EvaluateWithMagic(linked_->nail.rules, q, &edb_, &pool_, options_.exec,
                        access, control));
  for (const Tuple& row : rows) {
    Tuple projected;
    for (size_t c : free_columns) projected.push_back(row[c]);
    out.rows.push_back(std::move(projected));
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

Result<TermId> Engine::InternTerm(std::string_view text) {
  // The pool is thread-safe; no engine lock required.
  return ParseGroundTerm(&pool_, text);
}

Result<EngineSnapshot> Engine::snapshot() { return OpenSession().Snapshot(); }

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
  if (data_dir_.log() != nullptr) (void)data_dir_.log()->Drain();
  return SaveDatabaseToFile(edb_, path);
}

Result<LoadReport> Engine::LoadEdbFile(const std::string& path,
                                       const LoadOptions& options) {
  if (options_.replica) return ReplicaWriteFence("LoadEdbFile");
  Database staged(&pool_);
  return CommitLoad(LoadDatabaseFromFile(&staged, path, options), staged);
}

Result<LoadReport> Engine::LoadEdbText(std::string_view text,
                                       const LoadOptions& options) {
  if (options_.replica) return ReplicaWriteFence("LoadEdbText");
  Database staged(&pool_);
  return CommitLoad(LoadDatabase(&staged, text, options), staged);
}

Result<LoadReport> Engine::CommitLoad(Result<LoadReport> report,
                                      const Database& staged) {
  if (!report.ok()) return report;
  // The staged rows are the ops; the log's record renders them once.
  const bool logged = options_.durability != DurabilityLevel::kNone;
  MutationBatch::Resolved ops;
  MutationBatch record;
  staged.ForEach([&](TermId name, uint32_t, Relation* rel) {
    for (RowView row : *rel) {
      ops.push_back(MutationBatch::ResolvedOp{
          MutationBatch::OpKind::kInsert, name, Tuple(row.begin(), row.end())});
      if (logged) record.Insert(pool_, name, row);
    }
  });
  if (ops.empty()) return report;
  GLUENAIL_RETURN_NOT_OK(Commit(ops, record).status());
  return report;
}

Result<MutationBatch::ApplyReport> Engine::Commit(
    const MutationBatch::Resolved& ops, const MutationBatch& record) {
  std::unique_lock<std::shared_mutex> lock(state_mu_);
  if (linked_ != nullptr) {
    GLUENAIL_RETURN_NOT_OK(RefuseNailRows(linked_->nail, pool_, ops));
  }
  return data_dir_.Commit(ops, record, lock, &edb_);
}

Result<std::vector<Tuple>> Engine::RelationContents(
    std::string_view name_term, uint32_t arity) {
  return OpenSession().RelationContents(name_term, arity);
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
  return CollectStorageStats(edb_, idb_);
}

// --- Durability ------------------------------------------------------------

Engine::WalStatus Engine::wal_status() const {
  std::shared_lock<std::shared_mutex> lock(state_mu_);
  WalStatus status;
  if (data_dir_.log() == nullptr) return status;
  const Wal& wal = data_dir_.log()->wal();
  status.open = true;
  status.broken = wal.broken();
  status.durable_lsn = wal.durable_lsn();
  status.appends = wal.counters().appends.load(std::memory_order_relaxed);
  status.syncs = wal.counters().syncs.load(std::memory_order_relaxed);
  return status;
}

uint64_t Engine::durable_lsn() const {
  std::shared_lock<std::shared_mutex> lock(state_mu_);
  return data_dir_.log() != nullptr ? data_dir_.log()->durable_lsn() : 0;
}

Result<MutationBatch::ApplyReport> Engine::ApplyBatch(
    const MutationBatch& batch) {
  if (options_.replica) return ReplicaWriteFence("ApplyBatch");
  if (batch.empty()) return MutationBatch::ApplyReport{};
  // The pool is thread-safe, so the batch is read before the writer lock.
  GLUENAIL_ASSIGN_OR_RETURN(MutationBatch::Resolved ops,
                            batch.Resolve(&pool_));
  return Commit(ops, batch);
}

Status Engine::Checkpoint() {
  std::unique_lock<std::shared_mutex> lock(state_mu_);
  return data_dir_.Checkpoint(edb_);
}

Status Engine::ReplaceEdbLocked(
    std::string_view what, const std::function<Status(Database*)>& stage) {
  // Snapshot copies stay valid, but a reader mid-conversation must not see
  // the engine jump to another history underneath it.
  const long live = snapshot_token_.use_count() - 1;
  if (live > 0) {
    return Status::InvalidArgument(
        StrCat("cannot ", what, " while ", live,
               " live snapshot(s) are outstanding; drop them first"));
  }
  // Staged, so a failed rebuild leaves the live EDB exactly as it was.
  // Interning into the engine's pool is harmless: pools are append-only.
  Database staged(&pool_);
  GLUENAIL_RETURN_NOT_OK(stage(&staged));
  // Captured deltas describe the discarded history; a refresh against them
  // could serve memo rows the replacement (possibly salvaged) EDB never
  // derived. Invalidated first, so the swap below captures nothing.
  if (nail_engine_ != nullptr) nail_engine_->Invalidate();
  ivm_log_.Invalidate();
  // In place, so relation version counters stay monotone: relation
  // snapshots and `unchanged(p)` key off versions.
  edb_.ForEach([](TermId, uint32_t, Relation* rel) { rel->Clear(); });
  edb_.MergeFrom(&staged);
  return Status::OK();
}

Result<RecoveryReport> Engine::Recover() {
  std::unique_lock<std::shared_mutex> lock(state_mu_);
  RecoveryReport report;
  GLUENAIL_RETURN_NOT_OK(
      ReplaceEdbLocked("recover", [&](Database* staged) -> Status {
        GLUENAIL_ASSIGN_OR_RETURN(report, data_dir_.Recover(staged, &pool_));
        return Status::OK();
      }));
  return report;
}

// --- Replication ---------------------------------------------------------

Status Engine::ReplicaWriteFence(std::string_view op) const {
  const std::string& hint = options_.primary_hint;
  return Status::FailedPrecondition(
      StrCat(op, " refused: this engine is a read replica; apply mutations ",
             "at the primary", hint.empty() ? "" : StrCat(" (", hint, ")")));
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
  // Read like recovery replay reads a record, applied like a commit.
  GLUENAIL_ASSIGN_OR_RETURN(MutationBatch::Resolved ops,
                            batch.Resolve(&pool_));
  MutationBatch::ApplyResolved(ops, &edb_);
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
  // A torn or corrupt image is rejected before it can take down the
  // replica's current (stale but consistent) state.
  GLUENAIL_RETURN_NOT_OK(
      ReplaceEdbLocked("bootstrap", [image](Database* staged) {
        return LoadDatabase(staged, image, LoadOptions{})
            .status()
            .WithContext("checkpoint image");
      }));
  repl_applied_lsn_.store(covers_lsn, std::memory_order_release);
  if (m_repl_bootstraps_ != nullptr) m_repl_bootstraps_->Add();
  return Status::OK();
}

Result<CheckpointImage> Engine::ReadCheckpointImage() const {
  // Shared lock: Checkpoint saves the image and rotates the log under the
  // exclusive lock, so the bytes and the covered LSN are one pair.
  std::shared_lock<std::shared_mutex> lock(state_mu_);
  return data_dir_.ReadCheckpointImage();
}

Result<Wal::TailChunk> Engine::ReadWalTail(uint64_t from_lsn) const {
  // Shared lock: Recover swaps the log under the exclusive lock, so the
  // log read here stays alive for the whole read.
  std::shared_lock<std::shared_mutex> lock(state_mu_);
  if (data_dir_.log() == nullptr) {
    return Status::FailedPrecondition(
        "replication needs durability: this server has no WAL to ship");
  }
  return data_dir_.log()->wal().ReadRecordsFrom(from_lsn);
}

}  // namespace gluenail
