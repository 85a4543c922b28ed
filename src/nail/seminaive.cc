#include "src/nail/seminaive.h"

#include <memory>

#include "src/common/strings.h"
#include "src/nail/nail_to_glue.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/plan/physical.h"
#include "src/plan/planner.h"

namespace gluenail {

void NailEngine::RegisterMetrics(MetricsRegistry* registry,
                                 const std::unique_ptr<NailEngine>* slot) {
  struct Pull {
    const char* name;
    const char* help;
    uint64_t (NailEngine::*read)() const;
  };
  static constexpr Pull kPulls[] = {
      {"gluenail_nail_refreshes_total", "NAIL! memo refreshes",
       &NailEngine::refresh_count},
      {"gluenail_nail_iterations_total", "semi-naive fixpoint iterations",
       &NailEngine::iteration_count},
      {"gluenail_nail_replans_total",
       "mid-evaluation SCC replans on cardinality drift",
       &NailEngine::replan_count},
      {"gluenail_nail_delta_refresh_total",
       "NAIL! memo refreshes patched incrementally from captured deltas",
       &NailEngine::delta_refresh_count},
      {"gluenail_nail_full_refresh_total",
       "NAIL! memo refreshes recomputed from scratch",
       &NailEngine::full_refresh_count},
      {"gluenail_nail_ivm_fallbacks_total",
       "full recomputes forced while delta maintenance was enabled",
       &NailEngine::ivm_fallback_count},
      {"gluenail_nail_ivm_delta_rows_in_total",
       "EDB delta rows consumed by incremental refreshes",
       &NailEngine::ivm_delta_rows_in},
      {"gluenail_nail_ivm_delta_rows_out_total",
       "memo rows changed by incremental refreshes",
       &NailEngine::ivm_delta_rows_out},
      {"gluenail_nail_ivm_old_state_rows_total",
       "rows copied into old-state overrides by incremental refreshes",
       &NailEngine::ivm_old_state_rows},
  };
  // Two-word captures (the slot and a table row) fit std::function's
  // inline buffer: engines are created often, and a heap cell per metric
  // fragments the heap.
  for (const Pull& p : kPulls) {
    registry->RegisterPullCounter(
        p.name, p.help, [slot, row = &p]() -> uint64_t {
          return *slot != nullptr ? ((**slot).*row->read)() : 0;
        });
  }
}

Status NailEngine::CompileDirect(const Scope* builtin_scope,
                                 const PlannerOptions& opts,
                                 const StatsProvider* stats) {
  planner_opts_ = opts;
  stats_ = stats;
  nail_scope_ = std::make_unique<Scope>(builtin_scope);
  DeclareNailScope(program_, nail_scope_.get());
  CompileEnv env;
  env.pool = pool_;
  env.scope = nail_scope_.get();
  // Rule bodies reference EDB relations without per-module declarations.
  env.implicit_edb = true;
  env.stats = stats;

  scc_plans_.clear();
  scc_plans_.resize(program_.scc_order.size());
  for (size_t s = 0; s < program_.scc_order.size(); ++s) {
    SccStatements stmts =
        BuildSccStatements(program_, static_cast<int>(s));
    for (const ast::Assignment& a : stmts.init) {
      GLUENAIL_ASSIGN_OR_RETURN(StatementPlan plan,
                                PlanAssignment(a, env, opts));
      scc_plans_[s].init.push_back(std::move(plan));
      // Naive baseline: same statement without delta capture.
      ast::Assignment naive = a;
      naive.has_delta = false;
      GLUENAIL_ASSIGN_OR_RETURN(StatementPlan nplan,
                                PlanAssignment(naive, env, opts));
      scc_plans_[s].naive.push_back(std::move(nplan));
    }
    for (const ast::Assignment& a : stmts.iterate) {
      GLUENAIL_ASSIGN_OR_RETURN(StatementPlan plan,
                                PlanAssignment(a, env, opts));
      scc_plans_[s].iterate.push_back(std::move(plan));
      scc_plans_[s].iterate_asts.push_back(a);
    }
    scc_plans_[s].last_planned_delta = 0;
  }
  return Status::OK();
}

uint64_t NailEngine::SccDeltaRows(const std::vector<int>& preds) const {
  uint64_t total = 0;
  for (int p : preds) {
    const NailPred& pred = program_.preds[static_cast<size_t>(p)];
    Relation* delta = idb_->Find(pred.delta_storage, pred.columns());
    if (delta != nullptr) total += delta->size();
  }
  return total;
}

Status NailEngine::MaybeReplanScc(SccPlans* plans,
                                  const std::vector<int>& preds) {
  // Feedback loop: the iterate plans were costed against whatever the
  // delta relations held at planning time (empty, at first compile). When
  // the observed delta volume drifts an order of magnitude — in either
  // direction — the chosen join orders may be stale, so recompile the
  // bodies against live statistics (RowsDrifted, plan/physical.h).
  if (stats_ == nullptr || !planner_opts_.reorder ||
      planner_opts_.cost_model != PlannerOptions::CostModel::kStatistics) {
    return Status::OK();
  }
  uint64_t cur = SccDeltaRows(preds);
  uint64_t last = plans->last_planned_delta;
  if (!RowsDrifted(last, cur)) return Status::OK();

  CompileEnv env;
  env.pool = pool_;
  env.scope = nail_scope_.get();
  env.implicit_edb = true;
  env.stats = stats_;
  for (size_t i = 0; i < plans->iterate_asts.size(); ++i) {
    GLUENAIL_ASSIGN_OR_RETURN(
        StatementPlan plan,
        PlanAssignment(plans->iterate_asts[i], env, planner_opts_));
    plans->iterate[i] = std::move(plan);
  }
  plans->last_planned_delta = cur;
  replan_count_.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

Status NailEngine::ClearIdb() {
  // Memos, deltas, and published instances all live in the IDB database;
  // recomputation starts from scratch.
  std::vector<std::pair<TermId, uint32_t>> keys;
  idb_->ForEach([&](TermId name, uint32_t arity, Relation*) {
    keys.emplace_back(name, arity);
  });
  for (const auto& [name, arity] : keys) {
    GLUENAIL_RETURN_NOT_OK(idb_->Drop(name, arity));
  }
  return Status::OK();
}

Result<Relation*> NailEngine::EnsureNail(TermId storage_name,
                                         uint32_t arity) {
  if (!evaluating_) {
    GLUENAIL_RETURN_NOT_OK(Refresh());
  }
  return idb_->GetOrCreate(storage_name, arity);
}

Status NailEngine::EnsureAllNail() {
  if (evaluating_) return Status::OK();
  return Refresh();
}

Status NailEngine::Refresh() {
  if (IsFresh()) return Status::OK();
  if (exec_ == nullptr) {
    return Status::Internal("NailEngine has no executor wired");
  }
  ScopedSpan refresh_span("nail:refresh");

  // ---- Delta maintenance first (docs/ARCHITECTURE.md, "Incremental
  // view maintenance"): the change journal holds every EDB change since
  // the memo was built, so patch the memos with DRed instead of
  // recomputing from scratch.
  NailRefreshInfo info;
  bool ivm_enabled = ivm_mode_ != IvmMode::kOff && delta_log_ != nullptr;
  // The naive mode is an ablation baseline — it must keep measuring the
  // non-incremental cost.
  bool ivm_wired =
      ivm_enabled && mode_ != NailMode::kNaive && !scc_plans_.empty();
  if (ivm_enabled && !ivm_wired) info.fallback = "mode";
  if (ivm_wired) {
    if (!valid_ || !delta_log_->valid()) {
      // Never built, or invalidated (Recover, a replica bootstrap, program
      // reload): the memo is untrusted whatever the journal holds.
      info.fallback = "invalidated";
    } else if (delta_log_->any_dropped()) {
      info.fallback = "delta-dropped";
    } else {
      bool done = false;
      bool alloc_failed = false;
      evaluating_ = true;
      Status ist;
      try {
        ist = RefreshIncremental(&info, &done);
      } catch (const std::bad_alloc&) {
        ist = Status::ResourceExhausted(
            "allocation failed during NAIL! delta maintenance");
        done = false;
        alloc_failed = true;
      }
      evaluating_ = false;
      if (ist.ok() && done) {
        ++refresh_count_;
        valid_ = true;
        delta_log_->Rebase();
        delta_refresh_count_.fetch_add(1, std::memory_order_relaxed);
        ivm_rows_in_.fetch_add(info.delta_rows_in,
                               std::memory_order_relaxed);
        ivm_rows_out_.fetch_add(info.delta_rows_out,
                                std::memory_order_relaxed);
        ivm_old_state_rows_.fetch_add(info.old_state_rows,
                                      std::memory_order_relaxed);
        info.seq = refresh_count_;
        info.incremental = true;
        {
          std::lock_guard<std::mutex> lock(info_mu_);
          last_refresh_ = info;
        }
        return Status::OK();
      }
      // A partially applied delta refresh may have left memo storage
      // inconsistent; distrust it so a full rebuild runs from scratch.
      valid_ = false;
      // A guardrail abort (cancel, deadline or budget: the only Cancelled
      // and ResourceExhausted statuses besides an allocation failure) is
      // the query's answer; a full recompute would run on the budget the
      // delta pass already spent, so it waits for the next demand. Any
      // other error falls back to the full recompute below, which is
      // always a correct answer.
      if (!alloc_failed && (ist.IsCancelled() || ist.IsResourceExhausted())) {
        return ist.WithContext("NAIL! evaluation");
      }
      if (!ist.ok() && info.fallback.empty()) info.fallback = "error";
    }
  }

  evaluating_ = true;
  Status st = ClearIdb();
  if (st.ok()) {
    // Arena chunk allocation reports OOM (real or injected) by throwing
    // bad_alloc; convert it here so evaluating_ is always unwound and the
    // half-built IDB is recomputed on next demand instead of trusted.
    try {
      switch (mode_) {
        case NailMode::kDirect:
          st = RefreshDirect();
          break;
        case NailMode::kNaive:
          st = RefreshNaive();
          break;
        case NailMode::kCompiledGlue:
          st = RefreshCompiled();
          break;
      }
      if (st.ok()) st = Publish();
    } catch (const std::bad_alloc&) {
      st = Status::ResourceExhausted(
          "allocation failed during NAIL! evaluation");
    }
  }
  evaluating_ = false;
  GLUENAIL_RETURN_NOT_OK(st.WithContext("NAIL! evaluation"));
  ++refresh_count_;
  valid_ = true;
  // The memo was rebuilt from the live EDB (evaluation writes only the
  // IDB, under the engine's writer lock): the journal restarts against it.
  if (delta_log_ != nullptr) delta_log_->Rebase();
  full_refresh_count_.fetch_add(1, std::memory_order_relaxed);
  if (ivm_enabled && !info.fallback.empty()) {
    ivm_fallback_count_.fetch_add(1, std::memory_order_relaxed);
  }
  info.seq = refresh_count_;
  info.incremental = false;
  info.mode = "full";
  {
    std::lock_guard<std::mutex> lock(info_mu_);
    last_refresh_ = info;
  }
  return Status::OK();
}

Status NailEngine::RefreshDirect() {
  Frame frame(nullptr);
  for (size_t s = 0; s < program_.scc_order.size(); ++s) {
    SccPlans& plans = scc_plans_[s];
    ScopedSpan scc_span("nail:scc");
    for (const StatementPlan& plan : plans.init) {
      GLUENAIL_RETURN_NOT_OK(exec_->ExecuteStatementPlan(plan, &frame));
    }
    if (plans.iterate.empty()) continue;
    GLUENAIL_RETURN_NOT_OK(RunSccFixpoint(s));
  }
  return Status::OK();
}

Status NailEngine::RunSccFixpoint(size_t s) {
  // The caller seeds the SCC's delta relations: the init statements do it
  // for a full refresh, the DRed rederive/insert phases for an
  // incremental one. Either way the loop below is the same semi-naive
  // engine — iterate plans over deltas, shift, repeat to fixpoint.
  Frame frame(nullptr);
  SccPlans& plans = scc_plans_[s];
  const std::vector<int>& preds = program_.scc_order[s];
  while (true) {
    // One span per fixpoint iteration; rows carries the delta volume the
    // iteration started from, so a trace shows convergence at a glance.
    ScopedSpan iter_span("nail:iteration");
    if (iter_span.active()) iter_span.AddRows(SccDeltaRows(preds));
    ++iteration_count_;
    // Guardrails once per fixpoint iteration: a cancelled or
    // over-budget query aborts within one iteration.
    GLUENAIL_RETURN_NOT_OK(exec_->CheckStorageBudgets());
    // Replan the iterate bodies if the observed delta sizes drifted far
    // from what they were costed against.
    GLUENAIL_RETURN_NOT_OK(MaybeReplanScc(&plans, preds));
    // Clear newdelta relations.
    for (int p : preds) {
      const NailPred& pred = program_.preds[static_cast<size_t>(p)];
      idb_->GetOrCreate(pred.newdelta_storage, pred.columns())->Clear();
    }
    for (const StatementPlan& plan : plans.iterate) {
      GLUENAIL_RETURN_NOT_OK(exec_->ExecuteStatementPlan(plan, &frame));
    }
    bool done = true;
    for (int p : preds) {
      const NailPred& pred = program_.preds[static_cast<size_t>(p)];
      Relation* nd =
          idb_->GetOrCreate(pred.newdelta_storage, pred.columns());
      if (!nd->empty()) {
        done = false;
        // Shift: delta := newdelta.
        idb_->GetOrCreate(pred.delta_storage, pred.columns())
            ->CopyFrom(*nd);
      } else {
        idb_->GetOrCreate(pred.delta_storage, pred.columns())->Clear();
      }
    }
    if (done) break;
  }
  return Status::OK();
}

Status NailEngine::RefreshNaive() {
  // Ablation baseline (bench E5): iterate the original rules over full
  // relations until no storage relation grows. No deltas, no uniondiff.
  Frame frame(nullptr);
  for (size_t s = 0; s < program_.scc_order.size(); ++s) {
    SccPlans& plans = scc_plans_[s];
    const std::vector<int>& preds = program_.scc_order[s];
    while (true) {
      ++iteration_count_;
      GLUENAIL_RETURN_NOT_OK(exec_->CheckStorageBudgets());
      uint64_t before = 0;
      for (int p : preds) {
        const NailPred& pred = program_.preds[static_cast<size_t>(p)];
        before += idb_->GetOrCreate(pred.storage, pred.columns())->version();
      }
      for (const StatementPlan& plan : plans.naive) {
        GLUENAIL_RETURN_NOT_OK(exec_->ExecuteStatementPlan(plan, &frame));
      }
      uint64_t after = 0;
      for (int p : preds) {
        const NailPred& pred = program_.preds[static_cast<size_t>(p)];
        after += idb_->GetOrCreate(pred.storage, pred.columns())->version();
      }
      if (after == before) break;
    }
  }
  return Status::OK();
}

Status NailEngine::RefreshCompiled() {
  if (driver_proc_ < 0) {
    return Status::Internal("compiled NAIL! mode without a driver proc");
  }
  Relation input("in", 0);
  input.Insert(Tuple{});
  Relation output("out", 0);
  return exec_->CallProcedureByIndex(driver_proc_, input, &output);
}

Status NailEngine::Publish() {
  for (const NailPred& pred : program_.preds) {
    if (pred.params == 0) continue;  // the memo is already stored by name
    Relation* storage = idb_->GetOrCreate(pred.storage, pred.columns());
    TermId root = pool_->MakeSymbol(pred.root);
    for (RowView t : *storage) {
      std::vector<TermId> params(t.begin(), t.begin() + pred.params);
      TermId name = pool_->MakeCompound(root, params);
      Relation* pub = idb_->GetOrCreate(name, pred.arity);
      pub->Insert(t.subspan(pred.params));
    }
  }
  return Status::OK();
}

}  // namespace gluenail
