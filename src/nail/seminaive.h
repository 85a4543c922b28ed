/// \file seminaive.h
/// \brief The NAIL! evaluation engine.
///
/// NAIL! predicates are "computed on demand using the current value of the
/// EDB" (paper §2). The engine materializes every predicate's memo in the
/// IDB database and keeps it while the EDB change journal (delta_log.h)
/// records no net change since the refresh that built it; on the next
/// demand after a change it patches the memo from the journal's deltas
/// (DRed, src/nail/ivm.cc) or recomputes it.
///
/// Three modes:
///  * kDirect — the default and the engine's runtime path: C++ drives the
///    semi-naive fixpoint per SCC over compiled rule-version plans. Full
///    and delta (IVM) refreshes both reach their fixpoint through the one
///    serial loop, RunSccFixpoint;
///  * kCompiledGlue — the paper's architecture, kept as the E10 artifact:
///    generated Glue procedures (nail_to_glue.h) run the full fixpoint
///    through the ordinary Glue executor, repeat/until and all;
///  * kNaive — ablation baseline for bench E5: every iteration re-derives
///    from full relations; no deltas.
///
/// A parameterless predicate's memo is stored under its own name
/// (path/2), so it is readable by name once a refresh completes. After
/// evaluation, instances of parameterized predicates are *published*
/// (students(cs99) as a 1-ary relation, ...) for HiLog dereferencing.
/// While a refresh runs, a dynamic dereference reads the EDB only
/// (NailEvaluator::evaluating).

#ifndef GLUENAIL_NAIL_SEMINAIVE_H_
#define GLUENAIL_NAIL_SEMINAIVE_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/exec/executor.h"
#include "src/nail/rule_graph.h"
#include "src/plan/planner.h"
#include "src/storage/delta_log.h"

namespace gluenail {

class MetricsRegistry;

enum class NailMode { kDirect, kCompiledGlue, kNaive };

/// Incremental view maintenance policy (docs/ARCHITECTURE.md,
/// "Incremental view maintenance").
enum class IvmMode {
  kOff,   ///< every stale memo is fully recomputed (the old behavior)
  kAuto,  ///< delta refresh when a valid captured delta is small enough
  kForce, ///< delta refresh whenever structurally possible (tests/benches)
};

/// How the last completed refresh ran, for EXPLAIN ANALYZE, the
/// slow-query log, and trace consumers.
struct NailRefreshInfo {
  /// refresh_count() after this refresh; 0 = no refresh yet.
  uint64_t seq = 0;
  bool incremental = false;
  /// "full" | "dred" | "empty" (a delta refresh whose net delta touched
  /// no memo).
  std::string mode = "full";
  /// Why a full recompute ran although IVM was enabled ("" otherwise):
  /// "invalidated", "delta-dropped", "delta-fraction",
  /// "unsupported-rule", "negation-on-delta", "error", "mode".
  std::string fallback;
  /// EDB delta rows consumed / memo rows changed by a delta refresh.
  uint64_t delta_rows_in = 0;
  uint64_t delta_rows_out = 0;
  /// Rows a delta refresh copied into old-state overrides: DRed's
  /// live ∪ erased copies, made only for a rule that reads two or more
  /// positions with erased rows. 0 when every read could use the live
  /// relations.
  uint64_t old_state_rows = 0;
};

class NailEngine : public NailEvaluator {
 public:
  NailEngine(NailProgram program, Database* edb, Database* idb,
             TermPool* pool)
      : program_(std::move(program)), edb_(edb), idb_(idb), pool_(pool) {}

  const NailProgram& program() const { return program_; }

  /// Compiles the rule-version plans for kDirect / kNaive mode. The plans
  /// resolve EDB names implicitly; \p module_scope supplies anything else
  /// visible to rules. \p stats (may be null) feeds the physical planner,
  /// both here and on mid-fixpoint replans.
  Status CompileDirect(const Scope* builtin_scope, const PlannerOptions& opts,
                       const StatsProvider* stats = nullptr);

  /// Wires the executor used to run plans / generated procedures. Must be
  /// called before evaluation. (The executor's RuntimeEnv points back at
  /// this engine; re-entrant EnsureNail calls during evaluation pass
  /// through to storage.)
  void set_executor(Executor* exec) { exec_ = exec; }

  void set_mode(NailMode mode) { mode_ = mode; }
  NailMode mode() const { return mode_; }

  /// True when the memoized IDB matches the current EDB — i.e. reads can
  /// proceed without evaluation: the memo was built and the change
  /// journal nets to no change since. Callers use this to decide whether a
  /// shared (read) lock suffices. Without a journal (magic's one-shot
  /// scratch engine) a built memo stays fresh until Invalidate.
  bool IsFresh() const {
    return program_.empty() ||
           (valid_ && (delta_log_ == nullptr || delta_log_->Unchanged()));
  }

  /// Compiled-Glue mode: the index of the generated driver procedure.
  void set_driver_proc(int index) { driver_proc_ = index; }

  /// Forces recomputation on next demand.
  void Invalidate() { valid_ = false; }

  /// Wires the EDB change journal: freshness reads it, every refresh
  /// rebases it, and unless \p mode is kOff a stale memo is patched by
  /// DRed over every affected SCC from its deltas instead of recomputed.
  /// Requires the direct plans (CompileDirect). \p log must outlive the
  /// engine.
  void ConfigureIvm(IvmMode mode, DeltaLog* log) {
    ivm_mode_ = mode;
    delta_log_ = log;
  }
  IvmMode ivm_mode() const { return ivm_mode_; }

  // NailEvaluator:
  Result<Relation*> EnsureNail(TermId storage_name, uint32_t arity) override;
  Status EnsureAllNail() override;
  bool evaluating() const override { return evaluating_; }
  Status CheckEdbInsert(TermId name, uint32_t arity) const override {
    return program_.CheckEdbInsert(*pool_, name, arity);
  }

  /// Number of refreshes performed, full or delta (for tests/benches).
  uint64_t refresh_count() const { return refresh_count_; }
  /// Fixpoint iterations across refreshes (direct/naive modes).
  uint64_t iteration_count() const { return iteration_count_; }
  /// Mid-fixpoint replans of iterate bodies triggered by observed delta
  /// sizes drifting from what the plans were costed against. Atomic so
  /// query observability can sample it before taking the engine lock.
  uint64_t replan_count() const {
    return replan_count_.load(std::memory_order_relaxed);
  }

  /// Refreshes served from captured deltas (DRed) vs. full
  /// recomputations, and fulls that ran *despite* a usable-looking delta
  /// (dropped/oversized/structurally unsupported). Atomics: sampled by
  /// metrics scrapes and query observability without the engine lock.
  uint64_t delta_refresh_count() const {
    return delta_refresh_count_.load(std::memory_order_relaxed);
  }
  uint64_t full_refresh_count() const {
    return full_refresh_count_.load(std::memory_order_relaxed);
  }
  uint64_t ivm_fallback_count() const {
    return ivm_fallback_count_.load(std::memory_order_relaxed);
  }
  /// Cumulative EDB delta rows consumed / memo rows patched by delta
  /// refreshes.
  uint64_t ivm_delta_rows_in() const {
    return ivm_rows_in_.load(std::memory_order_relaxed);
  }
  uint64_t ivm_delta_rows_out() const {
    return ivm_rows_out_.load(std::memory_order_relaxed);
  }
  /// Cumulative rows copied into old-state overrides by delta refreshes
  /// (NailRefreshInfo::old_state_rows).
  uint64_t ivm_old_state_rows() const {
    return ivm_old_state_rows_.load(std::memory_order_relaxed);
  }
  /// Registers the gluenail_nail_* pulls over the counters of the engine
  /// in \p slot, read at export time (an empty slot reads as zero). The
  /// slot must outlive \p registry.
  static void RegisterMetrics(MetricsRegistry* registry,
                              const std::unique_ptr<NailEngine>* slot);
  /// Copy of the last refresh's outcome (internally mutexed — safe to
  /// call while another thread holds the engine lock and refreshes).
  NailRefreshInfo last_refresh() const {
    std::lock_guard<std::mutex> lock(info_mu_);
    return last_refresh_;
  }

 private:
  Status Refresh();
  Status RefreshDirect();
  Status RefreshNaive();
  Status RefreshCompiled();
  /// Publishes the instances of parameterized predicates.
  Status Publish();
  /// Runs SCC \p s's semi-naive fixpoint loop (deltas already seeded by
  /// the caller: init statements for a full refresh, captured/derived
  /// deltas for an incremental one). The one serial fixpoint loop of the
  /// direct mode, shared by RefreshDirect and DRed's insertion phase.
  Status RunSccFixpoint(size_t s);
  Status ClearIdb();

  NailProgram program_;
  Database* edb_;
  Database* idb_;
  TermPool* pool_;
  Executor* exec_ = nullptr;
  NailMode mode_ = NailMode::kDirect;
  int driver_proc_ = -1;

  /// Per-SCC compiled plans (direct/naive modes).
  struct SccPlans {
    std::vector<StatementPlan> init;
    std::vector<StatementPlan> iterate;
    /// Naive mode: the original rules over full relations, delta-free.
    std::vector<StatementPlan> naive;
    /// The iterate statements' ASTs, kept so the fixpoint can replan them
    /// against observed delta cardinalities (feedback loop).
    std::vector<ast::Assignment> iterate_asts;
    /// Total delta rows the iterate plans were last costed against.
    uint64_t last_planned_delta = 0;
  };
  std::vector<SccPlans> scc_plans_;
  std::unique_ptr<Scope> nail_scope_;

  /// Sum of delta relation sizes for one SCC (the iterate plans' input).
  uint64_t SccDeltaRows(const std::vector<int>& preds) const;
  /// Replans the SCC's iterate statements when the observed delta volume
  /// has drifted >= 8x from what they were costed against.
  Status MaybeReplanScc(SccPlans* plans, const std::vector<int>& preds);

  /// Planner configuration captured by CompileDirect for replans.
  PlannerOptions planner_opts_;
  const StatsProvider* stats_ = nullptr;

  bool valid_ = false;
  bool evaluating_ = false;
  uint64_t refresh_count_ = 0;
  uint64_t iteration_count_ = 0;
  std::atomic<uint64_t> replan_count_{0};

  // ---- Incremental view maintenance (src/nail/ivm.cc) ----------------

  /// One rule compiled for delta maintenance: the flattened head columns
  /// (HiLog params ++ args), its atom positions, and its plans.
  struct IvmRule {
    int pred = -1;  ///< index into program_.preds
    std::vector<ast::Term> head_cols;
    /// A positive body atom over a NAIL! memo or EDB relation. Delta
    /// variants rotate one of these to the front, redirected to the
    /// reserved name `scope_name` (read-overridden to a delta relation at
    /// run time). `nail_pred` >= 0 when the position reads a memo.
    struct Pos {
      size_t index = 0;
      TermId rel = kNullTerm;
      uint32_t arity = 0;
      int nail_pred = -1;
      TermId scope_name = kNullTerm;

      Store store() const { return nail_pred >= 0 ? Store::kIdb : Store::kEdb; }
      uint64_t key() const { return StoredRelationKey(store(), rel, arity); }
    };
    std::vector<Pos> positions;
    /// Negated atoms (rel/arity only), for the
    /// negation-over-changed-relation fallback check.
    std::vector<Pos> negations;
    /// Per entry of `positions`: the body with that position first reading
    /// its reserved name, planned with reordering off (delta-proportional
    /// cost), under a synthetic head over head_cols, run body-only.
    std::vector<StatementPlan> delta_plans;
    /// DRed rederivation: the per-pred deletion set prepended to the
    /// original body (semi-join on the head variables), head = head_cols.
    StatementPlan rederive;
  };

  /// Per-refresh working state (net change map, scratch executors, union
  /// overrides); defined in ivm.cc.
  struct IvmCtx;

  Status EnsureIvmPlans();
  /// Attempts a delta refresh; *done=true iff the memos now match the live
  /// EDB and published instances are patched. On *done=false (structural
  /// fallback recorded in info->fallback) the caller runs the full path.
  Status RefreshIncremental(NailRefreshInfo* info, bool* done);
  /// DRed for SCC \p s, recursive or not. Records the SCC's own net memo
  /// delta in the ctx change map for downstream SCCs; an error status
  /// requests whole-refresh fallback.
  Status RefreshSccDred(size_t s, IvmCtx* ctx);

  IvmMode ivm_mode_ = IvmMode::kOff;
  DeltaLog* delta_log_ = nullptr;
  bool ivm_plans_ready_ = false;
  bool ivm_program_capable_ = false;
  /// Parallel to program_.rules.
  std::vector<IvmRule> ivm_rules_;
  /// Reserved deletion-set names, parallel to program_.preds (the
  /// rederive plans' first subgoal, read-overridden per refresh).
  std::vector<TermId> ivm_dset_names_;

  std::atomic<uint64_t> delta_refresh_count_{0};
  std::atomic<uint64_t> full_refresh_count_{0};
  std::atomic<uint64_t> ivm_fallback_count_{0};
  std::atomic<uint64_t> ivm_rows_in_{0};
  std::atomic<uint64_t> ivm_rows_out_{0};
  std::atomic<uint64_t> ivm_old_state_rows_{0};
  mutable std::mutex info_mu_;
  NailRefreshInfo last_refresh_;
};

}  // namespace gluenail

#endif  // GLUENAIL_NAIL_SEMINAIVE_H_
