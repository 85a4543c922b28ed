/// \file executor.h
/// \brief Plan interpretation: procedures, statements, loops.
///
/// Two statement execution strategies, selected by ExecOptions::strategy:
///  * kMaterialized — realizes every supplementary relation sup_i (§3.2);
///  * kPipelined — fuses runs of pipelineable ops and breaks
///    (materializes) at aggregates, group_by, procedure calls, and body
///    updates, optionally eliminating duplicates at each break ("removing
///    duplicates early has always been advantageous", §9).
///
/// The strategies differ only in where they materialize: one body loop
/// (RunBody) runs both, handing every match, negation and comparison to
/// the one batch runner (exec/vector/batch_runner.h) in segments of one
/// op under kMaterialized and of a whole barrier-free run under
/// kPipelined. tests/strategies_property_test.cc holds them equal.

#ifndef GLUENAIL_EXEC_EXECUTOR_H_
#define GLUENAIL_EXEC_EXECUTOR_H_

#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/common/deadline.h"
#include "src/common/result.h"
#include "src/exec/bindings.h"
#include "src/exec/eval.h"
#include "src/exec/frame.h"
#include "src/plan/plan.h"
#include "src/runtime/io.h"
#include "src/storage/database.h"

namespace gluenail {

class MetricsRegistry;

/// The caller's execution choices. Every executor the engine builds,
/// internal ones included, starts from EngineOptions::exec.
struct ExecOptions {
  enum class Strategy { kMaterialized, kPipelined };
  Strategy strategy = Strategy::kPipelined;
  /// Eliminate duplicate binding records at every materialization point
  /// (§9). Turning this off is the bench E2 baseline.
  bool dedup_at_breaks = true;
  /// Recursion guard for Glue procedure calls.
  int max_call_depth = 512;
  /// Guard against non-terminating repeat loops.
  uint64_t max_loop_iterations = 10'000'000;
};

/// What an executor may write, fixed when it is built.
enum class StorageAccess {
  /// The writer path: every relation, index builds, adaptive statistics.
  kReadWrite,
  /// Concurrent session reads and the passes of delta maintenance: keyed
  /// selections never build indexes or touch adaptive statistics, NAIL!
  /// reads assume the IDB is already fresh, and a statement that writes
  /// a shared relation fails with a runtime error.
  kReadOnly,
  /// Magic-sets evaluation under a shared reader: as kReadOnly, except
  /// that the executor's IDB is a private scratch database, so NAIL!
  /// writes and refreshes stay allowed.
  kPrivateIdb,
};

/// Run-time counters surfaced through Engine::stats().
struct ExecStats {
  uint64_t statements = 0;
  uint64_t records_produced = 0;
  uint64_t pipeline_breaks = 0;
  uint64_t duplicates_removed = 0;
  uint64_t proc_calls = 0;
  uint64_t host_calls = 0;
  uint64_t builtin_calls = 0;
  uint64_t loop_iterations = 0;
  uint64_t head_tuples = 0;
  uint64_t nail_refreshes = 0;
  /// Full guardrail checks performed (cancel/deadline/budget probes).
  uint64_t control_checks = 0;
  /// Rows visited answering matches: full-scan rows plus index
  /// probe-chain rows — the quantity ResourceLimits::max_rows_scanned
  /// bounds per query.
  uint64_t rows_scanned = 0;
  /// Batch-runner segments run and the binding records that entered them
  /// (one segment per op under kMaterialized, per barrier-free run under
  /// kPipelined).
  uint64_t batch_segments = 0;
  uint64_t batch_rows = 0;

  // Per-op-kind rows produced ("actual_rows"): every record an op emits —
  // or, for barrier ops, the size of the record set it leaves behind — is
  // counted against its kind. EXPLAIN ANALYZE renders the per-op
  // breakdown; these aggregates make plan behavior visible in stats().
  uint64_t match_rows = 0;
  uint64_t negmatch_rows = 0;
  uint64_t compare_rows = 0;
  uint64_t aggregate_rows = 0;
  uint64_t groupby_rows = 0;
  uint64_t call_rows = 0;
  uint64_t update_rows = 0;
};

/// Interface to the NAIL! engine (implemented in src/nail/seminaive.cc).
/// Keeps exec below nail in the layering.
class NailEvaluator {
 public:
  virtual ~NailEvaluator() = default;
  /// Brings the flattened storage relation \p storage_name up to date with
  /// the current EDB and returns it (lives in the IDB database).
  virtual Result<Relation*> EnsureNail(TermId storage_name,
                                       uint32_t arity) = 0;
  /// Refreshes every NAIL! memo (each readable by its own name) and the
  /// published instances of parameterized predicates — needed before a
  /// dynamic dereference reads the IDB by name.
  virtual Status EnsureAllNail() = 0;
  /// True while a refresh runs. Memos are then incomplete, so a dynamic
  /// dereference reads the EDB only.
  virtual bool evaluating() const = 0;
  /// The linked program's rule for an EDB insert under \p name / \p arity
  /// (NailProgram::CheckEdbInsert): a dynamic HiLog write asks it first.
  virtual Status CheckEdbInsert(TermId name, uint32_t arity) const = 0;
};

/// Everything the executor reaches outside the plan: streams, host
/// procedures, the NAIL! engine. All pointers are borrowed.
struct RuntimeEnv {
  IoEnv io;
  const std::vector<HostProcedure>* hosts = nullptr;
  NailEvaluator* nail = nullptr;
};

class Executor {
 public:
  Executor(const CompiledProgram* program, Database* edb, Database* idb,
           TermPool* pool, RuntimeEnv env, ExecOptions options,
           StorageAccess access = StorageAccess::kReadWrite)
      : program_(program),
        edb_(edb),
        idb_(idb),
        pool_(pool),
        env_(env),
        options_(options),
        access_(access) {}

  /// Calls procedure \p index once on the whole \p input relation (§4) and
  /// copies its return relation into \p output.
  Status CallProcedureByIndex(int index, const Relation& input,
                              Relation* output);

  /// Executes one statement plan in \p frame (which supplies locals and
  /// in/return for procedure statements; a proc-less Frame works for
  /// ad-hoc statements).
  Status ExecuteStatementPlan(const StatementPlan& plan, Frame* frame);

  /// Evaluates only the body, leaving the head unapplied: ad-hoc queries
  /// read the final supplementary relation without touching any relation.
  /// \p params fill slots 0..n-1 of the first record (the parameters of a
  /// plan compiled with CompileEnv::parameters).
  Status ExecuteBodyOnly(const StatementPlan& plan, Frame* frame,
                         RecordSet* final_sup,
                         std::span<const TermId> params = {});

  /// Runs \p plan body-only in a procedure-less frame and hands each
  /// binding record's head tuple to \p f: the answers of an ad-hoc query
  /// and the derivations of every delta-maintenance pass.
  template <typename F>
  Status RunPlanHeads(const StatementPlan& plan, F&& f) {
    return RunPlanHeads(plan, {}, std::forward<F>(f));
  }

  /// RunPlanHeads for a parameterized plan, with \p params in its slots
  /// 0..n-1.
  template <typename F>
  Status RunPlanHeads(const StatementPlan& plan,
                      std::span<const TermId> params, F&& f) {
    Frame frame(nullptr);
    RecordSet sup;
    GLUENAIL_RETURN_NOT_OK(ExecuteBodyOnly(plan, &frame, &sup, params));
    for (const Record& rec : sup.records) {
      GLUENAIL_ASSIGN_OR_RETURN(
          Tuple t, EvalTuple(plan, plan.head.arg_exprs, rec, pool_));
      f(std::move(t));
    }
    return Status::OK();
  }

  /// Redirects the I/O builtins (tests and examples script stdin/stdout).
  void set_io(const IoEnv& io) { env_.io = io; }

  /// Substitutes the relation read for the stored relation (\p store,
  /// \p name, \p arity) — delta maintenance points a rule position's
  /// reserved name at a delta.
  void AddReadOverride(Store store, TermId name, uint32_t arity,
                       Relation* rel) {
    read_overrides_[StoredRelationKey(store, name, arity)] = rel;
  }

  /// The stored relation a kEdb or kNail \p access reads, after read
  /// overrides and without refreshing any memo; nullptr when it does not
  /// exist.
  Relation* FindStored(const PredicateAccess& access) const;

  const CompiledProgram* program() const { return program_; }

  /// Evaluates a loop condition.
  Result<bool> EvalCond(const CondPlan& cond, Frame* frame);

  /// Runs a compiled instruction block (statements and loops).
  Status ExecBlock(const std::vector<CInstr>& code,
                   const CompiledProcedure& proc, Frame* frame);

  ExecStats& stats() { return stats_; }
  const ExecStats& stats() const { return stats_; }
  /// Registers the gluenail_exec_* pulls over the stats of the executor
  /// in \p slot, read at export time (an empty slot reads as zero). The
  /// slot must outlive \p registry.
  static void RegisterMetrics(MetricsRegistry* registry,
                              const std::unique_ptr<Executor>* slot);
  const ExecOptions& options() const { return options_; }

  // --- Per-op profiling (EXPLAIN ANALYZE) --------------------------------

  /// Starts collecting per-op actual row counts for \p plan (zeroing any
  /// previous profile). The plan pointer must stay valid while profiled.
  void EnableOpProfile(const StatementPlan* plan) {
    op_profiles_[plan].assign(plan->ops.size(), 0);
  }
  /// The collected actual rows per op index, or nullptr if not profiled.
  const std::vector<uint64_t>* OpProfile(const StatementPlan* plan) const {
    auto it = op_profiles_.find(plan);
    return it == op_profiles_.end() ? nullptr : &it->second;
  }
  /// Drops one plan's profile (callers that enabled profiling for the
  /// lifetime of a short-lived plan must drop it before the plan dies).
  void DisableOpProfile(const StatementPlan* plan) {
    op_profiles_.erase(plan);
  }
  /// Accounts \p n rows produced by \p op (which must live in plan.ops).
  /// Called by both strategies for every emitted record and after every
  /// barrier op; the profile branch is one empty-map test in the common
  /// unprofiled case.
  void CountOpRows(const StatementPlan& plan, const PlanOp& op, uint64_t n) {
    switch (op.kind) {
      case OpKind::kMatch: stats_.match_rows += n; break;
      case OpKind::kNegMatch: stats_.negmatch_rows += n; break;
      case OpKind::kCompare: stats_.compare_rows += n; break;
      case OpKind::kAggregate: stats_.aggregate_rows += n; break;
      case OpKind::kGroupBy: stats_.groupby_rows += n; break;
      case OpKind::kCall: stats_.call_rows += n; break;
      case OpKind::kUpdate: stats_.update_rows += n; break;
    }
    if (!op_profiles_.empty()) {
      auto it = op_profiles_.find(&plan);
      if (it != op_profiles_.end()) {
        size_t idx = static_cast<size_t>(&op - plan.ops.data());
        if (idx < it->second.size()) it->second[idx] += n;
      }
    }
  }

  // --- Query guardrails ---------------------------------------------------

  /// Installs (or clears, with nullptr) the guardrails of the query this
  /// executor works for. The control is borrowed and carries the query's
  /// running row total, so every executor that works for one query
  /// (writer, session reader, magic, delta-maintenance passes) charges
  /// the same budget. A long-lived executor is cleared when its query
  /// finishes (see ControlScope below).
  void set_control(ExecControl* control) { control_ = control; }
  /// The active guardrails; null when the query is unguarded.
  ExecControl* control() const { return control_; }

  /// Cheap inner-loop probe: a full cancel/deadline check every 4096th
  /// call, a pointer test otherwise. Row loops that were already charged
  /// for their rows (by a keyed probe) call this per row.
  Status TickControl() {
    if (control_ == nullptr) return Status::OK();
    if ((++control_tick_ & 0xFFF) != 0) return Status::OK();
    ++stats_.control_checks;
    return control_->Check();
  }

  /// Per-batch row accounting. Keyed selections (per probe, scanned or
  /// probe-chain rows), full scans (per chunk) and negation's existence
  /// scans (per lane) all feed one accumulator; a full check — cancel,
  /// deadline, and the row budget — runs once every kRowCheckInterval
  /// accumulated rows, so an overrun is detected within one batch window.
  static constexpr uint64_t kRowCheckInterval = 4096;

  /// Bulk charge for rows a selection or batch visited (scanned rows or
  /// index probe-chain rows) against the query's running total: once a
  /// check interval's worth of rows accumulated (or at once, for an
  /// oversized charge), a full check runs cancel/deadline and the row
  /// budget against everything the query charged so far.
  Status ChargeScanRows(uint64_t n) {
    stats_.rows_scanned += n;
    if (control_ == nullptr) return Status::OK();
    control_->rows_scanned += n;
    control_->rows_unchecked += n;
    if (control_->rows_unchecked < kRowCheckInterval) return Status::OK();
    control_->rows_unchecked = 0;
    ++stats_.control_checks;
    GLUENAIL_RETURN_NOT_OK(control_->Check());
    return control_->CheckRowsScanned(control_->rows_scanned);
  }

  /// Op-boundary check: cancel/deadline plus the tuple budget against the
  /// records materialized so far in the current statement.
  Status CheckControl(uint64_t produced) {
    if (control_ == nullptr) return Status::OK();
    ++stats_.control_checks;
    GLUENAIL_RETURN_NOT_OK(control_->Check());
    return control_->CheckTuples(produced);
  }

  /// Fixpoint-boundary check: cancel/deadline plus both budgets against
  /// the whole materialized IDB. The repeat loops of generated NAIL!
  /// driver procedures and the direct semi-naive evaluator call this once
  /// per iteration, so aborts land within one fixpoint iteration.
  Status CheckStorageBudgets();

 private:
  /// The body loop of both strategies (§3.2, §9): sup_0 = {ε}, then the
  /// ops in order, stopping at the first empty supplementary relation.
  /// Pipelineable ops run as batch-runner segments (one op under
  /// kMaterialized, the whole barrier-free run under kPipelined); a
  /// barrier op materializes the supplementary relation.
  Status RunBody(const StatementPlan& plan, Frame* frame, RecordSet* out,
                 std::span<const TermId> params);

  /// RunBody with an active trace sink: wraps the statement in a span and
  /// emits one child span per op carrying its actual rows (taken from the
  /// op profile, so trace rows and EXPLAIN ANALYZE agree by construction
  /// on both strategies).
  Status RunBodyTraced(const StatementPlan& plan, Frame* frame,
                       RecordSet* final_sup, std::span<const TermId> params);
  /// Display name for op \p idx of \p plan ("op2:match edge").
  std::string OpSpanName(const StatementPlan& plan, size_t idx) const;

  // --- The op runner (vector/batch_runner.cc) ---------------------------
  friend class BatchRunner;

  /// Resolves a static-name relation access for reading. May return
  /// nullptr: the relation does not exist, i.e. it is empty.
  Result<Relation*> ResolveRead(const PredicateAccess& access, Frame* frame);
  /// Resolves for writing, creating EDB/IDB relations on demand. Rejects
  /// shared-relation writes unless the access is kReadWrite, and a dynamic
  /// \p insert under a NAIL! predicate's (name, arity).
  Result<Relation*> ResolveWrite(const PredicateAccess& access, Frame* frame,
                                 TermId dynamic_name, bool insert);

  /// Applies barrier op \p op to the whole supplementary relation \p set.
  Status ApplyBarrier(const StatementPlan& plan, const PlanOp& op,
                      Frame* frame, RecordSet* set);
  Status ApplyAggregate(const StatementPlan& plan, const PlanOp& op,
                        RecordSet* set);
  Status ApplyCall(const StatementPlan& plan, const PlanOp& op,
                   const RecordSet& in, RecordSet* out);
  Status ApplyUpdate(const StatementPlan& plan, const PlanOp& op,
                     Frame* frame, RecordSet* set);

  /// Head application (§3.1 operators; return exit; uniondiff delta).
  Status ApplyHead(const StatementPlan& plan, Frame* frame,
                   const RecordSet& sup);

  /// True when \p op must materialize the supplementary relation (§9).
  static bool IsBarrier(const PlanOp& op) {
    switch (op.kind) {
      case OpKind::kAggregate:
      case OpKind::kGroupBy:
      case OpKind::kCall:
      case OpKind::kUpdate:
        return true;
      default:
        return false;
    }
  }

  const CompiledProgram* program_;
  Database* edb_;
  Database* idb_;
  TermPool* pool_;
  RuntimeEnv env_;
  ExecOptions options_;
  StorageAccess access_;
  ExecStats stats_;
  int call_depth_ = 0;
  ExecControl* control_ = nullptr;
  uint64_t control_tick_ = 0;
  /// StoredRelationKey -> replacement relation for reads
  /// (delta-maintenance deltas).
  std::unordered_map<uint64_t, Relation*> read_overrides_;
  /// Plans under EXPLAIN ANALYZE profiling -> actual rows per op index.
  std::unordered_map<const StatementPlan*, std::vector<uint64_t>>
      op_profiles_;
};

/// Installs a query's control block on \p exec (null: no-op) for one
/// scope. Only for an executor nothing else runs through meanwhile, such
/// as the writer-path executor under the exclusive writer lock.
class ControlScope {
 public:
  ControlScope(Executor* exec, ExecControl* ctl) : exec_(exec) {
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

}  // namespace gluenail

#endif  // GLUENAIL_EXEC_EXECUTOR_H_
