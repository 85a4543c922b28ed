/// \file batch_runner.h
/// \brief Batch-at-a-time execution of pipelineable op segments.
///
/// BatchRunner is the one implementation of the pipelineable ops: it
/// drives a contiguous segment of kMatch / kNegMatch / kCompare ops over
/// blocks of up to kBatchLanes binding records at once. The executor's one
/// body loop (Executor::RunBody) calls it with single-op segments under
/// the materialized strategy and with each barrier-free run under the
/// pipelined one, so the strategies differ only in where supplementary
/// relations are materialized (§9). Per op it compiles the
/// column patterns into flat check/bind actions once, then runs tight
/// row-id loops:
///
///  * compare and negated match filter their input batch in place
///    (selection vector + compress);
///  * match gathers surviving, extended lanes into a per-op output buffer
///    and pushes a full buffer down the rest of the segment — one emit per
///    batch rather than one per record;
///  * full scans walk the relation one arena chunk at a time, running the
///    lane-independent checks (constants, same-op column equalities) once
///    per chunk instead of once per lane;
///  * structural (compound-term) columns are matched with MatchTerm
///    straight into the pushed copy of the lane, which is dropped again
///    when the match fails;
///  * a dynamic (HiLog) access resolves its relation per lane and runs the
///    same kernels over that one lane — the degenerate batch.
///
/// Per-op actual row counts (EXPLAIN ANALYZE) and the rows-scanned
/// guardrail accounting are exact; tests/vector_exec_test.cc pins them.

#ifndef GLUENAIL_EXEC_VECTOR_BATCH_RUNNER_H_
#define GLUENAIL_EXEC_VECTOR_BATCH_RUNNER_H_

#include <vector>

#include "src/exec/executor.h"
#include "src/exec/vector/batch.h"

namespace gluenail {

/// True for predicate names reserved by the implementation (NAIL! storage
/// and delta relations): hidden from dynamic (HiLog) enumeration.
bool IsInternalPredicateName(const TermPool& pool, TermId name);

class BatchRunner {
 public:
  BatchRunner(Executor* exec, const StatementPlan& plan, Frame* frame)
      : exec_(exec),
        plan_(plan),
        frame_(frame),
        width_(static_cast<uint32_t>(plan.num_slots)),
        states_(plan.ops.size()) {}

  /// Runs plan.ops[begin, end) — no barriers — over every record of \p in,
  /// appending the surviving extended records to \p out, with per-op
  /// actual-rows accounting and guardrail charges. The order of \p out is
  /// batched, not depth-first.
  Status RunSegment(size_t begin, size_t end, const RecordSet& in,
                    RecordSet* out);

 private:
  // --- Compiled per-op state --------------------------------------------

  /// Row column c must equal an interned constant.
  struct ColConst {
    uint32_t col;
    TermId value;
  };
  /// Row column c must equal row column other: a later occurrence of a
  /// variable first bound by an earlier column of the same op (p(X, X)).
  struct ColColEq {
    uint32_t col;
    uint32_t other;
  };
  /// Row column c must equal the lane's slot value (kCheck against a slot
  /// bound before this op).
  struct ColSlotEq {
    uint32_t col;
    int slot;
  };
  /// Row column c binds into the output lane's slot.
  struct ColBind {
    uint32_t col;
    int slot;
  };
  /// Compare operand, pre-classified so the common slot/const fetches skip
  /// expression evaluation. Comparison semantics always go through
  /// EvalCompare (numeric coercion: 1 == 1.0), only the fetch is special-
  /// cased.
  struct Operand {
    enum class Kind : uint8_t { kSlot, kConst, kExpr };
    Kind kind = Kind::kExpr;
    int slot = -1;
    TermId value = kNullTerm;
    ExprId expr = kNoExpr;
  };
  /// Key gather step for probes whose key expressions are all slots or
  /// constants (the overwhelmingly common case).
  struct KeyPart {
    bool is_const;
    TermId value;
    int slot;
  };

  struct OpState {
    bool compiled = false;
    // Match / negmatch column actions, split by what they depend on.
    std::vector<ColConst> const_checks;   // lane-independent
    std::vector<ColColEq> coleq_checks;   // lane-independent
    std::vector<ColSlotEq> slot_checks;   // per lane
    std::vector<ColBind> binds;
    /// Ops with a structural column: every non-constant column, matched
    /// in column order by MatchTerm into the lane (binds, checks and
    /// compound terms alike); the flat actions above then hold only the
    /// constant checks.
    std::vector<uint32_t> struct_cols;
    bool fast_key = false;
    std::vector<KeyPart> key_parts;
    // Compare operands.
    Operand lhs;
    Operand rhs;
    // Scratch, reused across batches.
    std::vector<uint32_t> rows;  // chunk row-id harvest / probe results
    std::vector<uint32_t> sel;   // selection vector (row ids or lane idxs)
    std::vector<uint8_t> row_ok;  // per-row static-check results (negmatch)
    Tuple key;
    Record probe;     // lane copy a structural negation matches into
    LaneBuffer seed;  // one-lane input of a HiLog name enumeration
    /// Gather buffer (kMatch output); at any moment at most one Push per
    /// op is live, fully flushed before it returns.
    LaneBuffer out;
    /// Rows emitted since the last CountOpRows flush: counted in bulk, one
    /// CountOpRows call per op per segment.
    uint64_t emitted = 0;
  };

  void CompileOp(size_t k);
  Operand CompileOperand(ExprId e) const;

  /// True iff \p row passes the op's lane-independent checks.
  bool RowPassesStatic(const OpState& st, const TermId* row) const {
    for (const ColConst& c : st.const_checks) {
      if (row[c.col] != c.value) return false;
    }
    for (const ColColEq& c : st.coleq_checks) {
      if (row[c.col] != row[c.other]) return false;
    }
    return true;
  }
  /// True iff \p row passes the per-lane slot checks.
  bool RowPassesLane(const OpState& st, const TermId* row,
                     const TermId* lane) const {
    for (const ColSlotEq& c : st.slot_checks) {
      if (row[c.col] != lane[c.slot]) return false;
    }
    return true;
  }
  /// Writes \p row's bindings into the lane copy \p ol: the bind columns
  /// of a flat op, or the MatchTerm of every structural-op column. False
  /// iff a structural match fails (\p ol is then partly written).
  bool BindRow(const PlanOp& op, const OpState& st, const TermId* row,
               TermId* ol) const;
  /// Negation's existence test for one row already past the static
  /// checks: the lane checks, then the structural match into a copy.
  bool RowMatchesLane(const PlanOp& op, OpState& st, const TermId* row,
                      const TermId* lane);

  Result<TermId> FetchOperand(const Operand& o, const TermId* lane) const;

  /// Recursive driver: applies op k to \p batch, pushing survivors through
  /// ops (k, end) and materializing final lanes into \p out at k == end.
  Status Push(size_t k, size_t end, LaneBuffer* batch, RecordSet* out);
  /// Counts the lanes of \p ob as op k's output and pushes them onward.
  Status FlushDown(size_t k, size_t end, LaneBuffer* ob, RecordSet* out);

  /// The relation a dynamic (HiLog) access with a bound name reads for
  /// \p lane: the EDB first, then the refreshed IDB; null = empty.
  Result<Relation*> ResolveDynamic(const PlanOp& op, const TermId* lane);

  /// Matches lanes [lo, hi) of \p in against \p rel (null = empty).
  Status RunMatch(const PlanOp& op, OpState& st, Relation* rel,
                  const LaneBuffer& in, size_t lo, size_t hi, size_t k,
                  size_t end, RecordSet* out);
  /// A dynamic match: per lane, the named relation, or every visible
  /// relation whose name matches the op's name pattern.
  Status RunDynamicMatch(const PlanOp& op, OpState& st, const LaneBuffer& in,
                         size_t k, size_t end, RecordSet* out);
  Status RunMatchKeyed(const PlanOp& op, OpState& st, Relation* rel,
                       const LaneBuffer& in, size_t lo, size_t hi, size_t k,
                       size_t end, RecordSet* out);
  Status RunMatchScan(const PlanOp& op, OpState& st, Relation* rel,
                      const LaneBuffer& in, size_t lo, size_t hi, size_t k,
                      size_t end, RecordSet* out);
  Status RunNegMatch(const PlanOp& op, OpState& st, LaneBuffer* batch);
  /// Appends to st.sel the lanes of [lo, hi) with no match in \p rel.
  Status SelectUnmatched(const PlanOp& op, OpState& st, Relation* rel,
                         const LaneBuffer& batch, size_t lo, size_t hi);
  Status RunCompare(const PlanOp& op, OpState& st, LaneBuffer* batch);

  Status BuildKey(const PlanOp& op, OpState& st, const TermId* lane);
  /// The probe of a keyed match or negation: st.key's rows in \p rel,
  /// every visited row charged against the row-scan budget.
  Result<std::span<const uint32_t>> Probe(const PlanOp& op, OpState& st,
                                          Relation* rel);

  Executor* exec_;
  const StatementPlan& plan_;
  Frame* frame_;
  uint32_t width_;
  /// Indexed by op position.
  std::vector<OpState> states_;
  LaneBuffer seed_;
};

}  // namespace gluenail

#endif  // GLUENAIL_EXEC_VECTOR_BATCH_RUNNER_H_
