/// \file plan.h
/// \brief The compiled representation of Glue code: the virtual machine's
/// instruction set.
///
/// The original system compiled Glue into code for "a small virtual
/// machine" (paper §9). Here a statement body compiles to a sequence of
/// PlanOps over the statement's variable slots; conceptually op i computes
/// supplementary relation sup_i from sup_{i-1} (§3.2). One executor loop
/// (Executor::RunBody) interprets the plan under both strategies:
/// materialized realizes every sup_i; pipelined fuses runs of non-fixed
/// ops and breaks at fixed ones exactly as §9 describes.
///
/// Procedures compile to a small control program (CInstr): straight-line
/// statement execution plus repeat/until loops.

#ifndef GLUENAIL_PLAN_PLAN_H_
#define GLUENAIL_PLAN_PLAN_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/ast/ast.h"
#include "src/runtime/aggregates.h"
#include "src/storage/index.h"
#include "src/term/term_pool.h"

namespace gluenail {

// ---------------------------------------------------------------------------
// Expressions
// ---------------------------------------------------------------------------

/// Index into StatementPlan::exprs.
using ExprId = int32_t;
inline constexpr ExprId kNoExpr = -1;

enum class ExprKind : uint8_t {
  kConst,     ///< interned ground term
  kSlot,      ///< value of a bound variable slot
  kArith,     ///< binary + - * / mod (runtime/arith.h)
  kNegate,    ///< unary minus
  kStringOp,  ///< concat / length / substring (runtime/string_builtins.h)
  kBuild,     ///< construct a compound term: children[0] functor, rest args
};

struct ExprNode {
  ExprKind kind = ExprKind::kConst;
  TermId const_term = kNullTerm;
  int slot = -1;
  /// Operator name for kArith/kStringOp.
  std::string op;
  std::vector<ExprId> children;
};

// ---------------------------------------------------------------------------
// Patterns
// ---------------------------------------------------------------------------

/// Compiled structural pattern, matched against a ground term. Binding vs
/// checking is decided at compile time from binding analysis (possible
/// because relations hold only ground tuples — paper §2: matching, never
/// unification).
struct MatchNode {
  enum class Kind : uint8_t {
    kWildcard,  ///< matches anything
    kConst,     ///< equals an interned term
    kBind,      ///< first occurrence of a variable: store into slot
    kCheck,     ///< later occurrence: term-equal to slot value
    kStruct,    ///< compound: children[0] matches the functor, rest args
  };
  Kind kind = Kind::kWildcard;
  TermId const_term = kNullTerm;
  int slot = -1;
  std::vector<MatchNode> children;
};

// ---------------------------------------------------------------------------
// Predicate access paths
// ---------------------------------------------------------------------------

/// How an op reaches the tuples of a predicate at run time.
struct PredicateAccess {
  enum class Kind : uint8_t {
    kNone,
    kEdb,      ///< EDB relation with a compile-time-ground name
    kLocal,    ///< frame-local relation (paper §4) by index
    kIn,       ///< the frame's `in` relation
    kReturn,   ///< the frame's `return` relation (heads only)
    kNail,     ///< NAIL! predicate: flattened storage relation in the IDB
    kDynamic,  ///< HiLog: name computed per record, looked up at run time
  };
  Kind kind = Kind::kNone;
  /// Ground relation name (kEdb / kNail).
  TermId name = kNullTerm;
  uint32_t arity = 0;
  /// Frame-local index (kLocal).
  int local_index = -1;
  /// Name expression (kDynamic with a fully bound name), evaluated per
  /// record.
  ExprId name_expr = kNoExpr;
  /// kDynamic with unbound name variables: index into
  /// StatementPlan::name_patterns; the op enumerates candidate predicates
  /// of matching arity and matches their name term against this pattern,
  /// binding the name variables (HiLog, §5).
  int name_pattern_index = -1;
  /// kNail: number of HiLog parameter columns prepended to the flattened
  /// storage relation (students(ID)(S) stores as 2 columns: ID, S).
  uint32_t nail_params = 0;
};

// ---------------------------------------------------------------------------
// Ops
// ---------------------------------------------------------------------------

enum class OpKind : uint8_t {
  kMatch,     ///< join the sup with a predicate's tuples
  kNegMatch,  ///< filter records with no matching tuple
  kCompare,   ///< comparison / binding-equality over expressions
  kAggregate, ///< aggregate over the sup (or each group), §3.3
  kGroupBy,   ///< partition the sup, §3.3.1
  kCall,      ///< Glue / host / builtin procedure call, §4
  kUpdate,    ///< per-record ++p / --p body update
};

enum class CalleeKind : uint8_t { kGlueProc, kHost, kBuiltin };

struct PlanOp {
  OpKind kind = OpKind::kMatch;
  /// Fixed ops are pipeline barriers and cannot be reordered (§3.1, §9).
  bool fixed = false;
  ast::SourceLoc loc;

  /// Physical-planner annotation: estimated rows flowing out of this op
  /// (-1 = no estimate was computed). Rendered by EXPLAIN ANALYZE against
  /// the executors' actual per-op row counts.
  double est_rows = -1;
  /// Physical-planner decision: build the index for bound_mask before the
  /// first probe because the cost model says it pays for itself (§10
  /// adaptive policy folded into planning; the runtime policy remains the
  /// fallback when this is false).
  bool build_index = false;

  // -- kMatch / kNegMatch / kUpdate: the relation being read or written.
  PredicateAccess access;
  /// Columns whose pattern is fully bound at this point; such columns form
  /// the selection key (index-eligible; adaptive policy applies).
  ColumnMask bound_mask = 0;
  /// One key expression per bound column, in ascending column order.
  std::vector<ExprId> key_exprs;
  /// One pattern per column; bound columns hold kWildcard (already
  /// filtered by the key).
  std::vector<MatchNode> col_patterns;

  // -- kCompare / kAggregate result handling.
  ExprId lhs = kNoExpr;
  ExprId rhs = kNoExpr;
  ast::CompareOp cmp = ast::CompareOp::kEq;
  /// For Eq with an unbound single-variable side: the slot it binds
  /// (-1 => pure filter).
  int bind_slot = -1;

  // -- kAggregate.
  AggKind agg = AggKind::kCount;
  ExprId agg_arg = kNoExpr;

  // -- kGroupBy.
  std::vector<int> group_slots;

  // -- kCall.
  CalleeKind callee = CalleeKind::kGlueProc;
  /// Procedure table index / host table index / BuiltinProc value.
  int callee_index = -1;
  uint32_t callee_bound_arity = 0;
  uint32_t callee_free_arity = 0;
  /// Bound-argument expressions (evaluated per record, projected, deduped
  /// into the single input relation — call-once semantics, §4).
  std::vector<ExprId> call_in_exprs;
  /// Patterns for the free result columns.
  std::vector<MatchNode> call_out_patterns;

  // -- kUpdate.
  bool update_insert = false;
  std::vector<ExprId> update_exprs;
};

// ---------------------------------------------------------------------------
// Heads and statements
// ---------------------------------------------------------------------------

struct HeadPlan {
  PredicateAccess access;
  ast::AssignOp op = ast::AssignOp::kClear;
  /// Head columns that form the update key for +=[Z...].
  ColumnMask modify_mask = 0;
  /// One expression per head column.
  std::vector<ExprId> arg_exprs;
  /// kNone unless this statement captures its inserted tuples (uniondiff).
  PredicateAccess delta_access;
  /// Assigning to `return` exits the procedure (§4).
  bool is_return = false;
};

struct StatementPlan {
  int num_slots = 0;
  /// Slot index -> variable name, for diagnostics and query answers.
  std::vector<std::string> slot_names;
  std::vector<ExprNode> exprs;
  std::vector<PlanOp> ops;
  /// Patterns referenced by PredicateAccess::name_pattern_index.
  std::vector<MatchNode> name_patterns;
  HeadPlan head;
  ast::SourceLoc loc;
};

// ---------------------------------------------------------------------------
// Loop conditions and procedure control
// ---------------------------------------------------------------------------

struct CondPlan {
  ast::UntilCond::Kind kind = ast::UntilCond::Kind::kNonEmpty;
  /// Leaf tests: the relation and a (binding-free) pattern per column.
  PredicateAccess access;
  std::vector<MatchNode> patterns;
  /// For kUnchanged: index into the frame's per-site version table.
  int unchanged_site = -1;
  std::vector<CondPlan> children;
};

struct CInstr {
  enum class Kind : uint8_t { kExec, kLoop };
  Kind kind = Kind::kExec;
  /// kExec: index into CompiledProcedure::plans.
  int plan_index = -1;
  /// kLoop.
  std::vector<CInstr> body;
  CondPlan cond;
};

struct CompiledProcedure {
  std::string module;
  std::string name;
  uint32_t bound_arity = 0;
  uint32_t free_arity = 0;
  /// Local relation declarations: (name, arity). Each invocation gets
  /// fresh instances (paper §4).
  std::vector<std::pair<std::string, uint32_t>> locals;
  std::vector<StatementPlan> plans;
  std::vector<CInstr> code;
  /// True if any statement contains a fixed subgoal (transitively), §3.1.
  bool fixed = false;
  int num_unchanged_sites = 0;
  /// Generated procedures (NAIL! strata) are hidden from exports.
  bool generated = false;

  uint32_t arity() const { return bound_arity + free_arity; }
};

/// A fully linked program: every procedure of every module, compiled.
struct CompiledProgram {
  std::vector<CompiledProcedure> procedures;
  /// "module.name/arity" -> index.
  std::unordered_map<std::string, int> proc_by_qualified;
  /// "name/arity" -> index for exported procedures (unique names enforced
  /// at link time).
  std::unordered_map<std::string, int> proc_by_export;
};

}  // namespace gluenail

#endif  // GLUENAIL_PLAN_PLAN_H_
