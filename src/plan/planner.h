/// \file planner.h
/// \brief Compiles AST statements and procedures into plans (plan.h).
///
/// The planner performs, per statement:
///   1. optional subgoal reordering (analysis/reorder.h);
///   2. binding-time analysis left to right (§2, §3.1);
///   3. pattern compilation: fully bound argument columns become keyed
///      selections (index-eligible), the rest become structural match
///      programs — matching, never unification (§2);
///   4. expression compilation for heads, comparisons, and call inputs;
///   5. head planning, including the implicit `in` subgoal of return
///      statements (§4) and uniondiff delta capture (§10).
///
/// Semantics notes (documented in docs/LANGUAGE.md):
///  * body atom arguments match *structurally*: p(X+1) matches tuples whose
///    column is literally the compound '+' (X,1);
///  * head arguments, comparison operands, update arguments, and procedure
///    call inputs are *evaluated*: h(X+1) inserts the sum.

#ifndef GLUENAIL_PLAN_PLANNER_H_
#define GLUENAIL_PLAN_PLANNER_H_

#include "src/analysis/scope.h"
#include "src/ast/ast.h"
#include "src/common/result.h"
#include "src/plan/plan.h"

namespace gluenail {

struct PlannerOptions {
  /// Reorder non-fixed subgoals (§3.1). Off = paper's "naive" baseline,
  /// used by bench E8.
  bool reorder = true;

  /// How the physical phase ranks subgoals within a segment.
  enum class CostModel {
    /// The original syntactic heuristic (analysis/reorder.h): filters
    /// first, then matches by bound-column count. Kept selectable for A/B
    /// comparison and for tests that pin the heuristic's order.
    kSyntactic,
    /// Cardinality-driven: greedily minimize estimated output rows using
    /// relation statistics (storage/stats.h) from CompileEnv::stats.
    kStatistics,
  };
  CostModel cost_model = CostModel::kStatistics;
};

/// Compiles one assignment statement.
Result<StatementPlan> PlanAssignment(const ast::Assignment& a,
                                     const CompileEnv& env,
                                     const PlannerOptions& opts);

/// Compiles a loop condition. \p site_counter numbers `unchanged` sites
/// within the enclosing procedure.
Result<CondPlan> PlanUntilCond(const ast::UntilCond& c, const CompileEnv& env,
                               int* site_counter);

/// Compiles a whole procedure body against \p module_scope. The caller
/// supplies the procedure's position-independent metadata (module name,
/// table index is implied by where the result is stored) and the
/// transitively computed fixed flag.
Result<CompiledProcedure> CompileProcedureAst(const ast::Procedure& p,
                                              const Scope& module_scope,
                                              TermPool* pool,
                                              std::string module_name,
                                              bool fixed,
                                              const PlannerOptions& opts,
                                              bool implicit_edb = false,
                                              const StatsProvider* stats =
                                                  nullptr);

}  // namespace gluenail

#endif  // GLUENAIL_PLAN_PLANNER_H_
