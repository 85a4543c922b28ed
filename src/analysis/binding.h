/// \file binding.h
/// \brief Binding-time analysis of subgoals (paper §2, §3.1).
///
/// Because relations hold only ground tuples, the compiler can decide for
/// every variable occurrence whether it is bound at that point ("This
/// restriction is also very important for the code optimizer, because it
/// allows the system to know at compile time when a variable in an
/// assignment statement becomes bound", §2).
///
/// AnalyzeSubgoal classifies one subgoal given the set of already-bound
/// variables: which variables it *requires* bound, which it *binds*,
/// whether it is *fixed* (may not be reordered; pipeline barrier), and how
/// its predicate resolves. The reorderer and the planner both consume this.

#ifndef GLUENAIL_ANALYSIS_BINDING_H_
#define GLUENAIL_ANALYSIS_BINDING_H_

#include <set>
#include <string>
#include <vector>

#include "src/analysis/scope.h"
#include "src/ast/ast.h"
#include "src/common/result.h"

namespace gluenail {

using BoundSet = std::set<std::string>;

struct SubgoalInfo {
  /// Pipeline barrier / unreorderable (paper §3.1).
  bool fixed = false;
  /// Variables that must already be bound for the subgoal to execute.
  std::vector<std::string> required;
  /// Variables newly bound by executing it.
  std::vector<std::string> binds;
  /// Resolved predicate (atom-like subgoals with a static name); nullptr
  /// for comparisons / group_by / dynamic predicates.
  const PredBinding* binding = nullptr;
  /// HiLog: the predicate name contains variables and is dereferenced at
  /// run time.
  bool dynamic_pred = false;
  /// kComparison whose right side is an aggregate call (§3.3).
  bool is_aggregate = false;
};

/// Classifies \p g against \p bound. Structural errors (unknown predicate,
/// arity mismatch, aggregate in a bad position, writes to read-only
/// predicates) surface here. Binding violations do NOT: a subgoal whose
/// `required` set is not covered is simply not schedulable yet — the
/// reorderer uses that, and the planner reports leftover violations with
/// source locations.
Result<SubgoalInfo> AnalyzeSubgoal(const ast::Subgoal& g,
                                   const CompileEnv& env,
                                   const BoundSet& bound);

/// True when every name in \p required is in \p bound.
bool IsSchedulable(const std::vector<std::string>& required,
                   const BoundSet& bound);

/// Variables of a term, helper shared with the planner.
std::vector<std::string> VarsOf(const ast::Term& t);

/// Whether \p t is exactly one variable occurrence.
bool IsSingleVariable(const ast::Term& t);

/// True if \p t contains no wildcards and all its variables are in
/// \p bound — i.e. evaluating it at run time yields a single ground term,
/// so a match on it can be a keyed (indexable) selection.
bool IsFullyBoundPattern(const ast::Term& t, const BoundSet& bound);

/// Interns a ground AST term into the pool. Errors on variables,
/// wildcards, and empty argument lists.
Result<TermId> InternGroundTerm(TermPool* pool, const ast::Term& t);

/// Whether \p t (in predicate position) names its predicate statically:
/// a symbol, or a left-nested application of symbols to ground arguments.
/// Returns the root name and parameter arity when static.
bool StaticPredName(const ast::Term& t, std::string* root_name,
                    uint32_t* param_arity);

/// Collects the HiLog parameter argument terms of a predicate-name chain:
/// for f(a)(B) yields [a, B] in column order.
void CollectPredParams(const ast::Term& pred,
                       std::vector<const ast::Term*>* out);

}  // namespace gluenail

#endif  // GLUENAIL_ANALYSIS_BINDING_H_
