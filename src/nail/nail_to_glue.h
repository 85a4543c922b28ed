/// \file nail_to_glue.h
/// \brief The NAIL!-to-Glue compiler (paper §1: "NAIL! code is compiled
/// into Glue code, simplifying the system design"; §11: "NAIL! code is
/// compiled into Glue procedures; the Glue optimizer runs over all the
/// code").
///
/// Each SCC of the predicate dependency graph becomes semi-naive Glue:
///
///   % initialization: all rules over full relations,
///   % captured deltas seed the loop (uniondiff, §10)
///   p(Cols) += body...                    [delta -> $delta p]
///   repeat
///     $newdelta_p(Cols) -= $newdelta_p(Cols).
///     p(Cols) += body with one recursive subgoal read from $delta_q...
///                                         [delta -> $newdelta p]
///     $delta_p(Cols) := $newdelta_p(Cols).
///   until empty($newdelta_p(_,...)) & ...;
///
/// The same rule-version statements drive the direct (C++-looped)
/// evaluator, so the two modes are differential-testable.

#ifndef GLUENAIL_NAIL_NAIL_TO_GLUE_H_
#define GLUENAIL_NAIL_NAIL_TO_GLUE_H_

#include <vector>

#include "src/analysis/scope.h"
#include "src/nail/rule_graph.h"

namespace gluenail {

/// Declares every NAIL! predicate plus its delta/newdelta relations into
/// \p scope, assignable, so generated statements plan against flattened
/// storage. Delta bindings use the reserved names returned by
/// DeltaScopeName / NewdeltaScopeName.
void DeclareNailScope(const NailProgram& program, Scope* scope);

std::string DeltaScopeName(const NailPred& pred);
std::string NewdeltaScopeName(const NailPred& pred);

/// Flattens the HiLog parameter arguments of a predicate-name chain
/// followed by the subgoal arguments into one column list (the flattened
/// storage layout).
std::vector<ast::Term> FlattenColumns(const ast::Term& pred,
                                      const std::vector<ast::Term>& args);

/// Statements for one SCC, shared by both evaluation modes.
struct SccStatements {
  /// All rules over full relations, deltas captured into $delta.
  std::vector<ast::Assignment> init;
  /// Semi-naive rule versions (one per recursive-subgoal occurrence),
  /// deltas captured into $newdelta. Empty for non-recursive SCCs.
  std::vector<ast::Assignment> iterate;
};

/// Builds the init/iterate statements for SCC \p scc_index.
SccStatements BuildSccStatements(const NailProgram& program, int scc_index);

/// Wraps an SCC into a complete generated Glue procedure (compiled mode):
/// init statements, then the repeat/until loop shown above.
ast::Procedure BuildSccProcedure(const NailProgram& program, int scc_index);

/// Names of the generated procedures.
std::string SccProcedureName(int scc_index);
inline constexpr const char* kNailDriverName = "$nail$eval";

/// The driver procedure: calls every SCC procedure in stratum order.
ast::Procedure BuildDriverProcedure(const NailProgram& program);

}  // namespace gluenail

#endif  // GLUENAIL_NAIL_NAIL_TO_GLUE_H_
