/// \file eval.h
/// \brief Expression evaluation and pattern matching over binding records.

#ifndef GLUENAIL_EXEC_EVAL_H_
#define GLUENAIL_EXEC_EVAL_H_

#include <span>
#include <vector>

#include "src/common/result.h"
#include "src/exec/bindings.h"
#include "src/plan/plan.h"
#include "src/storage/tuple.h"

namespace gluenail {

/// Evaluates expression \p id of \p plan against \p rec. All slots an
/// expression reads are guaranteed bound by the planner. Takes the record
/// as a span so both representations of a binding record work: a tuple
/// executor's Record (std::vector) and a batch executor's flat lane.
Result<TermId> EvalExpr(const StatementPlan& plan, ExprId id,
                        std::span<const TermId> rec, TermPool* pool);

/// Evaluates \p exprs of \p plan against \p rec, in order, into one
/// tuple: a head tuple, a body update's tuple or a call's input key.
Result<Tuple> EvalTuple(const StatementPlan& plan,
                        const std::vector<ExprId>& exprs,
                        std::span<const TermId> rec, TermPool* pool);

/// Undo log for bindings made while matching; unwound between candidate
/// tuples so one scratch record serves a whole scan.
using BindUndo = std::vector<std::pair<int, TermId>>;

/// Matches \p value against \p node. kBind entries write into \p rec (a
/// Record or a batch lane) and, when \p undo is non-null, log the value
/// they overwrote; the caller unwinds with UnbindAll on failure or after
/// consuming the match. Callers that drop \p rec on failure pass null.
bool MatchTerm(const MatchNode& node, TermId value, const TermPool& pool,
               std::span<TermId> rec, BindUndo* undo);

/// Matches \p tuple column-wise against \p patterns (same length).
bool MatchColumns(const std::vector<MatchNode>& patterns, RowView tuple,
                  const TermPool& pool, std::span<TermId> rec,
                  BindUndo* undo);

/// Reverts the bindings recorded in \p undo (restores previous values).
void UnbindAll(const BindUndo& undo, std::span<TermId> rec);

}  // namespace gluenail

#endif  // GLUENAIL_EXEC_EVAL_H_
