/// \file magic.h
/// \brief Magic-set rewriting for bound NAIL! queries (experiment E7).
///
/// Paper §8.2 on CORAL's Magic Templates: "It remains to be seen whether
/// the extra power provided by magic templates justifies the increased
/// cost of a database lookup." Glue-Nail keeps relations ground, so the
/// ground-EDB magic-*sets* variant applies without unification; this file
/// implements the classic adornment-driven transformation with a
/// left-to-right sideways-information-passing strategy, letting the
/// benchmarks quantify the trade-off the paper raises.
///
/// Scope: non-parameterized predicates; negation only on EDB relations
/// (negated IDB subgoals are rejected — their magic variant needs extra
/// stratification machinery).

#ifndef GLUENAIL_NAIL_MAGIC_H_
#define GLUENAIL_NAIL_MAGIC_H_

#include <optional>
#include <vector>

#include "src/ast/ast.h"
#include "src/common/result.h"
#include "src/exec/executor.h"
#include "src/storage/database.h"

namespace gluenail {

struct MagicQuery {
  std::string pred;
  /// One entry per column: a constant (bound) or nullopt (free).
  std::vector<std::optional<TermId>> columns;

  uint32_t arity() const { return static_cast<uint32_t>(columns.size()); }
};

struct MagicProgram {
  /// The transformed rule set (adorned originals + magic rules).
  std::vector<ast::NailRule> rules;
  /// Adorned answer predicate, e.g. "path@bf".
  std::string answer_pred;
  /// The magic seed: relation name and the tuple of bound query values.
  std::string seed_pred;
  Tuple seed;
  /// Number of adorned predicates produced (for reporting).
  size_t adorned_count = 0;
};

/// Rewrites \p rules for \p query.
Result<MagicProgram> MagicTransform(const std::vector<ast::NailRule>& rules,
                                    const MagicQuery& query, TermPool* pool);

/// Convenience evaluator: transforms, evaluates the transformed program
/// semi-naively against \p edb (plus the seed), and returns the matching
/// answer tuples (full query arity, sorted). \p edb is not modified.
/// Evaluation writes only a private scratch IDB, so concurrent reader
/// sessions pass StorageAccess::kPrivateIdb and the shared EDB is never
/// mutated. \p control guards the evaluation (null: unguarded).
Result<std::vector<Tuple>> EvaluateWithMagic(
    const std::vector<ast::NailRule>& rules, const MagicQuery& query,
    Database* edb, TermPool* pool, const ExecOptions& exec_opts = {},
    StorageAccess access = StorageAccess::kReadWrite,
    ExecControl* control = nullptr);

/// Baseline for the same entry point: evaluates \p rules without the
/// transformation and filters the query predicate on the bound columns.
Result<std::vector<Tuple>> EvaluateWithoutMagic(
    const std::vector<ast::NailRule>& rules, const MagicQuery& query,
    Database* edb, TermPool* pool);

}  // namespace gluenail

#endif  // GLUENAIL_NAIL_MAGIC_H_
