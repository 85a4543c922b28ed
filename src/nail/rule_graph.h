/// \file rule_graph.h
/// \brief NAIL! predicates, rules, and the predicate dependency graph.
///
/// A NAIL! predicate is identified by (root symbol, HiLog parameter arity,
/// argument arity): `path(X,Y)` is path/0/2 and `students(ID)(S)` is
/// students/1/1. A parameterless predicate's memo is the IDB relation
/// named by its root (path/2), so HiLog dereferencing (paper §5) is one
/// database lookup. Parameterized predicates evaluate over a *flattened*
/// storage relation whose columns are the parameters followed by the
/// arguments; after evaluation each instance is *published* as an ordinary
/// relation named by the ground name term (students(cs99)).
///
/// The flattened storage and the semi-naive relations have reserved
/// names: $nail(root, params, arity), $delta(...), $newdelta(...). They
/// are hidden from HiLog enumeration.

#ifndef GLUENAIL_NAIL_RULE_GRAPH_H_
#define GLUENAIL_NAIL_RULE_GRAPH_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "src/ast/ast.h"
#include "src/common/result.h"
#include "src/term/term_pool.h"

namespace gluenail {

struct NailPred {
  std::string root;
  uint32_t params = 0;
  uint32_t arity = 0;
  /// The memo (params + arity columns; the root symbol itself when
  /// params == 0) and the semi-naive delta relations, all in the IDB
  /// database.
  TermId storage = kNullTerm;
  TermId delta_storage = kNullTerm;
  TermId newdelta_storage = kNullTerm;
  /// Rules whose head defines this predicate.
  std::vector<int> rules;
  /// Filled by stratification.
  int scc = -1;

  uint32_t columns() const { return params + arity; }
  std::string Key() const { return StrCat(root, "/", params, "/", arity); }
};

struct NailProgram {
  std::vector<ast::NailRule> rules;
  std::vector<NailPred> preds;
  /// "root/params/arity" -> index into preds.
  std::unordered_map<std::string, int> pred_index;
  /// deps[p] = (q, negated): p's rules read q.
  std::vector<std::vector<std::pair<int, bool>>> deps;
  /// SCCs in evaluation (topological) order; filled by Stratify.
  std::vector<std::vector<int>> scc_order;
  std::vector<bool> scc_recursive;

  int FindPred(const std::string& root, uint32_t params,
               uint32_t arity) const {
    auto it = pred_index.find(StrCat(root, "/", params, "/", arity));
    return it == pred_index.end() ? -1 : it->second;
  }

  bool empty() const { return preds.empty(); }
};

/// Builds predicates and the dependency graph from \p rules. Rule bodies
/// may reference EDB relations (anything that is not a rule head),
/// comparisons, and other NAIL! predicates. Dynamic (variable-named)
/// subgoals read the EDB only while a refresh runs, so they add no edge;
/// negated ones are rejected.
Result<NailProgram> BuildNailProgram(std::vector<ast::NailRule> rules,
                                     TermPool* pool);

/// Computes SCCs and their topological order; rejects programs with
/// negation inside a cycle (not stratified). Fills scc fields.
Status Stratify(NailProgram* program);

}  // namespace gluenail

#endif  // GLUENAIL_NAIL_RULE_GRAPH_H_
