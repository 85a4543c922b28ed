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

#include <functional>
#include <string>
#include <string_view>
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

/// A predicate's identity (root, params, arity) as a pred_index key. The
/// map owns its roots (Root = std::string); FindPred looks up with a key
/// that views its root (std::string_view), so a lookup allocates nothing.
template <typename Root>
struct PredKey {
  Root root;
  uint32_t params = 0;
  uint32_t arity = 0;
};

struct PredKeyHash {
  using is_transparent = void;
  template <typename Root>
  size_t operator()(const PredKey<Root>& k) const {
    return HashCombine(
        HashCombine(std::hash<std::string_view>{}(k.root), k.params),
        k.arity);
  }
};

struct PredKeyEq {
  using is_transparent = void;
  template <typename A, typename B>
  bool operator()(const PredKey<A>& a, const PredKey<B>& b) const {
    return a.params == b.params && a.arity == b.arity &&
           std::string_view(a.root) == std::string_view(b.root);
  }
};

struct NailProgram {
  std::vector<ast::NailRule> rules;
  std::vector<NailPred> preds;
  /// (root, params, arity) -> index into preds.
  std::unordered_map<PredKey<std::string>, int, PredKeyHash, PredKeyEq>
      pred_index;
  /// deps[p] = (q, negated): p's rules read q.
  std::vector<std::vector<std::pair<int, bool>>> deps;
  /// SCCs in evaluation (topological) order; filled by Stratify.
  std::vector<std::vector<int>> scc_order;
  std::vector<bool> scc_recursive;

  int FindPred(std::string_view root, uint32_t params, uint32_t arity) const {
    auto it = pred_index.find(PredKey<std::string_view>{root, params, arity});
    return it == pred_index.end() ? -1 : it->second;
  }

  /// The one rule for EDB rows under a NAIL! name: InvalidArgument if the
  /// relation \p name / \p arity is one of these predicates (a symbol p
  /// names p/0/arity, a compound f(p1..pk) f/k/arity), else OK. A NAIL!
  /// predicate's rows are derived, never stored, and an EDB row under its
  /// name would answer a dynamic read the memo contradicts. Every EDB
  /// insert path asks before it writes (Engine::Commit for batches and
  /// loads, the executor for dynamic HiLog statement writes); erases never
  /// ask, so rows stored before the program loaded can be removed.
  Status CheckEdbInsert(const TermPool& pool, TermId name,
                        uint32_t arity) const;

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
