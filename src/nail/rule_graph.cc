#include "src/nail/rule_graph.h"

#include "src/analysis/binding.h"
#include "src/runtime/aggregates.h"

namespace gluenail {

namespace {

TermId MakeStorageName(TermPool* pool, std::string_view kind,
                       const NailPred& pred) {
  std::vector<TermId> args{pool->MakeSymbol(pred.root),
                           pool->MakeInt(pred.params),
                           pool->MakeInt(pred.arity)};
  return pool->MakeCompound(kind, args);
}

}  // namespace

Status NailProgram::CheckEdbInsert(const TermPool& pool, TermId name,
                                   uint32_t arity) const {
  if (empty()) return Status::OK();
  const auto params = static_cast<uint32_t>(pool.Arity(name));
  const TermId root = pool.IsCompound(name) ? pool.Functor(name) : name;
  if (!pool.IsSymbol(root) ||
      FindPred(pool.SymbolName(root), params, arity) < 0) {
    return Status::OK();
  }
  return Status::InvalidArgument(
      StrCat("cannot write ", pool.ToString(name), "/", arity,
             " to the EDB: it is a NAIL! predicate of the loaded program"));
}

Result<NailProgram> BuildNailProgram(std::vector<ast::NailRule> rules,
                                     TermPool* pool) {
  NailProgram prog;
  prog.rules = std::move(rules);

  // Pass 1: predicates from rule heads.
  for (size_t r = 0; r < prog.rules.size(); ++r) {
    const ast::NailRule& rule = prog.rules[r];
    std::string root;
    uint32_t params = 0;
    if (!StaticPredName(rule.head_pred, &root, &params)) {
      return Status::CompileError(
          StrCat("NAIL! rule head must have a static predicate name: ",
                 ast::ToString(rule.head_pred)));
    }
    uint32_t arity = static_cast<uint32_t>(rule.head_args.size());
    int id = prog.FindPred(root, params, arity);
    if (id < 0) {
      NailPred pred;
      pred.root = root;
      pred.params = params;
      pred.arity = arity;
      // A parameterless predicate is stored under its own name; a
      // parameterized one is flattened into a reserved relation.
      pred.storage = params == 0 ? pool->MakeSymbol(root)
                                 : MakeStorageName(pool, "$nail", pred);
      pred.delta_storage = MakeStorageName(pool, "$delta", pred);
      pred.newdelta_storage = MakeStorageName(pool, "$newdelta", pred);
      id = static_cast<int>(prog.preds.size());
      prog.pred_index.emplace(
          PredKey<std::string>{pred.root, pred.params, pred.arity}, id);
      prog.preds.push_back(std::move(pred));
    }
    prog.preds[static_cast<size_t>(id)].rules.push_back(static_cast<int>(r));
  }

  // Pass 2: dependency edges.
  prog.deps.resize(prog.preds.size());
  for (size_t r = 0; r < prog.rules.size(); ++r) {
    const ast::NailRule& rule = prog.rules[r];
    std::string hroot;
    uint32_t hparams = 0;
    StaticPredName(rule.head_pred, &hroot, &hparams);
    int head = prog.FindPred(hroot, hparams,
                             static_cast<uint32_t>(rule.head_args.size()));
    for (const ast::Subgoal& g : rule.body) {
      bool negated = g.kind == ast::SubgoalKind::kNegatedAtom;
      if (g.kind != ast::SubgoalKind::kAtom && !negated) {
        if (g.kind == ast::SubgoalKind::kInsert ||
            g.kind == ast::SubgoalKind::kDelete) {
          return Status::CompileError(
              "NAIL! rules are declarative: no updates allowed");
        }
        if (g.kind == ast::SubgoalKind::kComparison &&
            g.rhs.IsApply() && g.rhs.functor().IsSymbol() &&
            AggKindFromName(g.rhs.functor().name).has_value()) {
          return Status::CompileError(
              "aggregation belongs in Glue, not NAIL! rules (write a Glue "
              "statement over the predicate instead)");
        }
        continue;  // comparisons and group-free builtins: no edges
      }
      std::string root;
      uint32_t params = 0;
      if (StaticPredName(g.pred, &root, &params)) {
        int dep = prog.FindPred(root, params,
                                static_cast<uint32_t>(g.args.size()));
        if (dep >= 0) {
          prog.deps[static_cast<size_t>(head)].emplace_back(dep, negated);
        }
        // Otherwise an EDB relation: no edge.
      } else if (negated) {
        // A dynamic predicate reads the EDB only while a refresh runs, so
        // it adds no edge; negating one is still refused.
        return Status::CompileError(
            StrCat("negated dynamic predicate in NAIL! rule: !",
                   ast::ToString(g.pred), "(...) — its stratum cannot be "
                   "determined"));
      }
    }
  }

  GLUENAIL_RETURN_NOT_OK(Stratify(&prog));
  return prog;
}

}  // namespace gluenail
