#include "src/analysis/binding.h"

#include <algorithm>

#include "src/runtime/aggregates.h"
#include "src/runtime/string_builtins.h"

namespace gluenail {

namespace {

void AddVars(const ast::Term& t, std::vector<std::string>* out) {
  t.CollectVariables(out);
}

void AddAllVars(const std::vector<ast::Term>& ts,
                std::vector<std::string>* out) {
  for (const ast::Term& t : ts) AddVars(t, out);
}

/// Is this term an aggregate call (min(T), count(X), ...)?
bool IsAggregateCall(const ast::Term& t, AggKind* kind) {
  if (!t.IsApply() || !t.functor().IsSymbol() || t.apply_arity() != 1) {
    return false;
  }
  std::optional<AggKind> k = AggKindFromName(t.functor().name);
  if (!k.has_value()) return false;
  *kind = *k;
  return true;
}

Status LocError(const ast::SourceLoc& loc, std::string_view msg) {
  return Status::CompileError(
      StrCat("line ", loc.line, ", col ", loc.col, ": ", msg));
}

}  // namespace

std::vector<std::string> VarsOf(const ast::Term& t) {
  std::vector<std::string> out;
  t.CollectVariables(&out);
  return out;
}

bool IsSingleVariable(const ast::Term& t) {
  return t.kind == ast::TermKind::kVariable;
}

bool IsFullyBoundPattern(const ast::Term& t, const BoundSet& bound) {
  switch (t.kind) {
    case ast::TermKind::kWildcard:
      return false;
    case ast::TermKind::kVariable:
      return bound.count(t.name) != 0;
    case ast::TermKind::kApply:
      for (const ast::Term& c : t.children) {
        if (!IsFullyBoundPattern(c, bound)) return false;
      }
      return true;
    default:
      return true;
  }
}

bool StaticPredName(const ast::Term& t, std::string* root_name,
                    uint32_t* param_arity) {
  if (t.IsSymbol()) {
    *root_name = t.name;
    *param_arity = 0;
    return true;
  }
  if (t.IsApply()) {
    uint32_t inner = 0;
    if (!StaticPredName(t.functor(), root_name, &inner)) return false;
    *param_arity = inner + static_cast<uint32_t>(t.apply_arity());
    return true;
  }
  return false;
}

void CollectPredParams(const ast::Term& pred,
                       std::vector<const ast::Term*>* out) {
  if (!pred.IsApply()) return;
  CollectPredParams(pred.functor(), out);
  for (size_t i = 0; i < pred.apply_arity(); ++i) {
    out->push_back(&pred.arg(i));
  }
}

Result<TermId> InternGroundTerm(TermPool* pool, const ast::Term& t) {
  switch (t.kind) {
    case ast::TermKind::kInt:
      return pool->MakeInt(t.int_value);
    case ast::TermKind::kFloat:
      return pool->MakeFloat(t.float_value);
    case ast::TermKind::kSymbol:
      return pool->MakeSymbol(t.name);
    case ast::TermKind::kApply: {
      GLUENAIL_ASSIGN_OR_RETURN(TermId f,
                                InternGroundTerm(pool, t.functor()));
      std::vector<TermId> args;
      for (size_t i = 0; i < t.apply_arity(); ++i) {
        GLUENAIL_ASSIGN_OR_RETURN(TermId a, InternGroundTerm(pool, t.arg(i)));
        args.push_back(a);
      }
      if (args.empty()) {
        return LocError(t.loc, "empty argument list in term");
      }
      return pool->MakeCompound(f, args);
    }
    default:
      return LocError(t.loc, "expected a ground term");
  }
}

bool IsSchedulable(const std::vector<std::string>& required,
                   const BoundSet& bound) {
  return std::all_of(required.begin(), required.end(),
                     [&bound](const std::string& v) {
                       return bound.count(v) != 0;
                     });
}

Result<SubgoalInfo> AnalyzeSubgoal(const ast::Subgoal& g,
                                   const CompileEnv& env,
                                   const BoundSet& bound) {
  SubgoalInfo info;
  switch (g.kind) {
    case ast::SubgoalKind::kAtom:
    case ast::SubgoalKind::kNegatedAtom: {
      bool negated = g.kind == ast::SubgoalKind::kNegatedAtom;
      std::string root;
      uint32_t params = 0;
      bool static_name = StaticPredName(g.pred, &root, &params);
      const PredBinding* b =
          static_name ? env.scope->Lookup(root, params,
                                          static_cast<uint32_t>(g.args.size()))
                      : nullptr;
      // A statically named family whose parameters contain variables still
      // resolves statically for NAIL! predicates (flattened storage) but is
      // a run-time dereference otherwise.
      bool pred_has_vars = !VarsOf(g.pred).empty();
      if (b == nullptr) {
        if (static_name && params == 0 && env.implicit_edb) {
          // Ad-hoc mode: unknown plain names are EDB relations.
          info.binding = nullptr;
          info.dynamic_pred = false;
          // Treated as kEdb downstream by the planner (re-resolved there).
        } else if (!pred_has_vars && static_name && params > 0) {
          // A ground HiLog family instance (students(cs99)): an EDB
          // relation named by the compound term. Never declared — HiLog
          // set names refer to relations by value (§5.1).
        } else if (pred_has_vars || !static_name) {
          info.dynamic_pred = true;
        } else {
          return LocError(
              g.loc, StrCat("unresolved predicate '", ast::ToString(g.pred),
                            "/", g.args.size(), "'"));
        }
      } else {
        info.binding = b;
        if (pred_has_vars && b->cls != PredClass::kNail) {
          // e.g. an EDB family instance with variable parameters: resolved
          // per record at run time.
          info.dynamic_pred = true;
          info.binding = nullptr;
        }
      }

      if (info.binding != nullptr &&
          (info.binding->cls == PredClass::kGlueProc ||
           info.binding->cls == PredClass::kHostProc ||
           info.binding->cls == PredClass::kBuiltinProc)) {
        if (negated) {
          return LocError(g.loc, "cannot negate a procedure call");
        }
        const PredBinding& pb = *info.binding;
        if (g.args.size() != pb.arity()) {
          return LocError(g.loc,
                          StrCat("procedure '", root, "' has arity ",
                                 pb.bound_arity, ":", pb.free_arity,
                                 " but is called with ", g.args.size(),
                                 " arguments"));
        }
        info.fixed = pb.fixed;
        for (uint32_t i = 0; i < pb.bound_arity; ++i) {
          AddVars(g.args[i], &info.required);
        }
        for (uint32_t i = pb.bound_arity; i < pb.arity(); ++i) {
          AddVars(g.args[i], &info.binds);
        }
        return info;
      }
      if (info.binding != nullptr &&
          info.binding->cls == PredClass::kReturn) {
        return LocError(g.loc, "the return relation cannot be read");
      }
      // Relation-style access (EDB / local / in / NAIL! / dynamic).
      if (negated) {
        // Safe negation: everything must be bound; wildcards are fine.
        AddVars(g.pred, &info.required);
        AddAllVars(g.args, &info.required);
      } else {
        if (info.dynamic_pred) {
          // Name variables may be bound (direct lookup) or not (the
          // subgoal then enumerates candidate predicates, binding them) —
          // nothing is *required*; unbound name vars are bound by it.
          AddVars(g.pred, &info.binds);
        } else if (info.binding != nullptr &&
                   info.binding->cls == PredClass::kNail) {
          AddVars(g.pred, &info.binds);  // parameter columns
        }
        AddAllVars(g.args, &info.binds);
      }
      return info;
    }

    case ast::SubgoalKind::kComparison: {
      AggKind agg;
      if (IsAggregateCall(g.rhs, &agg)) {
        if (g.cmp != ast::CompareOp::kEq) {
          return LocError(g.loc, "aggregates may only appear in '='");
        }
        if (!IsSingleVariable(g.lhs)) {
          return LocError(
              g.loc, "the left side of 'V = agg(T)' must be a variable");
        }
        info.is_aggregate = true;
        info.fixed = true;  // §3.1: aggregators are fixed subgoals
        AddVars(g.rhs.arg(0), &info.required);
        if (bound.count(g.lhs.name) == 0) {
          info.binds.push_back(g.lhs.name);
        }
        return info;
      }
      AggKind dummy;
      if (IsAggregateCall(g.lhs, &dummy)) {
        return LocError(g.loc,
                        "aggregates must be on the right side of '='");
      }
      if (g.cmp == ast::CompareOp::kEq) {
        bool lv = IsSingleVariable(g.lhs) && bound.count(g.lhs.name) == 0;
        bool rv = IsSingleVariable(g.rhs) && bound.count(g.rhs.name) == 0;
        if (lv && rv) {
          // Unbound = unbound: not schedulable until one side binds.
          AddVars(g.rhs, &info.required);
          info.binds.push_back(g.lhs.name);
          return info;
        }
        if (lv) {
          AddVars(g.rhs, &info.required);
          info.binds.push_back(g.lhs.name);
          return info;
        }
        if (rv) {
          AddVars(g.lhs, &info.required);
          info.binds.push_back(g.rhs.name);
          return info;
        }
      }
      AddVars(g.lhs, &info.required);
      AddVars(g.rhs, &info.required);
      return info;
    }

    case ast::SubgoalKind::kGroupBy: {
      info.fixed = true;
      AddAllVars(g.args, &info.required);
      return info;
    }

    case ast::SubgoalKind::kInsert:
    case ast::SubgoalKind::kDelete: {
      info.fixed = true;
      AddVars(g.pred, &info.required);
      AddAllVars(g.args, &info.required);
      std::string root;
      uint32_t params = 0;
      if (StaticPredName(g.pred, &root, &params) &&
          VarsOf(g.pred).empty()) {
        const PredBinding* b = env.scope->Lookup(
            root, params, static_cast<uint32_t>(g.args.size()));
        if (b == nullptr) {
          // Allowed without a declaration: ad-hoc plain names, and ground
          // HiLog family instances (EDB relations named by compound terms).
          if (!(env.implicit_edb && params == 0) && params == 0) {
            return LocError(g.loc, StrCat("unresolved update target '",
                                          ast::ToString(g.pred), "/",
                                          g.args.size(), "'"));
          }
        } else {
          if (!b->assignable) {
            return LocError(g.loc,
                            StrCat("cannot update ", PredClassName(b->cls),
                                   " '", root, "'"));
          }
          info.binding = b;
        }
      } else {
        info.dynamic_pred = true;
      }
      return info;
    }
  }
  return Status::Internal("unreachable subgoal kind");
}

}  // namespace gluenail
