#include "src/plan/planner.h"

#include <functional>
#include <map>

#include "src/analysis/binding.h"
#include "src/common/strings.h"
#include "src/plan/physical.h"
#include "src/runtime/aggregates.h"
#include "src/runtime/io.h"
#include "src/runtime/string_builtins.h"

namespace gluenail {

namespace {

using ast::Term;
using ast::TermKind;

Status LocError(const ast::SourceLoc& loc, std::string_view msg) {
  return Status::CompileError(
      StrCat("line ", loc.line, ", col ", loc.col, ": ", msg));
}

bool IsArithFunctor(const Term& t) {
  if (!t.functor().IsSymbol()) return false;
  const std::string& n = t.functor().name;
  if (t.apply_arity() == 2) {
    return n == "+" || n == "-" || n == "*" || n == "/" || n == "mod";
  }
  return t.apply_arity() == 1 && n == "-";
}

bool IsAggregateFunctor(const Term& t) {
  return t.functor().IsSymbol() && t.apply_arity() == 1 &&
         AggKindFromName(t.functor().name).has_value();
}

class StatementPlanner {
 public:
  StatementPlanner(const CompileEnv& env, const PlannerOptions& opts)
      : env_(env), opts_(opts) {}

  Result<StatementPlan> Plan(const ast::Assignment& a) {
    plan_.loc = a.loc;
    for (const std::string& p : env_.parameters) {
      SlotOf(p);
      bound_.insert(p);
    }

    bool is_return = a.head_pred.IsSymbol() && a.head_pred.name == "return";
    if (is_return) {
      GLUENAIL_RETURN_NOT_OK(PlanImplicitIn(a));
    } else if (a.head_colon >= 0) {
      return LocError(a.loc, "':' in a head is only allowed on return");
    }

    // Physical phase: choose the body order and per-subgoal cardinality
    // estimates (plan/physical.h), then compile each subgoal logically in
    // that order, annotating the op it produced. Each CompileSubgoal call
    // pushes exactly one op.
    GLUENAIL_ASSIGN_OR_RETURN(std::vector<PhysicalChoice> order,
                              PlanBodyOrder(a.body, env_, bound_, opts_));
    for (const PhysicalChoice& choice : order) {
      GLUENAIL_RETURN_NOT_OK(CompileSubgoal(a.body[choice.body_index]));
      PlanOp& op = plan_.ops.back();
      op.est_rows = choice.est_rows;
      // The physical phase predicts bound columns with the same analysis
      // CompileMatch uses; the mask check is a safety net.
      op.build_index = choice.build_index &&
                       (op.kind == OpKind::kMatch ||
                        op.kind == OpKind::kNegMatch) &&
                       op.bound_mask != 0;
    }

    GLUENAIL_RETURN_NOT_OK(PlanHead(a, is_return));

    plan_.num_slots = static_cast<int>(plan_.slot_names.size());
    return std::move(plan_);
  }

 private:
  // --- Slots -------------------------------------------------------------

  int SlotOf(const std::string& name) {
    auto it = slots_.find(name);
    if (it != slots_.end()) return it->second;
    int slot = static_cast<int>(plan_.slot_names.size());
    plan_.slot_names.push_back(name);
    slots_.emplace(name, slot);
    return slot;
  }

  bool IsBound(const std::string& name) const {
    return bound_.count(name) != 0;
  }

  // --- Terms ---------------------------------------------------------------

  ExprId AddExpr(ExprNode node) {
    plan_.exprs.push_back(std::move(node));
    return static_cast<ExprId>(plan_.exprs.size() - 1);
  }

  Result<ExprId> ConstExpr(const Term& t) {
    GLUENAIL_ASSIGN_OR_RETURN(TermId id, InternGroundTerm(env_.pool, t));
    ExprNode n;
    n.kind = ExprKind::kConst;
    n.const_term = id;
    return AddExpr(std::move(n));
  }

  /// Evaluation semantics: arithmetic / string builtins are computed.
  Result<ExprId> CompileExpr(const Term& t) {
    switch (t.kind) {
      case TermKind::kInt:
      case TermKind::kFloat:
      case TermKind::kSymbol:
        return ConstExpr(t);
      case TermKind::kVariable: {
        if (!IsBound(t.name)) {
          return LocError(t.loc,
                          StrCat("variable ", t.name, " is not bound here"));
        }
        ExprNode n;
        n.kind = ExprKind::kSlot;
        n.slot = SlotOf(t.name);
        return AddExpr(std::move(n));
      }
      case TermKind::kWildcard:
        return LocError(t.loc, "'_' cannot appear in an expression");
      case TermKind::kApply: {
        if (IsAggregateFunctor(t)) {
          return LocError(t.loc,
                          "aggregates are only allowed as the right side "
                          "of 'V = agg(T)'");
        }
        if (IsArithFunctor(t)) {
          ExprNode n;
          n.kind = t.apply_arity() == 1 ? ExprKind::kNegate : ExprKind::kArith;
          n.op = t.functor().name;
          for (size_t i = 0; i < t.apply_arity(); ++i) {
            GLUENAIL_ASSIGN_OR_RETURN(ExprId c, CompileExpr(t.arg(i)));
            n.children.push_back(c);
          }
          return AddExpr(std::move(n));
        }
        if (t.functor().IsSymbol() &&
            IsStringBuiltin(t.functor().name, t.apply_arity())) {
          ExprNode n;
          n.kind = ExprKind::kStringOp;
          n.op = t.functor().name;
          for (size_t i = 0; i < t.apply_arity(); ++i) {
            GLUENAIL_ASSIGN_OR_RETURN(ExprId c, CompileExpr(t.arg(i)));
            n.children.push_back(c);
          }
          return AddExpr(std::move(n));
        }
        return CompileBuild(t, /*allow_ops=*/true);
      }
    }
    return Status::Internal("unreachable term kind");
  }

  /// Construction semantics: every application builds a compound term; no
  /// operator is evaluated. Used for match keys, dynamic predicate names,
  /// and update/head positions that are data.
  Result<ExprId> CompileConstruct(const Term& t) {
    switch (t.kind) {
      case TermKind::kInt:
      case TermKind::kFloat:
      case TermKind::kSymbol:
        return ConstExpr(t);
      case TermKind::kVariable: {
        if (!IsBound(t.name)) {
          return LocError(t.loc,
                          StrCat("variable ", t.name, " is not bound here"));
        }
        ExprNode n;
        n.kind = ExprKind::kSlot;
        n.slot = SlotOf(t.name);
        return AddExpr(std::move(n));
      }
      case TermKind::kWildcard:
        return LocError(t.loc, "'_' cannot appear here");
      case TermKind::kApply:
        return CompileBuild(t, /*allow_ops=*/false);
    }
    return Status::Internal("unreachable term kind");
  }

  Result<ExprId> CompileBuild(const Term& t, bool allow_ops) {
    if (t.IsGround()) return ConstExpr(t);
    if (t.apply_arity() == 0) {
      return LocError(t.loc, "empty argument list in term");
    }
    ExprNode n;
    n.kind = ExprKind::kBuild;
    GLUENAIL_ASSIGN_OR_RETURN(
        ExprId f, allow_ops ? CompileExpr(t.functor())
                            : CompileConstruct(t.functor()));
    n.children.push_back(f);
    for (size_t i = 0; i < t.apply_arity(); ++i) {
      GLUENAIL_ASSIGN_OR_RETURN(ExprId c, allow_ops
                                              ? CompileExpr(t.arg(i))
                                              : CompileConstruct(t.arg(i)));
      n.children.push_back(c);
    }
    return AddExpr(std::move(n));
  }

  /// Pattern compilation; binds first occurrences of variables.
  Result<MatchNode> CompilePattern(const Term& t) {
    MatchNode n;
    switch (t.kind) {
      case TermKind::kWildcard:
        n.kind = MatchNode::Kind::kWildcard;
        return n;
      case TermKind::kInt:
      case TermKind::kFloat:
      case TermKind::kSymbol: {
        n.kind = MatchNode::Kind::kConst;
        GLUENAIL_ASSIGN_OR_RETURN(n.const_term,
                                  InternGroundTerm(env_.pool, t));
        return n;
      }
      case TermKind::kVariable: {
        n.slot = SlotOf(t.name);
        if (IsBound(t.name)) {
          n.kind = MatchNode::Kind::kCheck;
        } else {
          n.kind = MatchNode::Kind::kBind;
          bound_.insert(t.name);
        }
        return n;
      }
      case TermKind::kApply: {
        if (t.IsGround()) {
          n.kind = MatchNode::Kind::kConst;
          GLUENAIL_ASSIGN_OR_RETURN(n.const_term,
                                  InternGroundTerm(env_.pool, t));
          return n;
        }
        if (t.apply_arity() == 0) {
          return LocError(t.loc, "empty argument list in pattern");
        }
        n.kind = MatchNode::Kind::kStruct;
        GLUENAIL_ASSIGN_OR_RETURN(MatchNode f, CompilePattern(t.functor()));
        n.children.push_back(std::move(f));
        for (size_t i = 0; i < t.apply_arity(); ++i) {
          GLUENAIL_ASSIGN_OR_RETURN(MatchNode c, CompilePattern(t.arg(i)));
          n.children.push_back(std::move(c));
        }
        return n;
      }
    }
    return Status::Internal("unreachable pattern kind");
  }

  // --- Relation access resolution -----------------------------------------

  struct ResolvedAtom {
    PredicateAccess access;
    /// Effective column terms: NAIL! parameter columns followed by the
    /// subgoal arguments.
    std::vector<const Term*> columns;
    const PredBinding* binding = nullptr;
  };

  /// Resolves an atom-shaped (pred, args) pair used as a relation read or
  /// write target. \p for_write restricts the admissible classes.
  Result<ResolvedAtom> ResolveRelationAtom(const Term& pred,
                                           const std::vector<Term>& args,
                                           bool for_write,
                                           const ast::SourceLoc& loc) {
    ResolvedAtom out;
    for (const Term& a : args) out.columns.push_back(&a);

    std::string root;
    uint32_t params = 0;
    bool static_name = StaticPredName(pred, &root, &params);
    bool pred_ground = VarsOf(pred).empty();
    const PredBinding* b =
        static_name ? env_.scope->Lookup(
                          root, params, static_cast<uint32_t>(args.size()))
                    : nullptr;
    if (b != nullptr) {
      out.binding = b;
      switch (b->cls) {
        case PredClass::kIn:
          if (for_write) return LocError(loc, "cannot assign to 'in'");
          out.access.kind = PredicateAccess::Kind::kIn;
          out.access.arity = b->arity();
          return out;
        case PredClass::kLocal:
          out.access.kind = PredicateAccess::Kind::kLocal;
          out.access.local_index = b->index;
          out.access.arity = b->arity();
          return out;
        case PredClass::kEdb: {
          if (pred_ground) {
            out.access.kind = PredicateAccess::Kind::kEdb;
            GLUENAIL_ASSIGN_OR_RETURN(out.access.name,
                                      InternGroundTerm(env_.pool, pred));
            out.access.arity = static_cast<uint32_t>(args.size());
            return out;
          }
          break;  // parameterized EDB instance: dynamic below
        }
        case PredClass::kNail: {
          if (for_write && !b->assignable) {
            return LocError(loc, StrCat("cannot assign to NAIL! predicate '",
                                        root, "'"));
          }
          out.access.kind = PredicateAccess::Kind::kNail;
          out.access.name = b->name;
          out.access.nail_params = b->nail_params;
          out.access.arity =
              b->nail_params + static_cast<uint32_t>(args.size());
          // Parameter columns precede the argument columns.
          std::vector<const Term*> cols;
          CollectPredParams(pred, &cols);
          for (const Term& a : args) cols.push_back(&a);
          out.columns = std::move(cols);
          return out;
        }
        case PredClass::kReturn:
          return LocError(loc, "return is written by return statements only");
        default:
          return LocError(loc, StrCat("'", root, "' is a ",
                                      PredClassName(b->cls),
                                      ", not a relation"));
      }
    } else if (static_name && params == 0) {
      if (env_.implicit_edb) {
        out.access.kind = PredicateAccess::Kind::kEdb;
        out.access.name = env_.pool->MakeSymbol(root);
        out.access.arity = static_cast<uint32_t>(args.size());
        return out;
      }
      return LocError(loc, StrCat("unresolved predicate '", root, "/",
                                  args.size(), "'"));
    } else if (pred_ground) {
      // Ground compound name with no declaration: an EDB family instance,
      // e.g. students(cs99).
      out.access.kind = PredicateAccess::Kind::kEdb;
      GLUENAIL_ASSIGN_OR_RETURN(out.access.name,
                                InternGroundTerm(env_.pool, pred));
      out.access.arity = static_cast<uint32_t>(args.size());
      return out;
    }

    // Dynamic (HiLog) dereference.
    out.access.kind = PredicateAccess::Kind::kDynamic;
    out.access.arity = static_cast<uint32_t>(args.size());
    if (IsFullyBoundPattern(pred, bound_)) {
      GLUENAIL_ASSIGN_OR_RETURN(out.access.name_expr, CompileConstruct(pred));
    } else {
      if (for_write) {
        return LocError(loc,
                        "a written predicate name must be fully bound");
      }
      // Unbound name variables: the subgoal enumerates candidate
      // predicates; the name pattern binds them.
      GLUENAIL_ASSIGN_OR_RETURN(MatchNode pat, CompilePattern(pred));
      name_patterns_.push_back(std::move(pat));
      out.access.name_expr = kNoExpr;
      out.access.name_pattern_index =
          static_cast<int>(name_patterns_.size() - 1);
    }
    return out;
  }

  // --- Subgoal compilation -----------------------------------------------

  Status CompileSubgoal(const ast::Subgoal& g) {
    GLUENAIL_ASSIGN_OR_RETURN(SubgoalInfo info,
                              AnalyzeSubgoal(g, env_, bound_));
    if (!IsSchedulable(info.required, bound_)) {
      std::string missing;
      for (const std::string& v : info.required) {
        if (!IsBound(v)) {
          if (!missing.empty()) missing += ", ";
          missing += v;
        }
      }
      return LocError(g.loc, StrCat("unbound variable(s) ", missing, " in ",
                                    ast::ToString(g)));
    }
    switch (g.kind) {
      case ast::SubgoalKind::kAtom:
        if (info.binding != nullptr &&
            (info.binding->cls == PredClass::kGlueProc ||
             info.binding->cls == PredClass::kHostProc ||
             info.binding->cls == PredClass::kBuiltinProc)) {
          return CompileCall(g, *info.binding);
        }
        return CompileMatch(g, /*negated=*/false);
      case ast::SubgoalKind::kNegatedAtom:
        return CompileMatch(g, /*negated=*/true);
      case ast::SubgoalKind::kComparison:
        return CompileComparison(g, info);
      case ast::SubgoalKind::kGroupBy:
        return CompileGroupBy(g);
      case ast::SubgoalKind::kInsert:
      case ast::SubgoalKind::kDelete:
        return CompileUpdate(g);
    }
    return Status::Internal("unreachable subgoal kind");
  }

  Status CompileMatch(const ast::Subgoal& g, bool negated) {
    PlanOp op;
    op.kind = negated ? OpKind::kNegMatch : OpKind::kMatch;
    op.loc = g.loc;
    GLUENAIL_ASSIGN_OR_RETURN(
        ResolvedAtom atom,
        ResolveRelationAtom(g.pred, g.args, /*for_write=*/false, g.loc));
    op.access = atom.access;
    // Decide bound columns against the *pre-subgoal* binding state: key
    // expressions are evaluated on the input record.
    std::vector<bool> is_key(atom.columns.size(), false);
    for (size_t c = 0; c < atom.columns.size(); ++c) {
      if (c < 32 && IsFullyBoundPattern(*atom.columns[c], bound_)) {
        is_key[c] = true;
      }
    }
    for (size_t c = 0; c < atom.columns.size(); ++c) {
      if (is_key[c]) {
        op.bound_mask |= (1u << c);
        GLUENAIL_ASSIGN_OR_RETURN(ExprId key,
                                  CompileConstruct(*atom.columns[c]));
        op.key_exprs.push_back(key);
        op.col_patterns.emplace_back();  // wildcard placeholder
      } else {
        GLUENAIL_ASSIGN_OR_RETURN(MatchNode pat,
                                  CompilePattern(*atom.columns[c]));
        op.col_patterns.push_back(std::move(pat));
      }
    }
    plan_.ops.push_back(std::move(op));
    return Status::OK();
  }

  Status CompileCall(const ast::Subgoal& g, const PredBinding& b) {
    PlanOp op;
    op.kind = OpKind::kCall;
    op.loc = g.loc;
    op.fixed = b.fixed;
    switch (b.cls) {
      case PredClass::kGlueProc:
        op.callee = CalleeKind::kGlueProc;
        break;
      case PredClass::kHostProc:
        op.callee = CalleeKind::kHost;
        break;
      default:
        op.callee = CalleeKind::kBuiltin;
        break;
    }
    op.callee_index = b.index;
    op.callee_bound_arity = b.bound_arity;
    op.callee_free_arity = b.free_arity;
    for (uint32_t i = 0; i < b.bound_arity; ++i) {
      GLUENAIL_ASSIGN_OR_RETURN(ExprId e, CompileExpr(g.args[i]));
      op.call_in_exprs.push_back(e);
    }
    for (uint32_t i = b.bound_arity; i < b.arity(); ++i) {
      GLUENAIL_ASSIGN_OR_RETURN(MatchNode pat, CompilePattern(g.args[i]));
      op.call_out_patterns.push_back(std::move(pat));
    }
    plan_.ops.push_back(std::move(op));
    return Status::OK();
  }

  Status CompileComparison(const ast::Subgoal& g, const SubgoalInfo& info) {
    PlanOp op;
    op.loc = g.loc;
    if (info.is_aggregate) {
      op.kind = OpKind::kAggregate;
      op.fixed = true;
      op.agg = *AggKindFromName(g.rhs.functor().name);
      GLUENAIL_ASSIGN_OR_RETURN(op.agg_arg, CompileExpr(g.rhs.arg(0)));
      if (IsBound(g.lhs.name)) {
        // T = min(T): aggregate then filter (join), §3.3.
        GLUENAIL_ASSIGN_OR_RETURN(op.lhs, CompileExpr(g.lhs));
        op.bind_slot = -1;
      } else {
        op.bind_slot = SlotOf(g.lhs.name);
        bound_.insert(g.lhs.name);
      }
      plan_.ops.push_back(std::move(op));
      return Status::OK();
    }
    op.kind = OpKind::kCompare;
    op.cmp = g.cmp;
    bool lv = IsSingleVariable(g.lhs) && !IsBound(g.lhs.name);
    bool rv = IsSingleVariable(g.rhs) && !IsBound(g.rhs.name);
    if (g.cmp == ast::CompareOp::kEq && (lv || rv)) {
      const Term& target = lv ? g.lhs : g.rhs;
      const Term& source = lv ? g.rhs : g.lhs;
      GLUENAIL_ASSIGN_OR_RETURN(op.rhs, CompileExpr(source));
      op.bind_slot = SlotOf(target.name);
      bound_.insert(target.name);
    } else {
      GLUENAIL_ASSIGN_OR_RETURN(op.lhs, CompileExpr(g.lhs));
      GLUENAIL_ASSIGN_OR_RETURN(op.rhs, CompileExpr(g.rhs));
      op.bind_slot = -1;
    }
    plan_.ops.push_back(std::move(op));
    return Status::OK();
  }

  Status CompileGroupBy(const ast::Subgoal& g) {
    PlanOp op;
    op.kind = OpKind::kGroupBy;
    op.fixed = true;
    op.loc = g.loc;
    for (const Term& v : g.args) {
      op.group_slots.push_back(SlotOf(v.name));
    }
    plan_.ops.push_back(std::move(op));
    return Status::OK();
  }

  Status CompileUpdate(const ast::Subgoal& g) {
    PlanOp op;
    op.kind = OpKind::kUpdate;
    op.fixed = true;
    op.loc = g.loc;
    op.update_insert = g.kind == ast::SubgoalKind::kInsert;
    GLUENAIL_ASSIGN_OR_RETURN(
        ResolvedAtom atom,
        ResolveRelationAtom(g.pred, g.args, /*for_write=*/true, g.loc));
    if (atom.access.kind == PredicateAccess::Kind::kNail) {
      return LocError(g.loc, "cannot update a NAIL! predicate");
    }
    op.access = atom.access;
    for (const Term* col : atom.columns) {
      GLUENAIL_ASSIGN_OR_RETURN(ExprId e, CompileExpr(*col));
      op.update_exprs.push_back(e);
    }
    plan_.ops.push_back(std::move(op));
    return Status::OK();
  }

  // --- Heads ---------------------------------------------------------------

  Status PlanImplicitIn(const ast::Assignment& a) {
    if (!env_.in_procedure) {
      return LocError(a.loc, "return outside a procedure");
    }
    if (a.head_colon < 0 ||
        static_cast<uint32_t>(a.head_colon) != env_.proc_bound_arity ||
        a.head_args.size() != env_.proc_arity) {
      return LocError(
          a.loc, StrCat("return head must match the procedure arity (",
                        env_.proc_bound_arity, ":",
                        env_.proc_arity - env_.proc_bound_arity, ")"));
    }
    if (env_.proc_bound_arity == 0) return Status::OK();
    // The implicit `in` subgoal (§4): restrict to tuples extending the
    // input relation.
    PlanOp op;
    op.kind = OpKind::kMatch;
    op.access.kind = PredicateAccess::Kind::kIn;
    op.access.arity = env_.proc_bound_arity;
    for (uint32_t i = 0; i < env_.proc_bound_arity; ++i) {
      GLUENAIL_ASSIGN_OR_RETURN(MatchNode pat,
                                CompilePattern(a.head_args[i]));
      op.col_patterns.push_back(std::move(pat));
    }
    plan_.ops.push_back(std::move(op));
    return Status::OK();
  }

  Status PlanHead(const ast::Assignment& a, bool is_return) {
    HeadPlan& head = plan_.head;
    head.op = a.op;
    if (is_return) {
      head.is_return = true;
      head.access.kind = PredicateAccess::Kind::kReturn;
      head.access.arity = static_cast<uint32_t>(a.head_args.size());
      for (const Term& arg : a.head_args) {
        GLUENAIL_ASSIGN_OR_RETURN(ExprId e, CompileExpr(arg));
        head.arg_exprs.push_back(e);
      }
      if (a.has_delta) {
        return LocError(a.loc, "return cannot capture a delta");
      }
      return Status::OK();
    }

    GLUENAIL_ASSIGN_OR_RETURN(
        ResolvedAtom atom,
        ResolveRelationAtom(a.head_pred, a.head_args, /*for_write=*/true,
                            a.loc));
    if (atom.binding != nullptr && atom.binding->cls == PredClass::kEdb &&
        !atom.binding->assignable) {
      return LocError(a.loc, "cannot assign to this relation");
    }
    if (atom.binding != nullptr && atom.binding->cls == PredClass::kLocal &&
        !atom.binding->assignable) {
      return LocError(a.loc, "cannot assign to this relation");
    }
    head.access = atom.access;
    for (const Term* col : atom.columns) {
      GLUENAIL_ASSIGN_OR_RETURN(ExprId e, CompileExpr(*col));
      head.arg_exprs.push_back(e);
    }

    if (a.op == ast::AssignOp::kModify) {
      for (const std::string& key : a.modify_key) {
        bool found = false;
        for (size_t c = 0; c < atom.columns.size(); ++c) {
          if (IsSingleVariable(*atom.columns[c]) &&
              atom.columns[c]->name == key) {
            if (c >= 32) return LocError(a.loc, "key column beyond 32");
            head.modify_mask |= (1u << c);
            found = true;
          }
        }
        if (!found) {
          return LocError(a.loc, StrCat("+=[", key, "]: '", key,
                                        "' is not a head variable"));
        }
      }
    }

    if (a.has_delta) {
      if (a.op != ast::AssignOp::kInsert) {
        return LocError(a.loc, "delta capture requires '+='");
      }
      GLUENAIL_ASSIGN_OR_RETURN(
          ResolvedAtom datom,
          ResolveRelationAtom(a.delta_into, a.head_args, /*for_write=*/true,
                              a.loc));
      if (datom.access.arity != head.access.arity &&
          datom.access.kind != PredicateAccess::Kind::kNail) {
        return LocError(a.loc, "delta relation arity mismatch");
      }
      head.delta_access = datom.access;
    }
    return Status::OK();
  }

 public:
  /// Name patterns for dynamic predicates with unbound name variables;
  /// owned by the plan (moved in at the end).
  std::vector<MatchNode> name_patterns_;

 private:
  CompileEnv env_;
  PlannerOptions opts_;
  StatementPlan plan_;
  std::map<std::string, int> slots_;
  BoundSet bound_;
};

}  // namespace

Result<StatementPlan> PlanAssignment(const ast::Assignment& a,
                                     const CompileEnv& env,
                                     const PlannerOptions& opts) {
  StatementPlanner planner(env, opts);
  GLUENAIL_ASSIGN_OR_RETURN(StatementPlan plan, planner.Plan(a));
  plan.name_patterns = std::move(planner.name_patterns_);
  return plan;
}

Result<CondPlan> PlanUntilCond(const ast::UntilCond& c, const CompileEnv& env,
                               int* site_counter) {
  CondPlan out;
  out.kind = c.kind;
  switch (c.kind) {
    case ast::UntilCond::Kind::kAnd:
    case ast::UntilCond::Kind::kOr: {
      for (const ast::UntilCond& child : c.children) {
        GLUENAIL_ASSIGN_OR_RETURN(CondPlan cp,
                                  PlanUntilCond(child, env, site_counter));
        out.children.push_back(std::move(cp));
      }
      return out;
    }
    case ast::UntilCond::Kind::kNot: {
      GLUENAIL_ASSIGN_OR_RETURN(
          CondPlan cp, PlanUntilCond(c.children[0], env, site_counter));
      out.children.push_back(std::move(cp));
      return out;
    }
    default:
      break;
  }
  // Leaf test: resolve the predicate against the scope directly.
  // Conditions carry no bindings, so variables act as wildcards.
  std::string root;
  uint32_t params = 0;
  if (!StaticPredName(c.pred, &root, &params)) {
    return Status::CompileError(
        "loop conditions need statically named predicates");
  }
  const PredBinding* b = env.scope->Lookup(
      root, params, static_cast<uint32_t>(c.args.size()));
  if (b == nullptr) {
    if (!env.implicit_edb || params != 0) {
      return Status::CompileError(StrCat("unresolved predicate '", root, "/",
                                         c.args.size(),
                                         "' in loop condition"));
    }
    out.access.kind = PredicateAccess::Kind::kEdb;
    out.access.name = env.pool->MakeSymbol(root);
    out.access.arity = static_cast<uint32_t>(c.args.size());
  } else {
    switch (b->cls) {
      case PredClass::kEdb:
        out.access.kind = PredicateAccess::Kind::kEdb;
        out.access.name = b->name != kNullTerm
                              ? b->name
                              : env.pool->MakeSymbol(root);
        out.access.arity = b->arity();
        break;
      case PredClass::kLocal:
        out.access.kind = PredicateAccess::Kind::kLocal;
        out.access.local_index = b->index;
        out.access.arity = b->arity();
        break;
      case PredClass::kIn:
        out.access.kind = PredicateAccess::Kind::kIn;
        out.access.arity = b->arity();
        break;
      case PredClass::kNail:
        if (c.kind == ast::UntilCond::Kind::kUnchanged) {
          return Status::CompileError(
              "unchanged() applies to stored relations, not NAIL! "
              "predicates");
        }
        out.access.kind = PredicateAccess::Kind::kNail;
        out.access.name = b->name;
        out.access.nail_params = b->nail_params;
        out.access.arity = b->nail_params + static_cast<uint32_t>(
                                                c.args.size());
        break;
      default:
        return Status::CompileError(
            StrCat("'", root, "' is a ", PredClassName(b->cls),
                   "; loop conditions test relations"));
    }
  }
  // Patterns: constants match, variables and wildcards match anything.
  std::vector<const ast::Term*> cols;
  if (out.access.kind == PredicateAccess::Kind::kNail) {
    CollectPredParams(c.pred, &cols);
  }
  for (const ast::Term& a : c.args) cols.push_back(&a);
  for (const ast::Term* col : cols) {
    MatchNode n;
    if (col->IsGround()) {
      n.kind = MatchNode::Kind::kConst;
      GLUENAIL_ASSIGN_OR_RETURN(n.const_term,
                                InternGroundTerm(env.pool, *col));
    } else {
      n.kind = MatchNode::Kind::kWildcard;
    }
    out.patterns.push_back(std::move(n));
  }
  if (c.kind == ast::UntilCond::Kind::kUnchanged) {
    if (out.access.kind != PredicateAccess::Kind::kEdb &&
        out.access.kind != PredicateAccess::Kind::kLocal &&
        out.access.kind != PredicateAccess::Kind::kIn) {
      return Status::CompileError(
          "unchanged() applies to stored relations");
    }
    out.unchanged_site = (*site_counter)++;
  }
  return out;
}

Result<CompiledProcedure> CompileProcedureAst(const ast::Procedure& p,
                                              const Scope& module_scope,
                                              TermPool* pool,
                                              std::string module_name,
                                              bool fixed,
                                              const PlannerOptions& opts,
                                              bool implicit_edb,
                                              const StatsProvider* stats) {
  CompiledProcedure proc;
  proc.module = std::move(module_name);
  proc.name = p.name;
  proc.bound_arity = p.bound_arity;
  proc.free_arity = p.free_arity;
  proc.fixed = fixed;

  Scope scope(&module_scope);
  for (size_t i = 0; i < p.locals.size(); ++i) {
    const ast::LocalRelation& local = p.locals[i];
    PredBinding b;
    b.cls = PredClass::kLocal;
    b.free_arity = local.arity;
    b.index = static_cast<int>(i);
    b.assignable = true;
    scope.Declare(local.name, 0, local.arity, b);
    proc.locals.emplace_back(local.name, local.arity);
  }
  {
    PredBinding in;
    in.cls = PredClass::kIn;
    in.free_arity = p.bound_arity;
    scope.Declare("in", 0, p.bound_arity, in);
    PredBinding ret;
    ret.cls = PredClass::kReturn;
    ret.free_arity = p.arity();
    scope.Declare("return", 0, p.arity(), ret);
  }

  CompileEnv env;
  env.pool = pool;
  env.scope = &scope;
  env.implicit_edb = implicit_edb;
  env.in_procedure = true;
  env.proc_bound_arity = p.bound_arity;
  env.proc_arity = p.arity();
  env.stats = stats;

  int site_counter = 0;
  std::function<Result<std::vector<CInstr>>(
      const std::vector<ast::Statement>&)>
      compile_block =
          [&](const std::vector<ast::Statement>& stmts)
      -> Result<std::vector<CInstr>> {
    std::vector<CInstr> code;
    for (const ast::Statement& s : stmts) {
      if (s.is_assignment()) {
        GLUENAIL_ASSIGN_OR_RETURN(StatementPlan plan,
                                  PlanAssignment(s.assignment(), env, opts));
        proc.plans.push_back(std::move(plan));
        CInstr instr;
        instr.kind = CInstr::Kind::kExec;
        instr.plan_index = static_cast<int>(proc.plans.size() - 1);
        code.push_back(std::move(instr));
      } else {
        const ast::RepeatUntil& rep = s.repeat();
        CInstr instr;
        instr.kind = CInstr::Kind::kLoop;
        GLUENAIL_ASSIGN_OR_RETURN(instr.body, compile_block(rep.body));
        GLUENAIL_ASSIGN_OR_RETURN(instr.cond,
                                  PlanUntilCond(rep.cond, env, &site_counter));
        code.push_back(std::move(instr));
      }
    }
    return code;
  };

  GLUENAIL_ASSIGN_OR_RETURN(proc.code, compile_block(p.body));
  proc.num_unchanged_sites = site_counter;
  return proc;
}

}  // namespace gluenail
