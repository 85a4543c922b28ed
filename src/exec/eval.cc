#include "src/exec/eval.h"

#include "src/common/strings.h"
#include "src/runtime/arith.h"
#include "src/runtime/string_builtins.h"

namespace gluenail {

namespace {

// EvalExpr recurses as deep as expressions nest, and unoptimized builds
// give every branch's locals a slot in the one recursive frame — so the
// rare, allocation-heavy branches (argument vectors, error-string
// formatting) live in these out-of-line helpers, keeping the recursive
// frame lean enough for thousands of levels within a default 8 MiB stack
// (robustness_test exercises 2000).

[[gnu::noinline]] Status UnboundSlotError(int slot) {
  return Status::Internal(StrCat("unbound slot ", slot, " read at run time"));
}

[[gnu::noinline]] Result<TermId> EvalStringOpExpr(
    const StatementPlan& plan, const ExprNode& n, std::span<const TermId> rec,
    TermPool* pool) {
  std::vector<TermId> args;
  args.reserve(n.children.size());
  for (ExprId c : n.children) {
    GLUENAIL_ASSIGN_OR_RETURN(TermId v, EvalExpr(plan, c, rec, pool));
    args.push_back(v);
  }
  return EvalStringBuiltin(pool, n.op, args);
}

[[gnu::noinline]] Result<TermId> EvalBuildExpr(const StatementPlan& plan,
                                               const ExprNode& n,
                                               std::span<const TermId> rec,
                                               TermPool* pool) {
  GLUENAIL_ASSIGN_OR_RETURN(TermId f,
                            EvalExpr(plan, n.children[0], rec, pool));
  std::vector<TermId> args;
  args.reserve(n.children.size() - 1);
  for (size_t i = 1; i < n.children.size(); ++i) {
    GLUENAIL_ASSIGN_OR_RETURN(TermId v,
                              EvalExpr(plan, n.children[i], rec, pool));
    args.push_back(v);
  }
  return pool->MakeCompound(f, args);
}

}  // namespace

Result<TermId> EvalExpr(const StatementPlan& plan, ExprId id,
                        std::span<const TermId> rec, TermPool* pool) {
  const ExprNode& n = plan.exprs[static_cast<size_t>(id)];
  switch (n.kind) {
    case ExprKind::kConst:
      return n.const_term;
    case ExprKind::kSlot: {
      TermId v = rec[static_cast<size_t>(n.slot)];
      if (v == kNullTerm) return UnboundSlotError(n.slot);
      return v;
    }
    case ExprKind::kArith: {
      GLUENAIL_ASSIGN_OR_RETURN(TermId a,
                                EvalExpr(plan, n.children[0], rec, pool));
      GLUENAIL_ASSIGN_OR_RETURN(TermId b,
                                EvalExpr(plan, n.children[1], rec, pool));
      return EvalArith(pool, n.op, a, b);
    }
    case ExprKind::kNegate: {
      GLUENAIL_ASSIGN_OR_RETURN(TermId a,
                                EvalExpr(plan, n.children[0], rec, pool));
      return EvalNegate(pool, a);
    }
    case ExprKind::kStringOp:
      return EvalStringOpExpr(plan, n, rec, pool);
    case ExprKind::kBuild:
      return EvalBuildExpr(plan, n, rec, pool);
  }
  return Status::Internal("unreachable expression kind");
}

Result<Tuple> EvalTuple(const StatementPlan& plan,
                        const std::vector<ExprId>& exprs,
                        std::span<const TermId> rec, TermPool* pool) {
  Tuple out;
  out.reserve(exprs.size());
  for (ExprId e : exprs) {
    GLUENAIL_ASSIGN_OR_RETURN(TermId v, EvalExpr(plan, e, rec, pool));
    out.push_back(v);
  }
  return out;
}

bool MatchTerm(const MatchNode& node, TermId value, const TermPool& pool,
               std::span<TermId> rec, BindUndo* undo) {
  switch (node.kind) {
    case MatchNode::Kind::kWildcard:
      return true;
    case MatchNode::Kind::kConst:
      return value == node.const_term;
    case MatchNode::Kind::kBind: {
      size_t slot = static_cast<size_t>(node.slot);
      if (undo != nullptr) undo->emplace_back(node.slot, rec[slot]);
      rec[slot] = value;
      return true;
    }
    case MatchNode::Kind::kCheck:
      return rec[static_cast<size_t>(node.slot)] == value;
    case MatchNode::Kind::kStruct: {
      if (!pool.IsCompound(value)) return false;
      size_t arity = node.children.size() - 1;
      if (pool.Arity(value) != arity) return false;
      if (!MatchTerm(node.children[0], pool.Functor(value), pool, rec,
                     undo)) {
        return false;
      }
      std::span<const TermId> args = pool.Args(value);
      for (size_t i = 0; i < arity; ++i) {
        if (!MatchTerm(node.children[i + 1], args[i], pool, rec, undo)) {
          return false;
        }
      }
      return true;
    }
  }
  return false;
}

bool MatchColumns(const std::vector<MatchNode>& patterns, RowView tuple,
                  const TermPool& pool, std::span<TermId> rec,
                  BindUndo* undo) {
  for (size_t i = 0; i < patterns.size(); ++i) {
    if (!MatchTerm(patterns[i], tuple[i], pool, rec, undo)) return false;
  }
  return true;
}

void UnbindAll(const BindUndo& undo, std::span<TermId> rec) {
  // Restore in reverse so repeated bindings of one slot unwind correctly.
  for (auto it = undo.rbegin(); it != undo.rend(); ++it) {
    rec[static_cast<size_t>(it->first)] = it->second;
  }
}

}  // namespace gluenail
