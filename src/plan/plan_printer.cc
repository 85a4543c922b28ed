#include "src/plan/plan_printer.h"

#include "src/common/strings.h"

namespace gluenail {

namespace {

void AppendMatchNode(const MatchNode& n, std::string* out) {
  switch (n.kind) {
    case MatchNode::Kind::kWildcard:
      out->push_back('_');
      return;
    case MatchNode::Kind::kConst:
      out->append(StrCat("const#", n.const_term));
      return;
    case MatchNode::Kind::kBind:
      out->append(StrCat("bind:", n.slot));
      return;
    case MatchNode::Kind::kCheck:
      out->append(StrCat("check:", n.slot));
      return;
    case MatchNode::Kind::kStruct: {
      out->append("struct(");
      for (size_t i = 0; i < n.children.size(); ++i) {
        if (i != 0) out->push_back(',');
        AppendMatchNode(n.children[i], out);
      }
      out->push_back(')');
      return;
    }
  }
}

void AppendAccess(const PredicateAccess& a, const TermPool& pool,
                  std::string* out) {
  switch (a.kind) {
    case PredicateAccess::Kind::kNone:
      out->append("none");
      return;
    case PredicateAccess::Kind::kEdb:
      out->append(StrCat("edb ", pool.ToString(a.name), "/", a.arity));
      return;
    case PredicateAccess::Kind::kLocal:
      out->append(StrCat("local#", a.local_index, "/", a.arity));
      return;
    case PredicateAccess::Kind::kIn:
      out->append(StrCat("in/", a.arity));
      return;
    case PredicateAccess::Kind::kReturn:
      out->append(StrCat("return/", a.arity));
      return;
    case PredicateAccess::Kind::kNail:
      out->append(StrCat("nail ", pool.ToString(a.name), "/", a.arity,
                         a.nail_params != 0
                             ? StrCat(" params=", a.nail_params)
                             : std::string()));
      return;
    case PredicateAccess::Kind::kDynamic:
      if (a.name_expr != kNoExpr) {
        out->append(StrCat("dynamic expr#", a.name_expr, "/", a.arity));
      } else {
        out->append(StrCat("dynamic enumerate/", a.arity, " pattern#",
                           a.name_pattern_index));
      }
      return;
  }
}

void AppendKeyedColumns(const PlanOp& op, std::string* out) {
  out->append(" keyed[");
  bool first = true;
  for (uint32_t c = 0; c < 32; ++c) {
    if (op.bound_mask & (1u << c)) {
      if (!first) out->push_back(',');
      out->append(StrCat("c", c));
      first = false;
    }
  }
  out->append("] cols(");
  for (size_t c = 0; c < op.col_patterns.size(); ++c) {
    if (c != 0) out->push_back(',');
    AppendMatchNode(op.col_patterns[c], out);
  }
  out->push_back(')');
}

void AppendOp(const PlanOp& op, const TermPool& pool, std::string* out) {
  switch (op.kind) {
    case OpKind::kMatch:
      out->append("match ");
      AppendAccess(op.access, pool, out);
      AppendKeyedColumns(op, out);
      break;
    case OpKind::kNegMatch:
      out->append("negmatch ");
      AppendAccess(op.access, pool, out);
      AppendKeyedColumns(op, out);
      break;
    case OpKind::kCompare:
      if (op.bind_slot >= 0) {
        out->append(StrCat("bind slot", op.bind_slot, " = expr#", op.rhs));
      } else {
        out->append(StrCat("filter expr#", op.lhs, " ",
                           ast::CompareOpName(op.cmp), " expr#", op.rhs));
      }
      break;
    case OpKind::kAggregate:
      out->append(StrCat("aggregate ", AggKindName(op.agg), "(expr#",
                         op.agg_arg, ") -> "));
      if (op.bind_slot >= 0) {
        out->append(StrCat("slot", op.bind_slot));
      } else {
        out->append(StrCat("filter = expr#", op.lhs));
      }
      break;
    case OpKind::kGroupBy: {
      out->append("group_by slots(");
      for (size_t i = 0; i < op.group_slots.size(); ++i) {
        if (i != 0) out->push_back(',');
        out->append(std::to_string(op.group_slots[i]));
      }
      out->push_back(')');
      break;
    }
    case OpKind::kCall: {
      const char* kinds[] = {"glue", "host", "builtin"};
      out->append(StrCat("call ", kinds[static_cast<int>(op.callee)], "#",
                         op.callee_index, " (", op.callee_bound_arity, ":",
                         op.callee_free_arity, ")"));
      break;
    }
    case OpKind::kUpdate:
      out->append(op.update_insert ? "insert into " : "delete from ");
      AppendAccess(op.access, pool, out);
      break;
  }
  if (op.fixed) out->append("  ; fixed");
  if (op.build_index) out->append("  ; build-index");
}

/// The est/actual annotation: estimates are fractional internally but read
/// better rounded; -1 means the plan predates annotation.
void AppendRowCounts(const PlanOp& op, const uint64_t* actual,
                     std::string* out) {
  if (op.est_rows >= 0) {
    out->append(StrCat("  ; est=",
                       static_cast<uint64_t>(op.est_rows + 0.5)));
    if (actual != nullptr) out->append(StrCat(" actual=", *actual));
  } else if (actual != nullptr) {
    out->append(StrCat("  ; actual=", *actual));
  }
}

}  // namespace

std::string PlanToString(const StatementPlan& plan, const TermPool& pool) {
  return PlanToString(plan, pool, nullptr);
}

std::string PlanToString(const StatementPlan& plan, const TermPool& pool,
                         const std::vector<uint64_t>* actual_rows) {
  std::string out = "slots:";
  for (size_t i = 0; i < plan.slot_names.size(); ++i) {
    out.append(StrCat(" ", plan.slot_names[i], "=", i));
  }
  out.push_back('\n');
  for (size_t i = 0; i < plan.ops.size(); ++i) {
    out.append(StrCat("  ", i, ": "));
    AppendOp(plan.ops[i], pool, &out);
    const uint64_t* actual =
        actual_rows != nullptr && i < actual_rows->size()
            ? &(*actual_rows)[i]
            : nullptr;
    AppendRowCounts(plan.ops[i], actual, &out);
    out.push_back('\n');
  }
  out.append("  head: ");
  out.append(ast::AssignOpName(plan.head.op));
  out.push_back(' ');
  if (plan.head.is_return) {
    out.append("return");
  } else {
    AppendAccess(plan.head.access, pool, &out);
  }
  out.append(StrCat(" cols ", plan.head.arg_exprs.size()));
  if (plan.head.modify_mask != 0) {
    out.append(StrCat(" key_mask=", plan.head.modify_mask));
  }
  if (plan.head.delta_access.kind != PredicateAccess::Kind::kNone) {
    out.append(" uniondiff -> ");
    AppendAccess(plan.head.delta_access, pool, &out);
  }
  out.push_back('\n');
  return out;
}

}  // namespace gluenail
