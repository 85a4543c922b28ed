#include "src/ast/ast.h"

#include <algorithm>

namespace gluenail {
namespace ast {

Term Term::Variable(std::string name, SourceLoc loc) {
  Term t;
  t.kind = TermKind::kVariable;
  t.name = std::move(name);
  t.loc = loc;
  return t;
}

Term Term::Wildcard(SourceLoc loc) {
  Term t;
  t.kind = TermKind::kWildcard;
  t.loc = loc;
  return t;
}

Term Term::Int(int64_t v, SourceLoc loc) {
  Term t;
  t.kind = TermKind::kInt;
  t.int_value = v;
  t.loc = loc;
  return t;
}

Term Term::Float(double v, SourceLoc loc) {
  Term t;
  t.kind = TermKind::kFloat;
  t.float_value = v;
  t.loc = loc;
  return t;
}

Term Term::Symbol(std::string name, SourceLoc loc) {
  Term t;
  t.kind = TermKind::kSymbol;
  t.name = std::move(name);
  t.loc = loc;
  return t;
}

Term Term::Apply(Term functor, std::vector<Term> args, SourceLoc loc) {
  Term t;
  t.kind = TermKind::kApply;
  t.loc = loc;
  t.children.reserve(args.size() + 1);
  t.children.push_back(std::move(functor));
  for (Term& a : args) t.children.push_back(std::move(a));
  return t;
}

Term Term::Apply(std::string functor, std::vector<Term> args,
                 SourceLoc loc) {
  return Apply(Symbol(std::move(functor), loc), std::move(args), loc);
}

bool Term::IsGround() const {
  switch (kind) {
    case TermKind::kVariable:
    case TermKind::kWildcard:
      return false;
    case TermKind::kApply:
      return std::all_of(children.begin(), children.end(),
                         [](const Term& c) { return c.IsGround(); });
    default:
      return true;
  }
}

bool Term::Equals(const Term& other) const {
  if (kind != other.kind) return false;
  switch (kind) {
    case TermKind::kVariable:
    case TermKind::kSymbol:
      return name == other.name;
    case TermKind::kWildcard:
      return true;
    case TermKind::kInt:
      return int_value == other.int_value;
    case TermKind::kFloat:
      return float_value == other.float_value;
    case TermKind::kApply: {
      if (children.size() != other.children.size()) return false;
      for (size_t i = 0; i < children.size(); ++i) {
        if (!children[i].Equals(other.children[i])) return false;
      }
      return true;
    }
  }
  return false;
}

void Term::CollectVariables(std::vector<std::string>* out) const {
  switch (kind) {
    case TermKind::kVariable:
      if (std::find(out->begin(), out->end(), name) == out->end()) {
        out->push_back(name);
      }
      return;
    case TermKind::kApply:
      for (const Term& c : children) c.CollectVariables(out);
      return;
    default:
      return;
  }
}

const char* CompareOpName(CompareOp op) {
  switch (op) {
    case CompareOp::kEq:
      return "=";
    case CompareOp::kNe:
      return "!=";
    case CompareOp::kLt:
      return "<";
    case CompareOp::kLe:
      return "<=";
    case CompareOp::kGt:
      return ">";
    case CompareOp::kGe:
      return ">=";
  }
  return "?";
}

const char* AssignOpName(AssignOp op) {
  switch (op) {
    case AssignOp::kClear:
      return ":=";
    case AssignOp::kInsert:
      return "+=";
    case AssignOp::kDelete:
      return "-=";
    case AssignOp::kModify:
      return "+=";
  }
  return "?";
}

Subgoal Subgoal::Atom(Term pred, std::vector<Term> args, SourceLoc loc) {
  Subgoal g;
  g.kind = SubgoalKind::kAtom;
  g.pred = std::move(pred);
  g.args = std::move(args);
  g.loc = loc;
  return g;
}

Subgoal Subgoal::Comparison(Term lhs, CompareOp op, Term rhs, SourceLoc loc) {
  Subgoal g;
  g.kind = SubgoalKind::kComparison;
  g.lhs = std::move(lhs);
  g.cmp = op;
  g.rhs = std::move(rhs);
  g.loc = loc;
  return g;
}

}  // namespace ast
}  // namespace gluenail
