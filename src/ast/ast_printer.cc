/// \file ast_printer.cc
/// \brief Renders terms and subgoals back to parseable Glue / NAIL! source.

#include <cctype>
#include <cstdio>

#include "src/ast/ast.h"
#include "src/common/strings.h"

namespace gluenail {
namespace ast {

namespace {

bool IsPlainIdentifier(std::string_view s) {
  if (s.empty()) return false;
  if (!std::islower(static_cast<unsigned char>(s[0]))) return false;
  for (char c : s) {
    if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_') return false;
  }
  return true;
}

/// Binary operators that print infix (and re-parse as expressions).
bool IsInfixOp(const Term& functor) {
  if (!functor.IsSymbol()) return false;
  const std::string& n = functor.name;
  return n == "+" || n == "-" || n == "*" || n == "/" || n == "mod";
}

void AppendTerm(const Term& t, std::string* out);

void AppendArgs(const Term& t, std::string* out) {
  out->push_back('(');
  for (size_t i = 0; i < t.apply_arity(); ++i) {
    if (i != 0) out->push_back(',');
    AppendTerm(t.arg(i), out);
  }
  out->push_back(')');
}

void AppendTerm(const Term& t, std::string* out) {
  switch (t.kind) {
    case TermKind::kVariable:
      out->append(t.name);
      return;
    case TermKind::kWildcard:
      out->push_back('_');
      return;
    case TermKind::kInt:
      out->append(std::to_string(t.int_value));
      return;
    case TermKind::kFloat: {
      char buf[64];
      int n = std::snprintf(buf, sizeof(buf), "%.17g", t.float_value);
      std::string_view sv(buf, static_cast<size_t>(n));
      out->append(sv);
      if (sv.find('.') == std::string_view::npos &&
          sv.find('e') == std::string_view::npos) {
        out->append(".0");
      }
      return;
    }
    case TermKind::kSymbol:
      if (IsPlainIdentifier(t.name)) {
        out->append(t.name);
      } else {
        out->push_back('\'');
        out->append(EscapeQuoted(t.name));
        out->push_back('\'');
      }
      return;
    case TermKind::kApply: {
      if (IsInfixOp(t.functor()) && t.apply_arity() == 2) {
        out->push_back('(');
        AppendTerm(t.arg(0), out);
        if (t.functor().name == "mod") {
          out->append(" mod ");
        } else {
          out->append(t.functor().name);
        }
        AppendTerm(t.arg(1), out);
        out->push_back(')');
        return;
      }
      if (t.functor().IsSymbol() && t.functor().name == "-" &&
          t.apply_arity() == 1) {
        out->append("-(");
        AppendTerm(t.arg(0), out);
        out->push_back(')');
        return;
      }
      AppendTerm(t.functor(), out);
      AppendArgs(t, out);
      return;
    }
  }
}

void AppendAtomLike(const Term& pred, const std::vector<Term>& args,
                    std::string* out) {
  AppendTerm(pred, out);
  if (!args.empty()) {
    out->push_back('(');
    for (size_t i = 0; i < args.size(); ++i) {
      if (i != 0) out->push_back(',');
      AppendTerm(args[i], out);
    }
    out->push_back(')');
  }
}

void AppendSubgoal(const Subgoal& g, std::string* out) {
  switch (g.kind) {
    case SubgoalKind::kAtom:
      AppendAtomLike(g.pred, g.args, out);
      return;
    case SubgoalKind::kNegatedAtom:
      out->push_back('!');
      AppendAtomLike(g.pred, g.args, out);
      return;
    case SubgoalKind::kComparison:
      AppendTerm(g.lhs, out);
      out->push_back(' ');
      out->append(CompareOpName(g.cmp));
      out->push_back(' ');
      AppendTerm(g.rhs, out);
      return;
    case SubgoalKind::kGroupBy: {
      out->append("group_by(");
      for (size_t i = 0; i < g.args.size(); ++i) {
        if (i != 0) out->push_back(',');
        AppendTerm(g.args[i], out);
      }
      out->push_back(')');
      return;
    }
    case SubgoalKind::kInsert:
      out->append("++");
      AppendAtomLike(g.pred, g.args, out);
      return;
    case SubgoalKind::kDelete:
      out->append("--");
      AppendAtomLike(g.pred, g.args, out);
      return;
  }
}

}  // namespace

std::string ToString(const Term& t) {
  std::string out;
  AppendTerm(t, &out);
  return out;
}

std::string ToString(const Subgoal& g) {
  std::string out;
  AppendSubgoal(g, &out);
  return out;
}

}  // namespace ast
}  // namespace gluenail
