/// \file ast.h
/// \brief Abstract syntax shared by Glue and NAIL!.
///
/// The paper's central design point (§1, §11) is that the two languages
/// share data model, type system, and syntax; accordingly they share one
/// AST here. A Glue assignment statement and a NAIL! rule differ only in
/// the connective (`:=` family vs `:-`) and in which subgoal kinds they may
/// contain; the NAIL!-to-Glue compiler (src/nail/nail_to_glue.cc) produces
/// ordinary Glue AST that flows through the same planner as hand-written
/// Glue — which is exactly how the paper obtains a single optimizer over
/// all code.

#ifndef GLUENAIL_AST_AST_H_
#define GLUENAIL_AST_AST_H_

#include <cstdint>
#include <memory>
#include <string>
#include <variant>
#include <vector>

namespace gluenail {
namespace ast {

/// 1-based source position for diagnostics; (0,0) for generated code.
struct SourceLoc {
  int line = 0;
  int col = 0;
};

// ---------------------------------------------------------------------------
// Terms
// ---------------------------------------------------------------------------

/// Kinds of (possibly non-ground) syntactic terms. Arithmetic expressions
/// and aggregate calls are represented uniformly as kApply terms with
/// operator functors ("+", "min", "concat", ...); the planner gives them
/// meaning inside comparison subgoals.
enum class TermKind : uint8_t {
  kVariable,  ///< X, Name — an upper-case identifier
  kWildcard,  ///< _ — matches anything, binds nothing
  kInt,
  kFloat,
  kSymbol,  ///< lower-case identifier or quoted string (atom == string, §2)
  kApply,   ///< functor(args...); functor is children[0] and may be any
            ///< term, including a variable (HiLog, §5)
};

struct Term {
  TermKind kind = TermKind::kSymbol;
  /// Variable or symbol name.
  std::string name;
  int64_t int_value = 0;
  double float_value = 0.0;
  /// For kApply: children[0] is the functor, children[1..] the arguments.
  std::vector<Term> children;
  SourceLoc loc;

  static Term Variable(std::string name, SourceLoc loc = {});
  static Term Wildcard(SourceLoc loc = {});
  static Term Int(int64_t v, SourceLoc loc = {});
  static Term Float(double v, SourceLoc loc = {});
  static Term Symbol(std::string name, SourceLoc loc = {});
  static Term Apply(Term functor, std::vector<Term> args, SourceLoc loc = {});
  /// Convenience: symbol-functor application.
  static Term Apply(std::string functor, std::vector<Term> args,
                    SourceLoc loc = {});

  bool IsVariable() const { return kind == TermKind::kVariable; }
  bool IsWildcard() const { return kind == TermKind::kWildcard; }
  bool IsSymbol() const { return kind == TermKind::kSymbol; }
  bool IsApply() const { return kind == TermKind::kApply; }
  /// True for terms with no variables or wildcards anywhere.
  bool IsGround() const;

  const Term& functor() const { return children[0]; }
  /// Number of arguments of a kApply (children minus the functor).
  size_t apply_arity() const { return children.size() - 1; }
  const Term& arg(size_t i) const { return children[i + 1]; }

  /// Structural equality (including locations being ignored).
  bool Equals(const Term& other) const;

  /// Appends every distinct variable name, in first-occurrence order.
  void CollectVariables(std::vector<std::string>* out) const;
};

// ---------------------------------------------------------------------------
// Subgoals
// ---------------------------------------------------------------------------

enum class CompareOp : uint8_t { kEq, kNe, kLt, kLe, kGt, kGe };

/// Renders "=", "!=", "<", "<=", ">", ">=".
const char* CompareOpName(CompareOp op);

enum class SubgoalKind : uint8_t {
  /// p(args) — an EDB relation, local relation, NAIL! predicate, Glue
  /// procedure, `in`, or I/O builtin; the resolver decides which (§2).
  kAtom,
  /// !p(args) — negation; requires all its variables bound (safety).
  kNegatedAtom,
  /// lhs op rhs — comparisons, arithmetic, string builtins, and (when the
  /// right side mentions an aggregate functor) aggregation (§3.3).
  kComparison,
  /// group_by(V1,...,Vk) — partitions the supplementary relation (§3.3.1).
  kGroupBy,
  /// ++p(args) — EDB insertion performed per supplementary tuple.
  kInsert,
  /// --p(args) — EDB deletion performed per supplementary tuple
  /// (Figure 1 uses this to shrink `possible`).
  kDelete,
};

struct Subgoal {
  SubgoalKind kind = SubgoalKind::kAtom;
  /// Predicate name term for kAtom/kNegatedAtom/kInsert/kDelete. May be a
  /// symbol (`edge`), a variable (`T` — HiLog set attribute), or a compound
  /// with variables (`tas(ID)` — parameterized predicate).
  Term pred;
  /// Arguments for the predicate-shaped kinds; group_by variables for
  /// kGroupBy.
  std::vector<Term> args;
  /// Comparison payload (kComparison only).
  CompareOp cmp = CompareOp::kEq;
  Term lhs, rhs;
  SourceLoc loc;

  static Subgoal Atom(Term pred, std::vector<Term> args, SourceLoc loc = {});
  static Subgoal Comparison(Term lhs, CompareOp op, Term rhs,
                            SourceLoc loc = {});
};

// ---------------------------------------------------------------------------
// Statements
// ---------------------------------------------------------------------------

/// The four assignment operators of §3.1.
enum class AssignOp : uint8_t {
  kClear,   ///< :=  overwrite the head relation
  kInsert,  ///< +=  add tuples
  kDelete,  ///< -=  remove tuples
  kModify,  ///< +=[Z...]  update by key
};

const char* AssignOpName(AssignOp op);

struct Statement;

struct Assignment {
  /// Head predicate name; `return` heads are plain atoms whose name is the
  /// symbol "return".
  Term head_pred;
  std::vector<Term> head_args;
  /// For `return(X,Y:Z)` heads: the number of arguments left of the colon
  /// (the bound arguments that restrict against `in`, §4); -1 if no colon.
  int head_colon = -1;
  AssignOp op = AssignOp::kClear;
  /// Key variables for +=[Z...].
  std::vector<std::string> modify_key;
  std::vector<Subgoal> body;
  /// When has_delta is set (kInsert only), tuples *actually added* by this
  /// statement are also inserted into the relation named by delta_into —
  /// the back end's `uniondiff` operator (paper §10), emitted by the
  /// NAIL!-to-Glue compiler for semi-naive loops. Not surface syntax.
  bool has_delta = false;
  Term delta_into;
  SourceLoc loc;
};

/// Loop termination conditions (§4 and Figure 1): boolean combinations of
/// `unchanged(p(...))`, `empty(p(...))`, and plain atom non-emptiness tests.
struct UntilCond {
  enum class Kind : uint8_t {
    kUnchanged,  ///< unchanged(p(_,_)) — relation unchanged since this
                 ///< site's previous evaluation; false on first evaluation
    kEmpty,      ///< empty(p(...)) — the predicate has no matching tuple
    kNonEmpty,   ///< p(...) — the predicate has a matching tuple
    kAnd,
    kOr,
    kNot,
  };
  Kind kind = Kind::kNonEmpty;
  /// Predicate and args for the three test kinds.
  Term pred;
  std::vector<Term> args;
  /// Operands for kAnd/kOr (2 children) and kNot (1 child).
  std::vector<UntilCond> children;
  SourceLoc loc;
};

struct RepeatUntil {
  std::vector<Statement> body;
  UntilCond cond;
  SourceLoc loc;
};

struct Statement {
  std::variant<Assignment, RepeatUntil> node;

  bool is_assignment() const {
    return std::holds_alternative<Assignment>(node);
  }
  const Assignment& assignment() const { return std::get<Assignment>(node); }
  Assignment& assignment() { return std::get<Assignment>(node); }
  const RepeatUntil& repeat() const { return std::get<RepeatUntil>(node); }
  RepeatUntil& repeat() { return std::get<RepeatUntil>(node); }
};

// ---------------------------------------------------------------------------
// Procedures, rules, modules
// ---------------------------------------------------------------------------

/// A local relation declaration from a `rels` clause. The argument names in
/// the declaration (`connected(X,Y)`) only fix the arity.
struct LocalRelation {
  std::string name;
  uint32_t arity = 0;
  SourceLoc loc;
};

struct Procedure {
  std::string name;
  /// Arity split: tc_e(X:Y) has bound_arity 1 and free_arity 1. The `in`
  /// relation has arity bound_arity; `return` has the full arity (§4).
  uint32_t bound_arity = 0;
  uint32_t free_arity = 0;
  std::vector<LocalRelation> locals;
  std::vector<Statement> body;
  SourceLoc loc;

  uint32_t arity() const { return bound_arity + free_arity; }
};

/// A NAIL! rule: head :- body.
struct NailRule {
  Term head_pred;
  std::vector<Term> head_args;
  std::vector<Subgoal> body;
  SourceLoc loc;
};

/// Signature in an export/import list: name(B1,..,Bm : F1,..,Fn).
struct PredicateSig {
  std::string name;
  uint32_t bound_arity = 0;
  uint32_t free_arity = 0;
  SourceLoc loc;

  uint32_t arity() const { return bound_arity + free_arity; }
};

struct ImportDecl {
  std::string from_module;
  PredicateSig sig;
};

/// An `edb` declaration: name(A1,...,An) — only the arity matters.
struct EdbDecl {
  std::string name;
  uint32_t arity = 0;
  SourceLoc loc;
};

/// A compilation unit (§6). Modules are purely a compile-time concept.
struct Module {
  std::string name;
  std::vector<PredicateSig> exports;
  std::vector<ImportDecl> imports;
  std::vector<EdbDecl> edb;
  std::vector<Procedure> procedures;
  std::vector<NailRule> rules;
  /// Ground facts written directly in the module ("edge(1,2)."); loaded
  /// into the EDB when the module is linked. A convenience beyond the
  /// paper's surface syntax, matching how its example EDBs are presented.
  std::vector<Term> facts;
  SourceLoc loc;
};

/// A parsed source file: one or more modules.
struct Program {
  std::vector<Module> modules;
};

// ---------------------------------------------------------------------------
// Printing (ast_printer.cc)
// ---------------------------------------------------------------------------

/// Renders a term or a subgoal back to parseable source, for error
/// messages and tests; a printed term re-parses to an equal term
/// (ast_printer_test).
std::string ToString(const Term& t);
std::string ToString(const Subgoal& g);

}  // namespace ast
}  // namespace gluenail

#endif  // GLUENAIL_AST_AST_H_
