#include "src/nail/nail_to_glue.h"

#include "src/analysis/binding.h"
#include "src/common/strings.h"

namespace gluenail {

namespace {

using ast::Assignment;
using ast::Subgoal;
using ast::Term;

/// Fresh column variable names for generated statements.
std::vector<Term> ColumnVars(uint32_t n) {
  std::vector<Term> out;
  out.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    out.push_back(Term::Variable(StrCat("GV", i)));
  }
  return out;
}

std::vector<Term> Wildcards(uint32_t n) {
  std::vector<Term> out;
  out.reserve(n);
  for (uint32_t i = 0; i < n; ++i) out.push_back(Term::Wildcard());
  return out;
}

/// True if the subgoal is a positive atom referencing pred \p target
/// within \p program.
bool IsRecursiveRef(const NailProgram& program, const Subgoal& g,
                    const std::vector<int>& scc_preds) {
  if (g.kind != ast::SubgoalKind::kAtom) return false;
  std::string root;
  uint32_t params = 0;
  if (!StaticPredName(g.pred, &root, &params)) return false;
  int id = program.FindPred(root, params,
                            static_cast<uint32_t>(g.args.size()));
  if (id < 0) return false;
  for (int p : scc_preds) {
    if (p == id) return true;
  }
  return false;
}

int PredOf(const NailProgram& program, const Subgoal& g) {
  std::string root;
  uint32_t params = 0;
  StaticPredName(g.pred, &root, &params);
  return program.FindPred(root, params,
                          static_cast<uint32_t>(g.args.size()));
}

}  // namespace

std::vector<ast::Term> FlattenColumns(const ast::Term& pred,
                                      const std::vector<ast::Term>& args) {
  std::vector<const ast::Term*> params;
  CollectPredParams(pred, &params);
  std::vector<ast::Term> cols;
  for (const ast::Term* t : params) cols.push_back(*t);
  cols.insert(cols.end(), args.begin(), args.end());
  return cols;
}

std::string DeltaScopeName(const NailPred& pred) {
  return StrCat("$delta$", pred.Key());
}

std::string NewdeltaScopeName(const NailPred& pred) {
  return StrCat("$newdelta$", pred.Key());
}

void DeclareNailScope(const NailProgram& program, Scope* scope) {
  for (const NailPred& pred : program.preds) {
    PredBinding full;
    full.cls = PredClass::kNail;
    full.free_arity = pred.arity;
    full.name = pred.storage;
    full.nail_params = pred.params;
    full.assignable = true;
    scope->Declare(pred.root, pred.params, pred.arity, full);

    PredBinding delta;
    delta.cls = PredClass::kNail;
    delta.free_arity = pred.columns();
    delta.name = pred.delta_storage;
    delta.nail_params = 0;
    delta.assignable = true;
    scope->Declare(DeltaScopeName(pred), 0, pred.columns(), delta);

    PredBinding newdelta = delta;
    newdelta.name = pred.newdelta_storage;
    scope->Declare(NewdeltaScopeName(pred), 0, pred.columns(), newdelta);
  }
}

SccStatements BuildSccStatements(const NailProgram& program, int scc_index) {
  SccStatements out;
  const std::vector<int>& preds =
      program.scc_order[static_cast<size_t>(scc_index)];
  bool recursive = program.scc_recursive[static_cast<size_t>(scc_index)];

  for (int p : preds) {
    const NailPred& pred = program.preds[static_cast<size_t>(p)];
    for (int r : pred.rules) {
      const ast::NailRule& rule = program.rules[static_cast<size_t>(r)];

      // Initialization version: body as written (full relations).
      Assignment init;
      init.loc = rule.loc;
      init.head_pred = rule.head_pred;
      init.head_args = rule.head_args;
      init.op = ast::AssignOp::kInsert;
      init.body = rule.body;
      if (recursive) {
        init.has_delta = true;
        init.delta_into = Term::Symbol(DeltaScopeName(pred));
      }
      out.init.push_back(std::move(init));

      if (!recursive) continue;

      // Semi-naive versions: one per recursive subgoal occurrence, that
      // occurrence reading the delta relation.
      for (size_t i = 0; i < rule.body.size(); ++i) {
        if (!IsRecursiveRef(program, rule.body[i], preds)) continue;
        Assignment ver;
        ver.loc = rule.loc;
        ver.head_pred = rule.head_pred;
        ver.head_args = rule.head_args;
        ver.op = ast::AssignOp::kInsert;
        ver.has_delta = true;
        ver.delta_into = Term::Symbol(NewdeltaScopeName(pred));
        ver.body = rule.body;
        const NailPred& dep = program.preds[static_cast<size_t>(
            PredOf(program, rule.body[i]))];
        Subgoal& g = ver.body[i];
        std::vector<Term> cols = FlattenColumns(g.pred, g.args);
        g.pred = Term::Symbol(DeltaScopeName(dep));
        g.args = std::move(cols);
        out.iterate.push_back(std::move(ver));
      }
    }
  }
  return out;
}

std::string SccProcedureName(int scc_index) {
  return StrCat("$nail$scc", scc_index);
}

ast::Procedure BuildSccProcedure(const NailProgram& program, int scc_index) {
  ast::Procedure proc;
  proc.name = SccProcedureName(scc_index);
  proc.bound_arity = 0;
  proc.free_arity = 0;

  SccStatements stmts = BuildSccStatements(program, scc_index);
  for (Assignment& a : stmts.init) {
    ast::Statement s;
    s.node = std::move(a);
    proc.body.push_back(std::move(s));
  }
  if (stmts.iterate.empty()) return proc;

  const std::vector<int>& preds =
      program.scc_order[static_cast<size_t>(scc_index)];
  ast::RepeatUntil loop;
  // Clear the newdelta relations: nd(C...) -= nd(C...).
  for (int p : preds) {
    const NailPred& pred = program.preds[static_cast<size_t>(p)];
    Assignment clear;
    clear.head_pred = Term::Symbol(NewdeltaScopeName(pred));
    clear.head_args = ColumnVars(pred.columns());
    clear.op = ast::AssignOp::kDelete;
    clear.body.push_back(Subgoal::Atom(Term::Symbol(NewdeltaScopeName(pred)),
                                       ColumnVars(pred.columns())));
    ast::Statement s;
    s.node = std::move(clear);
    loop.body.push_back(std::move(s));
  }
  // The semi-naive rule versions.
  for (Assignment& a : stmts.iterate) {
    ast::Statement s;
    s.node = std::move(a);
    loop.body.push_back(std::move(s));
  }
  // Shift: delta := newdelta.
  for (int p : preds) {
    const NailPred& pred = program.preds[static_cast<size_t>(p)];
    Assignment shift;
    shift.head_pred = Term::Symbol(DeltaScopeName(pred));
    shift.head_args = ColumnVars(pred.columns());
    shift.op = ast::AssignOp::kClear;
    shift.body.push_back(Subgoal::Atom(Term::Symbol(NewdeltaScopeName(pred)),
                                       ColumnVars(pred.columns())));
    ast::Statement s;
    s.node = std::move(shift);
    loop.body.push_back(std::move(s));
  }
  // until empty(nd_p(_,..)) & empty(nd_q(_,..)) & ...
  ast::UntilCond cond;
  bool first = true;
  for (int p : preds) {
    const NailPred& pred = program.preds[static_cast<size_t>(p)];
    ast::UntilCond leaf;
    leaf.kind = ast::UntilCond::Kind::kEmpty;
    leaf.pred = Term::Symbol(NewdeltaScopeName(pred));
    for (ast::Term& w : Wildcards(pred.columns())) {
      leaf.args.push_back(std::move(w));
    }
    if (first) {
      cond = std::move(leaf);
      first = false;
    } else {
      ast::UntilCond conj;
      conj.kind = ast::UntilCond::Kind::kAnd;
      conj.children.push_back(std::move(cond));
      conj.children.push_back(std::move(leaf));
      cond = std::move(conj);
    }
  }
  loop.cond = std::move(cond);
  ast::Statement s;
  s.node = std::move(loop);
  proc.body.push_back(std::move(s));
  return proc;
}

ast::Procedure BuildDriverProcedure(const NailProgram& program) {
  ast::Procedure proc;
  proc.name = kNailDriverName;
  proc.bound_arity = 0;
  proc.free_arity = 0;
  // The call statements need *some* head; a throwaway local works.
  ast::LocalRelation done;
  done.name = "$nail$done";
  done.arity = 1;
  proc.locals.push_back(done);
  for (size_t s = 0; s < program.scc_order.size(); ++s) {
    Assignment call;
    call.head_pred = Term::Symbol("$nail$done");
    call.head_args.push_back(Term::Int(static_cast<int64_t>(s)));
    call.op = ast::AssignOp::kInsert;
    call.body.push_back(
        Subgoal::Atom(Term::Symbol(SccProcedureName(static_cast<int>(s))),
                      {}));
    ast::Statement stmt;
    stmt.node = std::move(call);
    proc.body.push_back(std::move(stmt));
  }
  return proc;
}

}  // namespace gluenail
