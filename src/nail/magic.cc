#include "src/nail/magic.h"

#include <algorithm>
#include <deque>
#include <functional>
#include <unordered_set>

#include "src/analysis/binding.h"
#include "src/analysis/resolver.h"
#include "src/common/strings.h"
#include "src/nail/seminaive.h"

namespace gluenail {

namespace {

using ast::NailRule;
using ast::Subgoal;
using ast::Term;

std::string AdornedName(const std::string& root,
                        const std::string& adornment) {
  return StrCat(root, "@", adornment);
}

std::string MagicName(const std::string& root, const std::string& adornment) {
  return StrCat("magic@", root, "@", adornment);
}

/// Binding effect of a comparison, mirroring the planner's Eq rules
/// conservatively: only "UnboundVar = fully-bound-expr" binds.
void ApplyComparisonBindings(const Subgoal& g, BoundSet* bound) {
  bool lv = IsSingleVariable(g.lhs) && bound->count(g.lhs.name) == 0;
  bool rv = IsSingleVariable(g.rhs) && bound->count(g.rhs.name) == 0;
  if (g.cmp != ast::CompareOp::kEq) return;
  if (lv && IsFullyBoundPattern(g.rhs, *bound)) bound->insert(g.lhs.name);
  if (rv && IsFullyBoundPattern(g.lhs, *bound)) bound->insert(g.rhs.name);
}

void BindAtomVars(const Subgoal& g, BoundSet* bound) {
  for (const std::string& v : VarsOf(g.pred)) bound->insert(v);
  for (const Term& a : g.args) {
    for (const std::string& v : VarsOf(a)) bound->insert(v);
  }
}

struct AdornedPred {
  std::string root;
  uint32_t arity;
  std::string adornment;
};

}  // namespace

Result<MagicProgram> MagicTransform(const std::vector<NailRule>& rules,
                                    const MagicQuery& query, TermPool* pool) {
  // Index IDB predicates and their rules.
  std::unordered_set<std::string> idb;
  for (const NailRule& r : rules) {
    std::string root;
    uint32_t params = 0;
    if (!StaticPredName(r.head_pred, &root, &params) || params != 0) {
      return Status::CompileError(
          "magic transformation supports non-parameterized predicates only");
    }
    idb.insert(StrCat(root, "/", r.head_args.size()));
  }
  std::string qkey = StrCat(query.pred, "/", query.arity());
  if (idb.count(qkey) == 0) {
    return Status::InvalidArgument(
        StrCat("query predicate ", qkey, " has no rules"));
  }

  std::string query_adornment;
  for (const auto& c : query.columns) {
    query_adornment += c.has_value() ? 'b' : 'f';
  }

  MagicProgram out;
  out.answer_pred = AdornedName(query.pred, query_adornment);
  out.seed_pred = MagicName(query.pred, query_adornment);
  for (const auto& c : query.columns) {
    if (c.has_value()) out.seed.push_back(*c);
  }

  std::deque<AdornedPred> queue;
  std::unordered_set<std::string> processed;
  queue.push_back(AdornedPred{query.pred, query.arity(), query_adornment});

  while (!queue.empty()) {
    AdornedPred cur = queue.front();
    queue.pop_front();
    std::string cur_key = AdornedName(StrCat(cur.root, "/", cur.arity),
                                      cur.adornment);
    if (!processed.insert(cur_key).second) continue;
    ++out.adorned_count;

    for (const NailRule& rule : rules) {
      std::string root;
      uint32_t params = 0;
      StaticPredName(rule.head_pred, &root, &params);
      if (root != cur.root || rule.head_args.size() != cur.arity) continue;

      // The adorned rule starts from the magic filter.
      NailRule adorned;
      adorned.loc = rule.loc;
      adorned.head_pred =
          Term::Symbol(AdornedName(cur.root, cur.adornment));
      adorned.head_args = rule.head_args;

      BoundSet bound;
      std::vector<Term> magic_args;
      for (size_t i = 0; i < cur.arity; ++i) {
        if (cur.adornment[i] == 'b') {
          magic_args.push_back(rule.head_args[i]);
          for (const std::string& v : VarsOf(rule.head_args[i])) {
            bound.insert(v);
          }
        }
      }
      Subgoal magic_guard = Subgoal::Atom(
          Term::Symbol(MagicName(cur.root, cur.adornment)), magic_args);
      adorned.body.push_back(magic_guard);

      for (const Subgoal& g : rule.body) {
        switch (g.kind) {
          case ast::SubgoalKind::kComparison: {
            adorned.body.push_back(g);
            ApplyComparisonBindings(g, &bound);
            break;
          }
          case ast::SubgoalKind::kGroupBy:
          case ast::SubgoalKind::kInsert:
          case ast::SubgoalKind::kDelete:
            return Status::CompileError(
                "magic transformation applies to pure rules");
          case ast::SubgoalKind::kNegatedAtom: {
            std::string nroot;
            uint32_t nparams = 0;
            if (StaticPredName(g.pred, &nroot, &nparams) &&
                idb.count(StrCat(nroot, "/", g.args.size())) != 0) {
              return Status::CompileError(
                  "magic transformation does not support negated IDB "
                  "subgoals");
            }
            adorned.body.push_back(g);
            break;
          }
          case ast::SubgoalKind::kAtom: {
            std::string aroot;
            uint32_t aparams = 0;
            bool is_idb =
                StaticPredName(g.pred, &aroot, &aparams) && aparams == 0 &&
                idb.count(StrCat(aroot, "/", g.args.size())) != 0;
            if (!is_idb) {
              adorned.body.push_back(g);
              BindAtomVars(g, &bound);
              break;
            }
            // Compute the callee adornment under the left-to-right SIP.
            std::string sub_adornment;
            for (const Term& a : g.args) {
              sub_adornment +=
                  IsFullyBoundPattern(a, bound) ? 'b' : 'f';
            }
            queue.push_back(AdornedPred{
                aroot, static_cast<uint32_t>(g.args.size()),
                sub_adornment});
            // Magic rule: magic@q@a'(bound args) :- prefix-so-far.
            NailRule magic_rule;
            magic_rule.loc = rule.loc;
            magic_rule.head_pred =
                Term::Symbol(MagicName(aroot, sub_adornment));
            for (size_t i = 0; i < g.args.size(); ++i) {
              if (sub_adornment[i] == 'b') {
                magic_rule.head_args.push_back(g.args[i]);
              }
            }
            magic_rule.body = adorned.body;  // transformed prefix
            out.rules.push_back(std::move(magic_rule));
            // Rename the subgoal to the adorned predicate.
            Subgoal renamed = g;
            renamed.pred =
                Term::Symbol(AdornedName(aroot, sub_adornment));
            adorned.body.push_back(std::move(renamed));
            BindAtomVars(g, &bound);
            break;
          }
        }
      }
      out.rules.push_back(std::move(adorned));
    }
  }

  // Seed rule: magic@p@a(constants) :- true.
  NailRule seed_rule;
  seed_rule.head_pred = Term::Symbol(out.seed_pred);
  for (const auto& c : query.columns) {
    if (!c.has_value()) continue;
    // Constants are rendered back as AST terms via the pool.
    const TermId t = *c;
    // Build an AST literal for the interned term.
    std::function<Term(TermId)> to_ast = [&](TermId id) -> Term {
      switch (pool->tag(id)) {
        case TermTag::kInt:
          return Term::Int(pool->IntValue(id));
        case TermTag::kFloat:
          return Term::Float(pool->FloatValue(id));
        case TermTag::kSymbol:
          return Term::Symbol(std::string(pool->SymbolName(id)));
        case TermTag::kCompound: {
          std::vector<Term> args;
          for (TermId a : pool->Args(id)) args.push_back(to_ast(a));
          return Term::Apply(to_ast(pool->Functor(id)), std::move(args));
        }
      }
      return Term::Symbol("?");
    };
    seed_rule.head_args.push_back(to_ast(t));
  }
  seed_rule.body.push_back(Subgoal::Atom(Term::Symbol("true"), {}));
  out.rules.push_back(std::move(seed_rule));
  return out;
}

namespace {

Result<std::vector<Tuple>> RunRulesAndFilter(
    std::vector<NailRule> rules, const std::string& answer_root,
    const MagicQuery& query, Database* edb, TermPool* pool,
    const ExecOptions& exec_opts, StorageAccess access,
    ExecControl* control) {
  GLUENAIL_ASSIGN_OR_RETURN(NailProgram prog,
                            BuildNailProgram(std::move(rules), pool));
  Database scratch_idb(pool);
  NailEngine engine(std::move(prog), edb, &scratch_idb, pool);
  engine.set_mode(NailMode::kDirect);
  Scope builtins;
  DeclareBuiltinScope(&builtins);
  GLUENAIL_RETURN_NOT_OK(engine.CompileDirect(&builtins, PlannerOptions{}));
  CompiledProgram empty_program;
  RuntimeEnv env;
  env.nail = &engine;
  Executor exec(&empty_program, edb, &scratch_idb, pool, env, exec_opts,
                access);
  exec.set_control(control);
  engine.set_executor(&exec);
  GLUENAIL_RETURN_NOT_OK(engine.EnsureAllNail());

  Relation* answers =
      scratch_idb.Find(pool->MakeSymbol(answer_root), query.arity());
  std::vector<Tuple> out;
  if (answers == nullptr) return out;
  for (RowView t : *answers) {
    bool match = true;
    for (size_t i = 0; i < query.columns.size(); ++i) {
      if (query.columns[i].has_value() && t[i] != *query.columns[i]) {
        match = false;
        break;
      }
    }
    if (match) out.emplace_back(t.begin(), t.end());
  }
  std::sort(out.begin(), out.end(), [pool](const Tuple& a, const Tuple& b) {
    return CompareTuples(*pool, a, b) < 0;
  });
  return out;
}

}  // namespace

Result<std::vector<Tuple>> EvaluateWithMagic(
    const std::vector<NailRule>& rules, const MagicQuery& query,
    Database* edb, TermPool* pool, const ExecOptions& exec_opts,
    StorageAccess access, ExecControl* control) {
  GLUENAIL_ASSIGN_OR_RETURN(MagicProgram magic,
                            MagicTransform(rules, query, pool));
  return RunRulesAndFilter(std::move(magic.rules), magic.answer_pred, query,
                           edb, pool, exec_opts, access, control);
}

Result<std::vector<Tuple>> EvaluateWithoutMagic(
    const std::vector<NailRule>& rules, const MagicQuery& query,
    Database* edb, TermPool* pool) {
  return RunRulesAndFilter(rules, query.pred, query, edb, pool, {},
                           StorageAccess::kReadWrite, nullptr);
}

}  // namespace gluenail
