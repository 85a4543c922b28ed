#include "src/parser/parser.h"

#include <gtest/gtest.h>

namespace gluenail {
namespace {

using ast::AssignOp;
using ast::CompareOp;
using ast::Statement;
using ast::Subgoal;
using ast::SubgoalKind;
using ast::Term;
using ast::TermKind;
using ast::UntilCond;

// --- Terms -----------------------------------------------------------------

TEST(ParseTermTest, Atoms) {
  Result<Term> t = ParseTermText("wilson");
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->kind, TermKind::kSymbol);
  EXPECT_EQ(t->name, "wilson");
}

TEST(ParseTermTest, NegativeLiteralsFoldSign) {
  Result<Term> t = ParseTermText("-2");
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->kind, TermKind::kInt);
  EXPECT_EQ(t->int_value, -2);
  t = ParseTermText("-2.5");
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->kind, TermKind::kFloat);
  EXPECT_DOUBLE_EQ(t->float_value, -2.5);
}

TEST(ParseTermTest, Compound) {
  Result<Term> t = ParseTermText("f(W,X)");
  ASSERT_TRUE(t.ok());
  ASSERT_EQ(t->kind, TermKind::kApply);
  EXPECT_EQ(t->functor().name, "f");
  ASSERT_EQ(t->apply_arity(), 2u);
  EXPECT_EQ(t->arg(0).kind, TermKind::kVariable);
  EXPECT_EQ(t->arg(0).name, "W");
}

TEST(ParseTermTest, HiLogCurriedApplication) {
  Result<Term> t = ParseTermText("students(cs99)(wilson)");
  ASSERT_TRUE(t.ok());
  ASSERT_EQ(t->kind, TermKind::kApply);
  EXPECT_EQ(t->functor().kind, TermKind::kApply);
  EXPECT_EQ(t->functor().functor().name, "students");
}

TEST(ParseTermTest, VariableFunctor) {
  // HiLog: E(Y,Z) — a variable in predicate position.
  Result<Term> t = ParseTermText("E(Y,Z)");
  ASSERT_TRUE(t.ok());
  ASSERT_EQ(t->kind, TermKind::kApply);
  EXPECT_EQ(t->functor().kind, TermKind::kVariable);
  EXPECT_EQ(t->functor().name, "E");
}

TEST(ParseTermTest, ArithmeticPrecedence) {
  Result<Term> t = ParseTermText("A+B*C");
  ASSERT_TRUE(t.ok());
  ASSERT_EQ(t->kind, TermKind::kApply);
  EXPECT_EQ(t->functor().name, "+");
  EXPECT_EQ(t->arg(1).functor().name, "*");
}

TEST(ParseTermTest, ParenthesesOverridePrecedence) {
  Result<Term> t = ParseTermText("(A+B)*C");
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->functor().name, "*");
  EXPECT_EQ(t->arg(0).functor().name, "+");
}

TEST(ParseTermTest, ModOperator) {
  Result<Term> t = ParseTermText("X mod 3");
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->functor().name, "mod");
}

TEST(ParseTermTest, Wildcard) {
  Result<Term> t = ParseTermText("p(_,X)");
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->arg(0).kind, TermKind::kWildcard);
}

TEST(ParseTermTest, GroundnessCheck) {
  EXPECT_TRUE(ParseTermText("f(1,g(a))")->IsGround());
  EXPECT_FALSE(ParseTermText("f(1,g(X))")->IsGround());
  EXPECT_FALSE(ParseTermText("f(_,a)")->IsGround());
}

// --- Statements --------------------------------------------------------------

TEST(ParseStatementTest, PaperExampleInsertion) {
  // §3.1: r(X,Y) += s(X,W) & t(f(W,X),Y).
  Result<Statement> s = ParseStatement("r(X,Y) += s(X,W) & t(f(W,X),Y).");
  ASSERT_TRUE(s.ok()) << s.status();
  ASSERT_TRUE(s->is_assignment());
  const ast::Assignment& a = s->assignment();
  EXPECT_EQ(a.op, AssignOp::kInsert);
  EXPECT_EQ(a.head_pred.name, "r");
  ASSERT_EQ(a.body.size(), 2u);
  EXPECT_EQ(a.body[0].kind, SubgoalKind::kAtom);
  EXPECT_EQ(a.body[1].args[0].kind, TermKind::kApply);
}

TEST(ParseStatementTest, AllFourAssignmentOperators) {
  EXPECT_EQ(ParseStatement("p(X) := q(X).")->assignment().op,
            AssignOp::kClear);
  EXPECT_EQ(ParseStatement("p(X) += q(X).")->assignment().op,
            AssignOp::kInsert);
  EXPECT_EQ(ParseStatement("p(X) -= q(X).")->assignment().op,
            AssignOp::kDelete);
  Result<Statement> m = ParseStatement("p(K,V) +=[K] q(K,V).");
  ASSERT_TRUE(m.ok());
  EXPECT_EQ(m->assignment().op, AssignOp::kModify);
  EXPECT_EQ(m->assignment().modify_key,
            (std::vector<std::string>{"K"}));
}

TEST(ParseStatementTest, ModifyKeyMultipleVars) {
  Result<Statement> m = ParseStatement("p(A,B,V) +=[A,B] q(A,B,V).");
  ASSERT_TRUE(m.ok());
  EXPECT_EQ(m->assignment().modify_key,
            (std::vector<std::string>{"A", "B"}));
}

TEST(ParseStatementTest, IdentityMatrixExample) {
  // §3.1 example with a comparison subgoal.
  Result<Statement> s =
      ParseStatement("matrix(X,Y, 0.0)+= row(X) & row(Y) & X != Y.");
  ASSERT_TRUE(s.ok()) << s.status();
  const ast::Assignment& a = s->assignment();
  ASSERT_EQ(a.body.size(), 3u);
  EXPECT_EQ(a.body[2].kind, SubgoalKind::kComparison);
  EXPECT_EQ(a.body[2].cmp, CompareOp::kNe);
  EXPECT_EQ(a.head_args[2].kind, TermKind::kFloat);
}

TEST(ParseStatementTest, AggregationSubgoal) {
  // §3.3: max_temp(MaxT) := temperature(T) & MaxT = max(T).
  Result<Statement> s =
      ParseStatement("max_temp( MaxT ):= temperature( T ) & MaxT = max(T).");
  ASSERT_TRUE(s.ok()) << s.status();
  const ast::Assignment& a = s->assignment();
  ASSERT_EQ(a.body.size(), 2u);
  const Subgoal& agg = a.body[1];
  EXPECT_EQ(agg.kind, SubgoalKind::kComparison);
  EXPECT_EQ(agg.cmp, CompareOp::kEq);
  ASSERT_EQ(agg.rhs.kind, TermKind::kApply);
  EXPECT_EQ(agg.rhs.functor().name, "max");
}

TEST(ParseStatementTest, GroupBySubgoal) {
  Result<Statement> s = ParseStatement(
      "course_average( C, Average ):= course_student_grade(C,S,G) & "
      "group_by(C) & Average = mean(G).");
  ASSERT_TRUE(s.ok()) << s.status();
  const ast::Assignment& a = s->assignment();
  ASSERT_EQ(a.body.size(), 3u);
  EXPECT_EQ(a.body[1].kind, SubgoalKind::kGroupBy);
  ASSERT_EQ(a.body[1].args.size(), 1u);
  EXPECT_EQ(a.body[1].args[0].name, "C");
}

TEST(ParseStatementTest, GroupByRejectsNonVariables) {
  EXPECT_FALSE(ParseStatement("p(C) := q(C) & group_by(1).").ok());
}

TEST(ParseStatementTest, NegatedSubgoal) {
  Result<Statement> s =
      ParseStatement("different(S,T) := in(S,T) & S(X) & !T(X).");
  ASSERT_TRUE(s.ok()) << s.status();
  const ast::Assignment& a = s->assignment();
  ASSERT_EQ(a.body.size(), 3u);
  EXPECT_EQ(a.body[1].kind, SubgoalKind::kAtom);
  EXPECT_EQ(a.body[1].pred.kind, TermKind::kVariable);  // HiLog: S(X)
  EXPECT_EQ(a.body[2].kind, SubgoalKind::kNegatedAtom);
  EXPECT_EQ(a.body[2].pred.name, "T");
}

TEST(ParseStatementTest, BodyUpdateSubgoals) {
  Result<Statement> s =
      ParseStatement("log(K) += try(K) & --possible(K,D) & ++seen(K).");
  ASSERT_TRUE(s.ok()) << s.status();
  const ast::Assignment& a = s->assignment();
  EXPECT_EQ(a.body[1].kind, SubgoalKind::kDelete);
  EXPECT_EQ(a.body[2].kind, SubgoalKind::kInsert);
}

TEST(ParseStatementTest, ReturnHeadWithColon) {
  Result<Statement> s = ParseStatement("return(X:Y) := connected(X,Y).");
  ASSERT_TRUE(s.ok()) << s.status();
  const ast::Assignment& a = s->assignment();
  EXPECT_EQ(a.head_pred.name, "return");
  EXPECT_EQ(a.head_colon, 1);
  EXPECT_EQ(a.head_args.size(), 2u);
}

TEST(ParseStatementTest, ReturnHeadColonAtEnd) {
  // set_eq returns no free attributes: return(S,T:) := ...
  Result<Statement> s = ParseStatement("return(S,T:) := !different(S,T).");
  ASSERT_TRUE(s.ok()) << s.status();
  EXPECT_EQ(s->assignment().head_colon, 2);
}

TEST(ParseStatementTest, ArithmeticComparisonSubgoal) {
  Result<Statement> s = ParseStatement(
      "near(Key) := element(Key,Xmin,Ymin) & tolerance(T) & "
      "(X-Xmin)*(X-Xmin) + (Y-Ymin)*(Y-Ymin) < T.");
  ASSERT_TRUE(s.ok()) << s.status();
  const Subgoal& cmp = s->assignment().body[2];
  EXPECT_EQ(cmp.kind, SubgoalKind::kComparison);
  EXPECT_EQ(cmp.cmp, CompareOp::kLt);
  EXPECT_EQ(cmp.lhs.functor().name, "+");
}

TEST(ParseStatementTest, HiLogHeadAssignment) {
  Result<Statement> s = ParseStatement("students(ID)(S) += attends(S, ID).");
  ASSERT_TRUE(s.ok()) << s.status();
  const ast::Assignment& a = s->assignment();
  EXPECT_EQ(a.head_pred.kind, TermKind::kApply);
  EXPECT_EQ(a.head_pred.functor().name, "students");
  EXPECT_EQ(a.head_args.size(), 1u);
}

TEST(ParseStatementTest, RepeatUntilUnchanged) {
  Result<Statement> s = ParseStatement(
      "repeat connected(X,Y)+= connected(X,Z) & e(Z,Y). "
      "until unchanged( connected(_,_));");
  ASSERT_TRUE(s.ok()) << s.status();
  ASSERT_FALSE(s->is_assignment());
  const ast::RepeatUntil& r = s->repeat();
  ASSERT_EQ(r.body.size(), 1u);
  EXPECT_EQ(r.cond.kind, UntilCond::Kind::kUnchanged);
  EXPECT_EQ(r.cond.pred.name, "connected");
  ASSERT_EQ(r.cond.args.size(), 2u);
  EXPECT_EQ(r.cond.args[0].kind, TermKind::kWildcard);
}

TEST(ParseStatementTest, BracedUntilConditionWithOr) {
  // Figure 1: until {confirmed(K) | empty(possible(K))};
  Result<Statement> s = ParseStatement(
      "repeat try(K) := possible(K,D). "
      "until {confirmed(K) | empty(possible(K))};");
  ASSERT_TRUE(s.ok()) << s.status();
  const UntilCond& c = s->repeat().cond;
  EXPECT_EQ(c.kind, UntilCond::Kind::kOr);
  ASSERT_EQ(c.children.size(), 2u);
  EXPECT_EQ(c.children[0].kind, UntilCond::Kind::kNonEmpty);
  EXPECT_EQ(c.children[1].kind, UntilCond::Kind::kEmpty);
  EXPECT_EQ(c.children[1].pred.name, "possible");
}

TEST(ParseStatementTest, UntilConditionAndNot) {
  Result<Statement> s = ParseStatement(
      "repeat p(X) := q(X). until !empty(p(_)) & unchanged(p(_));");
  ASSERT_TRUE(s.ok()) << s.status();
  const UntilCond& c = s->repeat().cond;
  EXPECT_EQ(c.kind, UntilCond::Kind::kAnd);
  EXPECT_EQ(c.children[0].kind, UntilCond::Kind::kNot);
}

TEST(ParseStatementTest, NestedRepeat) {
  Result<Statement> s = ParseStatement(
      "repeat repeat p(X) += q(X). until unchanged(p(_)); "
      "r(X) += p(X). until unchanged(r(_));");
  ASSERT_TRUE(s.ok()) << s.status();
  const ast::RepeatUntil& outer = s->repeat();
  ASSERT_EQ(outer.body.size(), 2u);
  EXPECT_FALSE(outer.body[0].is_assignment());
}

TEST(ParseStatementTest, ComparisonAggregateAndGroupByBodies) {
  Result<Statement> ne = ParseStatement("p(X) := q(X) & X != 3.");
  ASSERT_TRUE(ne.ok()) << ne.status();
  EXPECT_EQ(ne->assignment().body[1].cmp, CompareOp::kNe);
  EXPECT_EQ(ne->assignment().body[1].rhs.kind, TermKind::kInt);

  Result<Statement> min = ParseStatement(
      "coldest_city(Name) := daily_temp(Name,T) & T = min(T).");
  ASSERT_TRUE(min.ok()) << min.status();
  EXPECT_EQ(min->assignment().body[1].rhs.functor().name, "min");

  Result<Statement> avg =
      ParseStatement("avg(C,A) := g(C,S,G) & group_by(C) & A = mean(G).");
  ASSERT_TRUE(avg.ok()) << avg.status();
  ASSERT_EQ(avg->assignment().body.size(), 3u);
  EXPECT_EQ(avg->assignment().body[1].kind, SubgoalKind::kGroupBy);

  Result<Statement> diff =
      ParseStatement("d(S,T) := in(S,T) & S(X) & !T(X).");
  ASSERT_TRUE(diff.ok()) << diff.status();
  EXPECT_EQ(diff->assignment().body[2].kind, SubgoalKind::kNegatedAtom);

  Result<Statement> until = ParseStatement(
      "repeat try(K) := possible(K,D). "
      "until {confirmed(K) | empty(possible(K,D))};");
  ASSERT_TRUE(until.ok()) << until.status();
  EXPECT_EQ(until->repeat().cond.children[1].args.size(), 2u);
}

TEST(ParseStatementTest, MissingDotFails) {
  EXPECT_FALSE(ParseStatement("p(X) := q(X)").ok());
}

TEST(ParseStatementTest, MissingOperatorFails) {
  EXPECT_FALSE(ParseStatement("p(X) q(X).").ok());
}

// --- Rules --------------------------------------------------------------------

TEST(ParseRuleTest, TransitiveClosure) {
  Result<ast::NailRule> r = ParseRule("tc(E,X,Z):- tc(E,X,Y) & E(Y,Z).");
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->head_pred.name, "tc");
  ASSERT_EQ(r->body.size(), 2u);
  EXPECT_EQ(r->body[1].pred.kind, TermKind::kVariable);
}

TEST(ParseRuleTest, ParameterizedHead) {
  // §5.1: students(ID)(Student) :- class_subject(ID,_) & attends(...).
  Result<ast::NailRule> r = ParseRule(
      "students(ID)(Student) :- class_subject(ID, _) & "
      "attends(Student, ID).");
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->head_pred.kind, TermKind::kApply);
  ASSERT_EQ(r->head_args.size(), 1u);
  EXPECT_EQ(r->head_args[0].name, "Student");
}

TEST(ParseRuleTest, RejectsColonInHead) {
  EXPECT_FALSE(ParseRule("p(X:Y) :- q(X,Y).").ok());
}

// --- Goals ---------------------------------------------------------------------

TEST(ParseGoalTest, ConjunctiveGoal) {
  Result<std::vector<Subgoal>> g = ParseGoal("path(1,X) & X < 5");
  ASSERT_TRUE(g.ok()) << g.status();
  ASSERT_EQ(g->size(), 2u);
  EXPECT_EQ((*g)[0].kind, SubgoalKind::kAtom);
  EXPECT_EQ((*g)[1].kind, SubgoalKind::kComparison);
}

TEST(ParseGoalTest, TrailingDotAllowed) {
  EXPECT_TRUE(ParseGoal("p(X).").ok());
}

// --- Modules ---------------------------------------------------------------------

TEST(ParseModuleTest, MinimalModule) {
  Result<ast::Module> m = ParseModule("module tiny; end");
  ASSERT_TRUE(m.ok()) << m.status();
  EXPECT_EQ(m->name, "tiny");
  EXPECT_TRUE(m->procedures.empty());
}

TEST(ParseModuleTest, TcProcedureFromPaper) {
  // §4, verbatim structure.
  Result<ast::Module> m = ParseModule(R"(
module graph;
edb e(X,Y);
export tc_e(X:Y);
procedure tc_e (X:Y)
rels connected(X,Y);
  connected(X,Y):= in(X) & e(X,Y).
  repeat
    connected(X,Y)+= connected(X,Z) & e(Z,Y).
  until unchanged( connected(_,_));
  return(X:Y):= connected(X,Y).
end
end
)");
  ASSERT_TRUE(m.ok()) << m.status();
  ASSERT_EQ(m->procedures.size(), 1u);
  const ast::Procedure& p = m->procedures[0];
  EXPECT_EQ(p.name, "tc_e");
  EXPECT_EQ(p.bound_arity, 1u);
  EXPECT_EQ(p.free_arity, 1u);
  ASSERT_EQ(p.locals.size(), 1u);
  EXPECT_EQ(p.locals[0].name, "connected");
  EXPECT_EQ(p.locals[0].arity, 2u);
  ASSERT_EQ(p.body.size(), 3u);
  EXPECT_TRUE(p.body[0].is_assignment());
  EXPECT_FALSE(p.body[1].is_assignment());
  EXPECT_TRUE(p.body[2].is_assignment());
  EXPECT_EQ(p.body[2].assignment().head_colon, 1);
}

TEST(ParseModuleTest, ExportsImportsEdb) {
  Result<ast::Module> m = ParseModule(R"(
module example;
export select(:Key), count_all(:N);
from windows import event( :Type, Data );
from graphics import highlight( Key: ), dehighlight( Key: );
edb element(Key, Origin, P1, P2, DS ), tolerance(T);
end
)");
  ASSERT_TRUE(m.ok()) << m.status();
  ASSERT_EQ(m->exports.size(), 2u);
  EXPECT_EQ(m->exports[0].name, "select");
  EXPECT_EQ(m->exports[0].bound_arity, 0u);
  EXPECT_EQ(m->exports[0].free_arity, 1u);
  ASSERT_EQ(m->imports.size(), 3u);
  EXPECT_EQ(m->imports[0].from_module, "windows");
  EXPECT_EQ(m->imports[0].sig.bound_arity, 0u);
  EXPECT_EQ(m->imports[0].sig.free_arity, 2u);
  EXPECT_EQ(m->imports[1].sig.bound_arity, 1u);
  EXPECT_EQ(m->imports[1].sig.free_arity, 0u);
  ASSERT_EQ(m->edb.size(), 2u);
  EXPECT_EQ(m->edb[0].arity, 5u);
  EXPECT_EQ(m->edb[1].arity, 1u);
}

TEST(ParseModuleTest, NailRulesAndFacts) {
  Result<ast::Module> m = ParseModule(R"(
module kb;
edb edge(X,Y);
edge(1,2).
edge(2,3).
path(X,Y) :- edge(X,Y).
path(X,Z) :- path(X,Y) & edge(Y,Z).
end
)");
  ASSERT_TRUE(m.ok()) << m.status();
  EXPECT_EQ(m->facts.size(), 2u);
  EXPECT_EQ(m->rules.size(), 2u);
}

TEST(ParseModuleTest, RulesBesideAProcedure) {
  Result<ast::Module> m = ParseModule(R"(
module graph;
edb e(X,Y);
export tc_e(X:Y);
path(X,Y) :- e(X,Y).
path(X,Z) :- path(X,Y) & e(Y,Z).
procedure tc_e (X:Y)
rels connected(X,Y);
  connected(X,Y):= in(X) & e(X,Y).
  repeat
    connected(X,Y)+= connected(X,Z) & e(Z,Y).
  until unchanged( connected(_,_));
  return(X:Y):= connected(X,Y).
end
end
)");
  ASSERT_TRUE(m.ok()) << m.status();
  EXPECT_EQ(m->rules.size(), 2u);
  ASSERT_EQ(m->procedures.size(), 1u);
  EXPECT_EQ(m->procedures[0].body.size(), 3u);
}

TEST(ParseModuleTest, NonGroundFactFails) {
  EXPECT_FALSE(ParseModule("module bad; edge(1,X). end").ok());
}

TEST(ParseModuleTest, UnterminatedModuleFails) {
  EXPECT_FALSE(ParseModule("module oops; edb p(X);").ok());
}

TEST(ParseModuleTest, ProcedureRequiresColon) {
  EXPECT_FALSE(ParseModule("module m; proc f(X) end end").ok());
}

TEST(ParseProgramTest, MultipleModules) {
  Result<ast::Program> p = ParseProgram(
      "module a; edb p(X); end module b; edb q(X); end");
  ASSERT_TRUE(p.ok()) << p.status();
  EXPECT_EQ(p->modules.size(), 2u);
}

TEST(ParseProgramTest, EmptyInputFails) {
  EXPECT_FALSE(ParseProgram("").ok());
}

// The full Figure 1 module (cleaned of its OCR typos) must parse.
TEST(ParseModuleTest, Figure1CadModule) {
  Result<ast::Module> m = ParseModule(R"(
module example;
export select(:Key);
from windows import event( :Type, Data );
from graphics import
  highlight( Key: ), dehighlight( Key: );
edb element(Key, Origin, P1, P2, DS ),
    tolerance(T);

proc select( :Key )
rels
  possible(Key, D), try(Key), confirmed(Key);
  possible( Key, D ):=
        event( mouse, p(X,Y) ) &
        graphic_search( p(X,Y), Key, D ).
  repeat
    try(Key):=
      possible( Key, D ) &
      D = min(D) &
      It = arbitrary(Key) &
      --possible( It, D ).
    confirmed(K):=
      try(K) &
      highlight(K) &
      write( 'This one?' ) &
      event( keyboard, KeyBuffer ) &
      dehighlight( K ) &
      KeyBuffer = 'y'.
  until {confirmed(K) | empty(possible(K,D)) };
  return(:Key):= confirmed( Key ).
end

graphic_search( p(X,Y), Key, Dist ):-
  element( Key, _, p(Xmin, Ymin), _,_ ) &
  tolerance(T) &
  (X-Xmin)*(X-Xmin) + (Y-Ymin)*(Y-Ymin) < T &
  Dist = (X-Xmin)*(X-Xmin) + (Y-Ymin)*(Y-Ymin).
end
)");
  ASSERT_TRUE(m.ok()) << m.status();
  ASSERT_EQ(m->procedures.size(), 1u);
  ASSERT_EQ(m->rules.size(), 1u);
  const ast::Procedure& p = m->procedures[0];
  EXPECT_EQ(p.name, "select");
  EXPECT_EQ(p.bound_arity, 0u);
  EXPECT_EQ(p.free_arity, 1u);
  EXPECT_EQ(p.locals.size(), 3u);
  ASSERT_EQ(p.body.size(), 3u);
}

}  // namespace
}  // namespace gluenail
