/// HiLog higher-order programming tests (paper §5): set-valued attributes
/// holding predicate names, dynamic dereferencing with bound and unbound
/// name variables, parameterized EDB families, and dynamic heads.

#include <gtest/gtest.h>

#include "src/api/engine.h"

namespace gluenail {
namespace {

class HiLogTest : public ::testing::TestWithParam<ExecOptions::Strategy> {
 protected:
  HiLogTest() {
    EngineOptions opts;
    opts.exec.strategy = GetParam();
    engine_ = std::make_unique<Engine>(opts);
  }

  void Fact(std::string_view f) {
    Status s = engine_->AddFact(f);
    ASSERT_TRUE(s.ok()) << s;
  }

  std::string Ask(std::string_view goal) {
    Result<Engine::QueryResult> r = engine_->Query(goal);
    EXPECT_TRUE(r.ok()) << goal << ": " << r.status();
    if (!r.ok()) return "<error>";
    std::string out;
    for (size_t i = 0; i < r->rows.size(); ++i) {
      if (i != 0) out += ";";
      for (size_t j = 0; j < r->rows[i].size(); ++j) {
        if (j != 0) out += ",";
        out += engine_->terms().ToString(r->rows[i][j]);
      }
    }
    return out;
  }

  std::unique_ptr<Engine> engine_;
};

TEST_P(HiLogTest, DeptEmployeesFromPaper) {
  // §5.1: "dept_employees( toy, E_set ) & E_set( Emp_name )".
  Fact("dept_employees(toy, toy_staff).");
  Fact("dept_employees(tools, tool_staff).");
  Fact("toy_staff(alice).");
  Fact("toy_staff(bob).");
  Fact("tool_staff(carol).");
  EXPECT_EQ(Ask("dept_employees(toy, E_set) & E_set(Emp)"),
            "toy_staff,alice;toy_staff,bob");
}

TEST_P(HiLogTest, SetNameEqualityIsTermEquality) {
  // §5.1: same name => same set; no member comparison needed.
  Fact("a(team1, s).");
  Fact("b(team2, s).");
  ASSERT_TRUE(engine_->ExecuteStatement(
                  "same_set(X, Y) := a(X, S) & b(Y, S).")
                  .ok());
  EXPECT_EQ(Ask("same_set(X,Y)"), "team1,team2");
}

TEST_P(HiLogTest, UnboundPredicateVariableEnumerates) {
  // E unbound: ranges over every predicate name of matching arity.
  Fact("red(apple).");
  Fact("red(rose).");
  Fact("blue(sky).");
  EXPECT_EQ(Ask("C(apple)"), "red");
  EXPECT_EQ(Ask("C(X) & X = sky"), "blue,sky");
}

TEST_P(HiLogTest, ParameterizedEdbFamilies) {
  Fact("students(cs99)(wilson).");
  Fact("students(cs99)(green).");
  Fact("students(cs101)(jones).");
  // Ground instance lookup.
  EXPECT_EQ(Ask("students(cs99)(S)"), "green;wilson");
  // Family iteration with an unbound parameter.
  EXPECT_EQ(Ask("students(C)(jones)"), "cs101");
}

TEST_P(HiLogTest, DynamicHeadWritesNamedRelation) {
  // Meta-programming: the written relation's name is computed.
  Fact("route(alice, inbox_alice).");
  Fact("route(bob, inbox_bob).");
  Fact("message(alice, hi).");
  Fact("message(bob, yo).");
  ASSERT_TRUE(engine_->ExecuteStatement(
                  "Box(Msg) += message(Who, Msg) & route(Who, Box).")
                  .ok());
  EXPECT_EQ(Ask("inbox_alice(M)"), "hi");
  EXPECT_EQ(Ask("inbox_bob(M)"), "yo");
}

TEST_P(HiLogTest, DynamicUpdateSubgoal) {
  Fact("queue_of(a, qa).");
  Fact("qa(job1).");
  ASSERT_TRUE(engine_->ExecuteStatement(
                  "drained(J) += queue_of(a, Q) & Q(J) & --Q(J).")
                  .ok());
  EXPECT_EQ(Ask("drained(J)"), "job1");
  EXPECT_EQ(Ask("qa(J)"), "");
}

TEST_P(HiLogTest, CompoundNameBuiltFromVariables) {
  Fact("students(cs99)(wilson).");
  Fact("course(cs99).");
  // Name pattern students(C) with C bound: direct lookup per record.
  EXPECT_EQ(Ask("course(C) & students(C)(S)"), "cs99,wilson");
}

TEST_P(HiLogTest, NegatedDynamicWithBoundName) {
  Fact("set_of(x, sx).");
  Fact("sx(1).");
  Fact("candidate(1).");
  Fact("candidate(2).");
  ASSERT_TRUE(engine_->ExecuteStatement(
                  "missing(V) := candidate(V) & set_of(x, S) & !S(V).")
                  .ok());
  EXPECT_EQ(Ask("missing(V)"), "2");
}

TEST_P(HiLogTest, EnumerationSkipsInternalRelations) {
  // Reserved NAIL! relations must never leak into HiLog enumeration. The
  // parameterized reach(X)(Y) is stored flattened as $nail(reach,1,1),
  // which holds the binary row (1,2); only its published instance reach(1),
  // of arity 1, is a predicate a query can name.
  ASSERT_TRUE(engine_->LoadProgram(R"(
module kb;
edb edge(X,Y);
path(X,Y) :- edge(X,Y).
path(X,Z) :- path(X,Y) & edge(Y,Z).
reach(X)(Y) :- edge(X,Y).
edge(1,2).
end
)").ok());
  ASSERT_EQ(Ask("reach(1)(Y)"), "2");
  // P ranges over binary predicates: edge (EDB) and path (the memo, stored
  // under its own name), but not $nail(reach,1,1).
  Result<Engine::QueryResult> r = engine_->Query("P(1,2)");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->rows.size(), 2u);
  EXPECT_EQ(engine_->terms().ToString(r->rows[0][0]), "edge");
  EXPECT_EQ(engine_->terms().ToString(r->rows[1][0]), "path");
}

TEST_P(HiLogTest, CurriedDataTermsRoundTrip) {
  Fact("config(limits(cpu)(high), 99).");
  EXPECT_EQ(Ask("config(limits(cpu)(L), N)"), "high,99");
}

INSTANTIATE_TEST_SUITE_P(
    Strategies, HiLogTest,
    ::testing::Values(ExecOptions::Strategy::kMaterialized,
                      ExecOptions::Strategy::kPipelined),
    [](const ::testing::TestParamInfo<ExecOptions::Strategy>& info) {
      return info.param == ExecOptions::Strategy::kMaterialized
                 ? "Materialized"
                 : "Pipelined";
    });

}  // namespace
}  // namespace gluenail
