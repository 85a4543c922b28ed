/// Tests for Engine::ExplainStatement (plain and ANALYZE forms) and the
/// magic query strategy.

#include <gtest/gtest.h>

#include "src/api/engine.h"
#include "src/common/strings.h"

namespace gluenail {
namespace {

TEST(ExplainTest, ShowsKeyedSelectionAfterReorder) {
  // This test documents the *syntactic* reorder heuristic, kept as the
  // A/B baseline for the cost-based planner.
  EngineOptions opts;
  opts.planner.cost_model = PlannerOptions::CostModel::kSyntactic;
  Engine engine(opts);
  ASSERT_TRUE(engine.AddFact("seed(1).").ok());
  ASSERT_TRUE(engine.AddFact("big(1,2).").ok());
  Result<std::string> plan =
      engine.ExplainStatement("out(Y) := big(S, X) & lookup(X, Y) & "
                              "seed(S).");
  ASSERT_TRUE(plan.ok()) << plan.status();
  // The reorderer runs seed first; big then probes keyed on its first
  // column; lookup keyed on its first column.
  size_t seed_pos = plan->find("match edb seed");
  size_t big_pos = plan->find("match edb big");
  size_t lookup_pos = plan->find("match edb lookup");
  ASSERT_NE(seed_pos, std::string::npos) << *plan;
  ASSERT_NE(big_pos, std::string::npos);
  ASSERT_NE(lookup_pos, std::string::npos);
  EXPECT_LT(seed_pos, big_pos);
  EXPECT_LT(big_pos, lookup_pos);
  EXPECT_NE(plan->find("match edb big/2 keyed[c0]"), std::string::npos)
      << *plan;
}

TEST(ExplainTest, CostModelOrdersBySelectivity) {
  Engine engine;  // cost_model defaults to kStatistics
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(
        engine.AddFact("big(" + std::to_string(i) + "," +
                       std::to_string(i + 1) + ").").ok());
  }
  ASSERT_TRUE(engine.AddFact("tiny(5).").ok());
  ASSERT_TRUE(engine.AddFact("tiny(6).").ok());
  ASSERT_TRUE(engine.AddFact("tiny(7).").ok());
  // Written order scans big (100 rows) first. The statistics planner runs
  // tiny (3 rows) first and probes big keyed on its now-bound column —
  // and, since big is large and the probe repeats, schedules the index
  // build up front.
  Result<std::string> plan =
      engine.ExplainStatement("out(Y) := big(X, Y) & tiny(X).");
  ASSERT_TRUE(plan.ok()) << plan.status();
  size_t tiny_pos = plan->find("match edb tiny");
  size_t big_pos = plan->find("match edb big/2 keyed[c0]");
  ASSERT_NE(tiny_pos, std::string::npos) << *plan;
  ASSERT_NE(big_pos, std::string::npos) << *plan;
  EXPECT_LT(tiny_pos, big_pos);
  EXPECT_NE(plan->find("; est="), std::string::npos) << *plan;
  EXPECT_NE(plan->find("; build-index"), std::string::npos) << *plan;
}

TEST(ExplainTest, AnalyzeShowsEstimatedVsActualRowsOnBothExecutors) {
  for (auto strategy : {ExecOptions::Strategy::kMaterialized,
                        ExecOptions::Strategy::kPipelined}) {
    EngineOptions eopts;
    eopts.exec.strategy = strategy;
    Engine engine(eopts);
    ASSERT_TRUE(engine.AddFact("e(1,2).").ok());
    ASSERT_TRUE(engine.AddFact("e(2,3).").ok());
    ExplainOptions opts;
    opts.analyze = true;
    Result<std::string> plan =
        engine.ExplainStatement("out(X,Y) := e(X,Y).", opts);
    ASSERT_TRUE(plan.ok()) << plan.status();
    EXPECT_NE(plan->find("est=2 actual=2"), std::string::npos) << *plan;
    // ANALYZE executes the statement, side effects included.
    Result<Engine::QueryResult> rows = engine.Query("out(X, Y)");
    ASSERT_TRUE(rows.ok()) << rows.status();
    EXPECT_EQ(rows->rows.size(), 2u);
  }
}

TEST(ExplainTest, ShowsBarriersAndHead) {
  Engine engine;
  Result<std::string> plan = engine.ExplainStatement(
      "avg(C, A) := m(C, V) & group_by(C) & A = mean(V).");
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_NE(plan->find("group_by"), std::string::npos);
  EXPECT_NE(plan->find("aggregate mean"), std::string::npos);
  EXPECT_NE(plan->find("fixed"), std::string::npos);
  EXPECT_NE(plan->find("head: := edb avg/2"), std::string::npos) << *plan;
}

TEST(ExplainTest, ShowsModifyKeyAndUpdates) {
  Engine engine;
  Result<std::string> plan = engine.ExplainStatement(
      "salary(E, S) +=[E] raise(E, S) & --raise(E, S).");
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_NE(plan->find("delete from edb raise/2"), std::string::npos)
      << *plan;
  EXPECT_NE(plan->find("key_mask=1"), std::string::npos);
}

TEST(ExplainTest, ShowsLoopStructureViaStats) {
  Engine engine;
  Result<std::string> plan = engine.ExplainStatement(
      "repeat p(X) += q(X). until unchanged(p(_));");
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_NE(plan->find("match edb q"), std::string::npos) << *plan;
}

TEST(ExplainTest, CostsNailReadsAgainstTheRefreshedMemo) {
  // EXPLAIN plans a NAIL! read against the memo refreshed from the current
  // EDB: right after a batch that makes `path` stale it shows the
  // estimates it shows once the memo is refreshed.
  Engine engine;
  ASSERT_TRUE(engine.LoadProgram(R"(
module kb;
edb edge(X,Y);
path(X,Y) :- edge(X,Y).
path(X,Z) :- path(X,Y) & edge(Y,Z).
edge(0,1). edge(1,2). edge(2,3).
end
)").ok());
  ASSERT_TRUE(engine.Query("path(1,Y)").ok());
  MutationBatch chain;
  for (int i = 3; i < 60; ++i) {
    chain.Insert(StrCat("edge(", i, ",", i + 1, ")"));
  }
  ASSERT_TRUE(engine.ApplyBatch(chain).ok());
  Result<std::string> stale = engine.ExplainStatement("out(Y) := path(1,Y).");
  ASSERT_TRUE(stale.ok()) << stale.status();
  ASSERT_TRUE(engine.Query("path(1,Y)").ok());
  Result<std::string> fresh = engine.ExplainStatement("out(Y) := path(1,Y).");
  ASSERT_TRUE(fresh.ok()) << fresh.status();
  EXPECT_NE(fresh->find("est="), std::string::npos) << *fresh;
  EXPECT_EQ(*stale, *fresh);
}

QueryOptions MagicOptions() {
  QueryOptions opts;
  opts.strategy = QueryStrategy::kMagic;
  return opts;
}

TEST(QueryMagicTest, BoundQueryMatchesPlainQuery) {
  Engine engine;
  ASSERT_TRUE(engine.LoadProgram(R"(
module kb;
edb edge(X,Y);
path(X,Y) :- edge(X,Y).
path(X,Z) :- edge(X,Y) & path(Y,Z).
edge(1,2). edge(2,3). edge(10,11).
end
)").ok());
  QueryOptions magic_opts;
  magic_opts.strategy = QueryStrategy::kMagic;
  Result<Engine::QueryResult> magic = engine.Query("path(1, Y)", magic_opts);
  ASSERT_TRUE(magic.ok()) << magic.status();
  Result<Engine::QueryResult> plain = engine.Query("path(1, Y)");
  ASSERT_TRUE(plain.ok());
  ASSERT_EQ(magic->rows.size(), plain->rows.size());
  EXPECT_EQ(magic->vars, (std::vector<std::string>{"Y"}));
  for (size_t i = 0; i < magic->rows.size(); ++i) {
    EXPECT_EQ(magic->rows[i], plain->rows[i]);
  }
}

TEST(QueryMagicTest, WildcardsAreFreeColumns) {
  Engine engine;
  ASSERT_TRUE(engine.LoadProgram(R"(
module kb;
edb edge(X,Y);
path(X,Y) :- edge(X,Y).
path(X,Z) :- edge(X,Y) & path(Y,Z).
edge(1,2). edge(2,3).
end
)").ok());
  Result<Engine::QueryResult> r =
      engine.Query("path(1, _)", MagicOptions());
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->rows.size(), 2u);
}

TEST(QueryMagicTest, RejectsNonAtomGoals) {
  Engine engine;
  ASSERT_TRUE(engine.LoadProgram(R"(
module kb;
edb e(X);
p(X) :- e(X).
end
)").ok());
  EXPECT_TRUE(engine.Query("p(X) & p(Y)", MagicOptions())
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(engine.Query("p(X + 1)", MagicOptions())
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(engine.Query("zzz(X)", MagicOptions())
                  .status()
                  .IsInvalidArgument());
}

}  // namespace
}  // namespace gluenail
