// Checks every oracle of the workload benchmark against the engine at
// small scale, so a wrong answer in a benchmark run means the engine (not
// the oracle) is wrong.

#include <gtest/gtest.h>

#include "bench/workloads/generators.h"
#include "bench/workloads/harness.h"
#include "src/api/session.h"
#include "src/common/strings.h"

namespace gluenail {
namespace workloads {
namespace {

class OracleTest : public ::testing::Test {
 protected:
  void Load(const std::string& module, const MutationBatch& edb) {
    ASSERT_TRUE(session_.Execute(Command::LoadProgramText(module)).ok());
    ASSERT_TRUE(session_.Execute(Command::MutateBatch(edb)).ok());
  }
  Rows Query(const std::string& goal) {
    Response r = session_.Execute(Command::Query(goal));
    EXPECT_TRUE(r.ok()) << goal << ": " << r.status.ToString();
    return IntRows(r.rows, engine_.terms());
  }
  static Rows Column(const std::vector<int64_t>& values) {
    Rows out;
    for (int64_t v : values) out.push_back({v});
    return out;
  }

  Engine engine_;
  Session session_ = engine_.OpenSession();
};

constexpr const char* kTc =
    "module kb;\nedb edge(X,Y);\npath(X,Y) :- edge(X,Y).\n"
    "path(X,Z) :- path(X,Y) & edge(Y,Z).\nend\n";

TEST_F(OracleTest, CycleClosure) {
  MutationBatch edb;
  AddFacts("edge", CycleEdges(7), &edb);
  Load(kTc, edb);
  EXPECT_EQ(Query("path(X,Y)").size(), CycleClosureSize(7));
  EXPECT_EQ(Query("path(3,Y)"), Column({0, 1, 2, 3, 4, 5, 6}));
}

TEST_F(OracleTest, CompleteClosure) {
  MutationBatch edb;
  AddFacts("edge", CompleteEdges(5), &edb);
  Load(kTc, edb);
  EXPECT_EQ(Query("path(X,Y)").size(), CompleteClosureSize(5));
}

TEST_F(OracleTest, SameGeneration) {
  const int depth = 3;
  MutationBatch edb;
  for (int64_t v = 0; v < TreeNodes(depth); ++v) edb.Insert(StrCat("node(", v, ")"));
  AddFacts("par", TreeParentEdges(depth), &edb);
  Load("module kb;\nedb node(X), par(X,Y);\nsg(X,X) :- node(X).\n"
       "sg(X,Y) :- par(X,XP) & sg(XP,YP) & par(Y,YP).\nend\n",
       edb);
  EXPECT_EQ(Query("sg(X,Y)").size(), SameGenerationSize(depth));
  for (int64_t v : {int64_t{0}, int64_t{2}, int64_t{5}, TreeNodes(depth) - 1}) {
    EXPECT_EQ(Query(StrCat("sg(", v, ",Y)")), Column(SameGenerationOf(v))) << v;
  }
}

TEST_F(OracleTest, UnreachableIsTheBfsComplement) {
  std::mt19937_64 rng = Rng(7, 1);
  const int64_t nodes = 300;
  std::vector<Edge> edges = RandomEdges(nodes, 330, rng);
  std::vector<int64_t> sources = RandomNodes(nodes, 3, rng);
  MutationBatch edb;
  for (int64_t v = 0; v < nodes; ++v) edb.Insert(StrCat("node(", v, ")"));
  AddFacts("edge", edges, &edb);
  for (int64_t s : sources) edb.Insert(StrCat("source(", s, ")"));
  Load("module kb;\nedb node(X), edge(X,Y), source(X);\n"
       "reach(X) :- source(X).\nreach(Y) :- reach(X) & edge(X,Y).\n"
       "unreach(X) :- node(X) & !reach(X).\nend\n",
       edb);
  std::vector<int64_t> want = Unreachable(nodes, edges, sources);
  EXPECT_FALSE(want.empty());
  EXPECT_LT(want.size(), static_cast<size_t>(nodes));
  EXPECT_EQ(Query("unreach(X)"), Column(want));
}

TEST_F(OracleTest, JoinLadderIsAComposedPermutation) {
  std::mt19937_64 rng = Rng(7, 2);
  JoinLadder ladder = MakeJoinLadder(60, rng);
  MutationBatch edb;
  for (int r = 0; r < 4; ++r) {
    for (size_t a = 0; a < 60; ++a) {
      edb.Insert(StrCat("r", r + 1, "(", a, ",", ladder.perm[static_cast<size_t>(r)][a], ")"));
    }
  }
  Load("module kb;\nedb r1(A,B), r2(A,B), r3(A,B), r4(A,B), out(A,B);\nend\n", edb);
  ASSERT_TRUE(session_
                  .Execute(Command::MutateStatement(
                      "out(A,E) := r1(A,B) & r2(B,C) & r3(C,D) & r4(D,E)."))
                  .ok());
  Rows want;
  for (int64_t a = 0; a < 60; ++a) want.push_back({a, ladder.Out(a)});
  EXPECT_EQ(Query("out(A,E)"), want);
}

TEST_F(OracleTest, GroupSums) {
  std::mt19937_64 rng = Rng(7, 3);
  Sales sales = MakeSales(500, 7, rng);
  MutationBatch edb;
  for (const auto& row : sales.rows) {
    edb.Insert(StrCat("sale(", row[0], ",", row[1], ",", row[2], ")"));
  }
  Load("module kb;\nedb sale(I,G,V), total(G,S);\nend\n", edb);
  ASSERT_TRUE(session_
                  .Execute(Command::MutateStatement(
                      "total(G,S) := sale(I,G,V) & group_by(G) & S = sum(V)."))
                  .ok());
  Rows want;
  for (int64_t g = 0; g < 7; ++g) want.push_back({g, sales.group_sums[static_cast<size_t>(g)]});
  EXPECT_EQ(Query("total(G,S)"), want);
}

TEST_F(OracleTest, ChainClosure) {
  MutationBatch edb;
  AddFacts("edge", ChainEdges(4, 10), &edb);
  Load(kTc, edb);
  EXPECT_EQ(Query("path(X,Y)").size(), ChainClosureSize(4, 10));
  std::vector<int64_t> tail;
  for (int q = 4; q <= 10; ++q) tail.push_back(ChainNode(2, q));
  EXPECT_EQ(Query(StrCat("path(", ChainNode(2, 3), ",Y)")), Column(tail));
}

// The write stream: the acked state the generator predicts is what the
// engine holds, and every batch inserts only fresh facts and erases only
// live ones (so the live sizes stay constant).
TEST_F(OracleTest, ChurnWritersPredictTheAckedState) {
  ChurnShape shape;
  shape.chains = 30;
  shape.live_events = 40;
  shape.live_shortcuts = 20;
  std::vector<ChurnWriter> writers;
  for (int w = 0; w < shape.writers; ++w) writers.emplace_back(shape, w, 100 + w);
  MutationBatch edb;
  AddFacts("edge", ChainEdges(shape.chains, shape.length), &edb);
  for (const ChurnWriter& w : writers) w.AddInitialFacts(&edb);
  Load("module kb;\nedb edge(X,Y), event(I,N);\n"
       "path(X,Y) :- edge(X,Y).\npath(X,Z) :- path(X,Y) & edge(Y,Z).\n"
       "seen(N) :- event(_,N).\nend\n",
       edb);
  for (int round = 0; round < 12; ++round) {
    for (ChurnWriter& w : writers) {
      Response r = session_.Execute(Command::MutateBatch(w.Propose()));
      ASSERT_TRUE(r.ok());
      EXPECT_EQ(r.applied, 4u * shape.per_kind);
      EXPECT_EQ(r.inserted, 2u * shape.per_kind);
      EXPECT_EQ(r.erased, 2u * shape.per_kind);
      w.Commit();
    }
    // A proposal that is never acked must not change the prediction.
    writers[0].Propose();
  }
  ChurnState want = ExpectedChurnState(shape, writers);
  Rows edges, events;
  for (const Edge& e : want.edges) edges.push_back({e.from, e.to});
  for (const Event& e : want.events) events.push_back({e.id, e.node});
  EXPECT_EQ(Query("edge(X,Y)"), edges);
  EXPECT_EQ(Query("event(I,N)"), events);
  EXPECT_EQ(Query("seen(N)"), Column(want.seen));
  EXPECT_EQ(Query("path(X,Y)").size(), ChainClosureSize(shape.chains, shape.length));
  EXPECT_EQ(want.events.size(), static_cast<size_t>(shape.writers * shape.live_events));
}

TEST(ZipfTest, RanksStayInRangeAndHeadIsHot) {
  Zipf zipf(1000, 1.1);
  std::mt19937_64 rng = Rng(1, 1);
  std::vector<int> counts(1000, 0);
  for (int i = 0; i < 20000; ++i) {
    int64_t k = zipf.Next(rng);
    ASSERT_GE(k, 0);
    ASSERT_LT(k, 1000);
    ++counts[static_cast<size_t>(k)];
  }
  EXPECT_GT(counts[0], counts[1]);
  EXPECT_GT(counts[1], counts[100]);
}

}  // namespace
}  // namespace workloads
}  // namespace gluenail
