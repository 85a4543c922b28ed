/// Incremental view maintenance suite (ctest -L ivm): differential
/// incremental-vs-full equality across insert-only / erase-only / mixed
/// batches on non-recursive, recursive (transitive closure over cyclic
/// graphs), stratified-negation, and HiLog-parameterized programs; both
/// execution strategies; a randomized differential over seven recursive
/// and three non-recursive programs; fallback behavior (delta fraction,
/// dropped captures, statement writes and inline EDB loads captured like
/// batches); salvage-recovery invalidation; metrics/EXPLAIN surfacing;
/// and concurrent readers during refresh (the tsan target).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <iterator>
#include <memory>
#include <random>
#include <set>
#include <thread>
#include <vector>

#include "src/api/engine.h"
#include "src/api/session.h"
#include "src/common/strings.h"

namespace gluenail {
namespace {

std::string Render(Engine* engine, const Result<Engine::QueryResult>& r) {
  EXPECT_TRUE(r.ok()) << r.status();
  if (!r.ok()) return "<error>";
  std::string out;
  for (size_t i = 0; i < r->rows.size(); ++i) {
    if (i != 0) out += ";";
    for (size_t j = 0; j < r->rows[i].size(); ++j) {
      if (j != 0) out += ",";
      out += engine->terms().ToString(r->rows[i][j]);
    }
  }
  return out;
}

/// Differential pair: the same program and batch sequence applied to an
/// engine with delta maintenance forced and to an always-recompute
/// oracle. After every batch, every probe goal must agree.
class IvmPair {
 public:
  explicit IvmPair(EngineOptions base = EngineOptions{}) {
    EngineOptions ivm = base;
    ivm.ivm_mode = IvmMode::kForce;
    EngineOptions full = base;
    full.ivm_mode = IvmMode::kOff;
    ivm_ = std::make_unique<Engine>(ivm);
    full_ = std::make_unique<Engine>(full);
  }

  void Load(std::string_view src) {
    ASSERT_TRUE(ivm_->LoadProgram(src).ok());
    ASSERT_TRUE(full_->LoadProgram(src).ok());
  }

  void Apply(const MutationBatch& batch) {
    Result<MutationBatch::ApplyReport> a = ivm_->ApplyBatch(batch);
    Result<MutationBatch::ApplyReport> b = full_->ApplyBatch(batch);
    ASSERT_TRUE(a.ok()) << a.status();
    ASSERT_TRUE(b.ok()) << b.status();
    EXPECT_EQ(a->inserted, b->inserted);
    EXPECT_EQ(a->erased, b->erased);
  }

  /// Runs one Glue statement on both engines.
  void Execute(std::string_view statement) {
    Status a = ivm_->ExecuteStatement(statement);
    Status b = full_->ExecuteStatement(statement);
    ASSERT_TRUE(a.ok()) << a;
    ASSERT_TRUE(b.ok()) << b;
  }

  /// Runs one Glue statement that both engines must refuse with
  /// InvalidArgument.
  void Refuse(std::string_view statement) {
    Status a = ivm_->ExecuteStatement(statement);
    Status b = full_->ExecuteStatement(statement);
    EXPECT_TRUE(a.IsInvalidArgument()) << a;
    EXPECT_TRUE(b.IsInvalidArgument()) << b;
  }

  /// Calls the exported procedure \p name on both engines with one input
  /// tuple, each argument interned into the engine's own pool.
  void Call(std::string_view name, std::vector<std::string_view> args) {
    for (Engine* engine : {ivm_.get(), full_.get()}) {
      Tuple input;
      for (std::string_view a : args) input.push_back(*engine->InternTerm(a));
      Result<std::vector<Tuple>> r = engine->Call(name, {input});
      ASSERT_TRUE(r.ok()) << r.status();
    }
  }

  void Check(std::string_view goal) {
    EXPECT_EQ(Render(ivm_.get(), ivm_->Query(goal)),
              Render(full_.get(), full_->Query(goal)))
        << "goal " << goal << " diverged (last ivm refresh: "
        << ivm_->nail_engine()->last_refresh().mode << " fallback='"
        << ivm_->nail_engine()->last_refresh().fallback << "')";
  }

  /// Compares the stored relation \p name / \p arity, read by name.
  void CheckContents(std::string_view name, uint32_t arity) {
    EXPECT_EQ(Contents(ivm_.get(), name, arity),
              Contents(full_.get(), name, arity))
        << "relation " << name << "/" << arity << " diverged";
  }

  Engine* ivm() { return ivm_.get(); }
  NailEngine* nail() { return ivm_->nail_engine(); }

 private:
  static std::string Contents(Engine* engine, std::string_view name,
                              uint32_t arity) {
    Result<std::vector<Tuple>> rows = engine->RelationContents(name, arity);
    EXPECT_TRUE(rows.ok()) << rows.status();
    if (!rows.ok()) return "<error>";
    std::string out;
    for (const Tuple& t : *rows) {
      if (!out.empty()) out += ";";
      for (size_t j = 0; j < t.size(); ++j) {
        if (j != 0) out += ",";
        out += engine->terms().ToString(t[j]);
      }
    }
    return out;
  }

  std::unique_ptr<Engine> ivm_;
  std::unique_ptr<Engine> full_;
};

MutationBatch Batch(std::initializer_list<std::string> inserts,
                    std::initializer_list<std::string> erases = {}) {
  MutationBatch b;
  for (const std::string& f : inserts) b.Insert(f);
  for (const std::string& f : erases) b.Erase(f);
  return b;
}

constexpr std::string_view kJoinProgram = R"(
module kb;
edb takes(S, C), offered(C, T);
enrolled(S, T) :- takes(S, C) & offered(C, T).
offered(cs99, databases).
offered(cs101, logic).
takes(wilson, cs99).
takes(green, cs99).
end
)";

constexpr std::string_view kTcProgram = R"(
module kb;
edb edge(X,Y);
path(X,Y) :- edge(X,Y).
path(X,Z) :- path(X,Y) & edge(Y,Z).
edge(1,2).
edge(2,3).
edge(3,1).
edge(4,5).
end
)";

// --- Non-recursive SCCs (the degenerate DRed case) -------------------------

TEST(IvmNonRecursive, InsertOnlyBatches) {
  IvmPair pair;
  pair.Load(kJoinProgram);
  pair.Check("enrolled(S, T)");  // first (full) materialization
  pair.Apply(Batch({"takes(jones, cs101)"}));
  pair.Check("enrolled(S, T)");
  EXPECT_EQ(pair.nail()->last_refresh().mode, "dred");
  EXPECT_GE(pair.nail()->delta_refresh_count(), 1u);
  pair.Apply(Batch({"takes(smith, cs99)", "takes(smith, cs101)"}));
  pair.Check("enrolled(S, T)");
  EXPECT_EQ(pair.nail()->last_refresh().mode, "dred");
}

TEST(IvmNonRecursive, EraseKeepsMultiplySupportedTuples) {
  IvmPair pair;
  pair.Load(kJoinProgram);
  // enrolled(wilson, databases) will be derivable through BOTH cs99 and
  // cs98: erasing one support must keep the tuple (over-deleted, then
  // rederived).
  pair.Apply(Batch({"offered(cs98, databases)", "takes(wilson, cs98)"}));
  pair.Check("enrolled(S, T)");
  pair.Apply(Batch({}, {"takes(wilson, cs99)"}));
  pair.Check("enrolled(S, T)");
  EXPECT_EQ(pair.nail()->last_refresh().mode, "dred");
  // Now drop the last support; the tuple must go.
  pair.Apply(Batch({}, {"takes(wilson, cs98)"}));
  pair.Check("enrolled(S, T)");
  EXPECT_EQ(pair.nail()->last_refresh().mode, "dred");
}

TEST(IvmNonRecursive, MixedBatch) {
  IvmPair pair;
  pair.Load(kJoinProgram);
  pair.Check("enrolled(S, T)");
  pair.Apply(Batch({"takes(jones, cs101)", "offered(cs77, ai)"},
                   {"takes(green, cs99)"}));
  pair.Check("enrolled(S, T)");
  pair.Apply(Batch({"takes(green, cs77)"}, {"offered(cs101, logic)"}));
  pair.Check("enrolled(S, T)");
}

TEST(IvmNonRecursive, SelfJoinStaysIncremental) {
  // grandparent reads parent in two positions, so a parent delta changes
  // both at once. Inserts join through each position against the new
  // state; an erase over-deletes through a live ∪ erased copy of parent.
  IvmPair pair;
  pair.Load(R"(
module kb;
edb parent(X,Y);
grandparent(X,Z) :- parent(X,Y) & parent(Y,Z).
parent(abe, homer).
parent(homer, bart).
end
)");
  pair.Check("grandparent(X, Z)");
  pair.Apply(Batch({"parent(homer, lisa)"}));
  pair.Check("grandparent(X, Z)");
  EXPECT_EQ(pair.nail()->last_refresh().mode, "dred");
  EXPECT_EQ(pair.nail()->last_refresh().old_state_rows, 0u);
  pair.Apply(Batch({"parent(lisa, maggie)"}, {"parent(abe, homer)"}));
  pair.Check("grandparent(X, Z)");
  EXPECT_EQ(pair.nail()->last_refresh().mode, "dred");
  EXPECT_GT(pair.nail()->last_refresh().old_state_rows, 0u);
}

// --- DRed (recursive SCCs) -------------------------------------------------

TEST(IvmDred, InsertOnlyOnCyclicGraph) {
  IvmPair pair;
  pair.Load(kTcProgram);
  pair.Check("path(X, Y)");
  pair.Apply(Batch({"edge(5,6)"}));
  pair.Check("path(X, Y)");
  EXPECT_EQ(pair.nail()->last_refresh().mode, "dred");
  // Fuse the components: connects {4,5,6} into the cycle's reach.
  pair.Apply(Batch({"edge(3,4)"}));
  pair.Check("path(X, Y)");
}

TEST(IvmDred, EraseBreaksCycle) {
  IvmPair pair;
  pair.Load(kTcProgram);
  pair.Check("path(X, Y)");
  // Breaking the 3-cycle must over-delete and NOT rederive the cyclic
  // tuples (the classic DRed trap: every cycle tuple "supports" the
  // others).
  pair.Apply(Batch({}, {"edge(3,1)"}));
  pair.Check("path(X, Y)");
  EXPECT_EQ(pair.nail()->last_refresh().mode, "dred");
}

TEST(IvmDred, EraseWithAlternativeDerivationRederives) {
  IvmPair pair;
  pair.Load(kTcProgram);
  // Diamond: 10 -> 11 -> 13, 10 -> 12 -> 13. Deleting one arm must keep
  // 10~>13 via the rederivation pass.
  pair.Apply(Batch({"edge(10,11)", "edge(11,13)", "edge(10,12)",
                    "edge(12,13)"}));
  pair.Check("path(X, Y)");
  pair.Apply(Batch({}, {"edge(11,13)"}));
  pair.Check("path(X, Y)");
  EXPECT_EQ(pair.nail()->last_refresh().mode, "dred");
}

TEST(IvmDred, MixedBatchesOnCycle) {
  IvmPair pair;
  pair.Load(kTcProgram);
  pair.Check("path(X, Y)");
  pair.Apply(Batch({"edge(5,1)"}, {"edge(2,3)"}));
  pair.Check("path(X, Y)");
  pair.Apply(Batch({"edge(2,3)", "edge(3,6)"}, {"edge(4,5)", "edge(3,1)"}));
  pair.Check("path(X, Y)");
}

TEST(IvmDred, ChainGraftedOntoCycle) {
  IvmPair pair;
  pair.Load(kTcProgram);
  pair.Check("path(X, Y)");
  // A batch whose insertion phase runs a long fixpoint: a 64-edge chain
  // grafted onto the cycle, then cut off again.
  std::vector<std::string> chain;
  for (int i = 0; i < 64; ++i) {
    chain.push_back(StrCat("edge(", 100 + i, ",", 101 + i, ")"));
  }
  chain.push_back("edge(3,100)");
  MutationBatch grow;
  for (const std::string& f : chain) grow.Insert(f);
  pair.Apply(grow);
  pair.Check("path(1, Y)");
  EXPECT_EQ(pair.nail()->last_refresh().mode, "dred");
  pair.Apply(Batch({}, {"edge(3,100)"}));
  pair.Check("path(1, Y)");
  pair.Check("path(X, Y)");
}

TEST(IvmDred, EdbRelationSharesAMemoName) {
  // An EDB relation path/2 beside the NAIL! memo path/2: rules and queries
  // name the memo, so EDB path rows must never reach src. Every insert
  // under the memo's name is refused once the program is linked, so the
  // rows are written before; erasing them (by batch or by a dynamic HiLog
  // statement) puts an (EDB, path, 2) delta into DRed beside edge deltas.
  IvmPair pair;
  pair.Apply(Batch({"path(7,8)", "path(9,9)", "path(70,80)", "path(90,80)",
                    "rel(path)"}));
  pair.Load(R"(
module kb;
edb edge(X,Y);
path(X,Y) :- edge(X,Y).
path(X,Z) :- path(X,Y) & edge(Y,Z).
src(X) :- path(X,Y).
edge(1,2).
edge(2,3).
end
)");
  auto check = [&pair](std::string_view mode) {
    pair.Check("src(X)");
    pair.Check("path(X, Y)");
    EXPECT_EQ(pair.nail()->last_refresh().mode, mode);
  };
  check("full");
  // A dynamic HiLog insert under the memo's name is refused.
  pair.Refuse("R(X,Y) += rel(R) & X = 70 & Y = 81.");
  // Alone, erasing the EDB row changes nothing a rule reads.
  pair.Execute("R(X,Y) -= rel(R) & X = 7 & Y = 8.");
  check("empty");
  // Beside a new edge out of 80, the EDB row path(90,80) must not extend
  // the memo.
  pair.Refuse("R(X,Y) := rel(R) & X = 90 & Y = 80.");
  pair.Apply(Batch({"edge(3,4)", "edge(80,81)"}));
  check("dred");
  pair.Execute("R(X,Y) -= rel(R) & X = 90 & Y = 80.");
  pair.Apply(Batch({}, {"edge(1,2)"}));
  check("dred");
  pair.Apply(Batch({"edge(4,9)"}, {"path(9,9)", "path(70,80)"}));
  check("dred");
  pair.CheckContents("path", 2);
  EXPECT_TRUE(pair.ivm()->ApplyBatch(Batch({"path(7,8)"}))
                  .status()
                  .IsInvalidArgument());
}

TEST(IvmDred, MemoReadByNameAfterDelta) {
  // After a delta refresh the memo is readable by its own name, both
  // directly and through a predicate variable.
  IvmPair pair;
  pair.Load(kTcProgram);
  pair.Apply(Batch({"rel(path)"}));
  auto check = [&pair] {
    pair.CheckContents("path", 2);
    pair.Check("P(1,Y) & rel(P)");
  };
  check();
  pair.Apply(Batch({"edge(5,6)"}));
  check();
  EXPECT_EQ(pair.nail()->last_refresh().mode, "dred");
  pair.Apply(Batch({}, {"edge(3,1)"}));
  check();
  EXPECT_EQ(pair.nail()->last_refresh().mode, "dred");
  pair.Apply(Batch({"edge(6,1)", "edge(3,1)"}, {"edge(2,3)"}));
  check();
  EXPECT_EQ(pair.nail()->last_refresh().mode, "dred");
}

TEST(IvmDred, NameReadAtTwoArities) {
  // e/1 and e/2 are two relations: the change map and the read overrides
  // key them by (store, name, arity), so a batch on either stays
  // incremental.
  IvmPair pair;
  pair.Load(R"(
module kb;
edb e(X), e(X,Y);
p(X,Y) :- e(X) & e(X,Y).
e(1).
e(1,2).
e(2,3).
end
)");
  pair.Check("p(X, Y)");
  pair.Apply(Batch({"e(2)"}));
  pair.Check("p(X, Y)");
  EXPECT_EQ(pair.nail()->last_refresh().mode, "dred");
  EXPECT_EQ(pair.nail()->last_refresh().fallback, "");
  pair.Apply(Batch({"e(2,4)"}, {"e(1,2)", "e(1)"}));
  pair.Check("p(X, Y)");
  EXPECT_EQ(pair.nail()->last_refresh().mode, "dred");
  EXPECT_EQ(pair.nail()->last_refresh().fallback, "");
}

// --- Statement writes: every kind of Glue write to the EDB ----------------

/// The ivm engine's last refresh was a delta refresh (the statement's
/// writes were journaled), not a full recompute.
void ExpectDeltaRefresh(IvmPair* pair) {
  const NailRefreshInfo info = pair->nail()->last_refresh();
  EXPECT_TRUE(info.mode == "dred" || info.mode == "empty") << info.mode;
  EXPECT_EQ(info.fallback, "");
}

/// Runs \p statement, which must change edge/2, on a warmed TC pair and
/// checks path against the full-recompute oracle.
void CheckStatementWrite(IvmPair* pair, std::string_view statement) {
  pair->Check("path(X, Y)");
  Result<std::vector<Tuple>> before = pair->ivm()->RelationContents("edge", 2);
  const uint64_t fulls = pair->nail()->full_refresh_count();
  pair->Execute(statement);
  EXPECT_NE(*pair->ivm()->RelationContents("edge", 2), *before) << statement;
  pair->Check("path(X, Y)");
  ExpectDeltaRefresh(pair);
  EXPECT_EQ(pair->nail()->full_refresh_count(), fulls) << statement;
  pair->CheckContents("edge", 2);
}

TEST(IvmDred, StatementInsert) {
  IvmPair pair;
  pair.Load(kTcProgram);
  CheckStatementWrite(&pair, "edge(X,Y) += X = 5 & Y = 1.");
}

TEST(IvmDred, StatementErase) {
  IvmPair pair;
  pair.Load(kTcProgram);
  CheckStatementWrite(&pair, "edge(X,Y) -= edge(X,Y) & X = 3.");
}

TEST(IvmDred, StatementAssign) {
  IvmPair pair;
  pair.Load(kTcProgram);
  // `:=` clears edge and inserts the body's rows: net, edge(4,5) goes.
  CheckStatementWrite(&pair, "edge(X,Y) := edge(X,Y) & X < 4.");
}

TEST(IvmDred, StatementUpdateByKey) {
  IvmPair pair;
  pair.Load(kTcProgram);
  // Replaces edge(4,5) by edge(4,1).
  CheckStatementWrite(&pair, "edge(X,Y) +=[X] X = 4 & Y = 1.");
}

TEST(IvmDred, StatementBodyUpdates) {
  IvmPair pair;
  pair.Load(kTcProgram);
  // Reverses edge(4,5) through --/++ subgoals; moved/1 is a new relation.
  CheckStatementWrite(
      &pair, "moved(X) += edge(X,Y) & X = 4 & --edge(X,Y) & ++edge(Y,X).");
  pair.CheckContents("moved", 1);
}

TEST(IvmDred, StatementDynamicHiLogWrite) {
  IvmPair pair;
  pair.Load(kTcProgram);
  pair.Apply(Batch({"rel(edge)"}));
  CheckStatementWrite(&pair, "R(X,Y) += rel(R) & X = 5 & Y = 2.");
}

TEST(IvmDred, ProcedureWriteThroughCall) {
  IvmPair pair;
  pair.Load(R"(
module kb;
edb edge(X,Y);
export link(X,Y:);
path(X,Y) :- edge(X,Y).
path(X,Z) :- path(X,Y) & edge(Y,Z).
proc link(X,Y:)
  edge(X,Y) += in(X,Y).
  return(X,Y:) := in(X,Y).
end
edge(1,2).
edge(2,3).
edge(4,5).
end
)");
  pair.Check("path(X, Y)");
  pair.Call("link", {"3", "4"});
  pair.Check("path(X, Y)");
  ExpectDeltaRefresh(&pair);
  pair.CheckContents("edge", 2);
}

TEST(IvmDred, RepeatLoopRefreshesMidRequest) {
  IvmPair pair;
  pair.Load(kTcProgram);
  // Each iteration reads the path memo after the previous one wrote edge,
  // so the memo is refreshed inside the one request: the loop grows a
  // chain 3 -> 4 -> ... -> 8 one edge per iteration.
  CheckStatementWrite(&pair,
                      "repeat edge(X,Y) += path(1,X) & X < 8 & Y = X + 1. "
                      "until unchanged(edge(_,_));");
  // edge(3,4), edge(5,6), edge(6,7) and edge(7,8) join the four loaded.
  EXPECT_EQ(pair.ivm()->RelationContents("edge", 2)->size(), 8u);
}

// --- Stratified negation ---------------------------------------------------

TEST(IvmNegation, NegatedRelationChangeFallsBackCorrectly) {
  IvmPair pair;
  pair.Load(R"(
module kb;
edb node(X), edge(X,Y);
reach(Y) :- edge(1,Y).
reach(Z) :- reach(Y) & edge(Y,Z).
isolated(X) :- node(X) & !reach(X).
node(1). node(2). node(3). node(4).
edge(1,2).
edge(2,3).
end
)");
  pair.Check("isolated(X)");
  // edge feeds reach, and reach is negated in isolated: the delta refresh
  // must refuse to push deltas through the negation and recompute.
  pair.Apply(Batch({"edge(3,4)"}));
  pair.Check("isolated(X)");
  pair.Check("reach(X)");
  pair.Apply(Batch({}, {"edge(2,3)"}));
  pair.Check("isolated(X)");
  pair.Check("reach(X)");
}

TEST(IvmNegation, UntouchedNegationStaysIncremental) {
  IvmPair pair;
  pair.Load(R"(
module kb;
edb person(X), banned(X), likes(X,Y);
ok_likes(X,Y) :- likes(X,Y) & person(X) & !banned(X).
person(a). person(b).
banned(b).
likes(a, pizza).
likes(b, pizza).
end
)");
  pair.Check("ok_likes(X, Y)");
  // Only likes changes; banned (the negated relation) is untouched, so
  // the refresh stays incremental.
  pair.Apply(Batch({"likes(a, pasta)"}, {"likes(a, pizza)"}));
  pair.Check("ok_likes(X, Y)");
  EXPECT_EQ(pair.nail()->last_refresh().mode, "dred");
}

// --- HiLog published instances ---------------------------------------------

TEST(IvmHiLog, PublishedInstancesArePatched) {
  IvmPair pair;
  pair.Load(R"(
module kb;
edb attends(S, C), class_subject(C, Subj);
students(ID)(Student) :- class_subject(ID, _) & attends(Student, ID).
class_subject(cs99, databases).
class_subject(cs101, logic).
attends(wilson, cs99).
attends(green, cs99).
attends(jones, cs101).
end
)");
  pair.Check("students(cs99)(S)");
  pair.Apply(Batch({"attends(smith, cs99)"}, {"attends(jones, cs101)"}));
  pair.Check("students(cs99)(S)");
  pair.Check("students(cs101)(S)");
  pair.Check("students(C)(S)");
  EXPECT_EQ(pair.nail()->last_refresh().mode, "dred");
}

// --- Execution strategies --------------------------------------------------

class IvmStrategyTest
    : public ::testing::TestWithParam<ExecOptions::Strategy> {};

TEST_P(IvmStrategyTest, TcMixedBatches) {
  EngineOptions base;
  base.exec.strategy = GetParam();
  IvmPair pair(base);
  pair.Load(kTcProgram);
  pair.Check("path(X, Y)");
  pair.Apply(Batch({"edge(5,6)", "edge(6,1)"}, {"edge(2,3)"}));
  pair.Check("path(X, Y)");
  pair.Apply(Batch({"edge(2,3)"}, {"edge(3,1)", "edge(6,1)"}));
  pair.Check("path(X, Y)");
  EXPECT_GE(pair.nail()->delta_refresh_count(), 1u);
}

INSTANTIATE_TEST_SUITE_P(
    Strategies, IvmStrategyTest,
    ::testing::Values(ExecOptions::Strategy::kMaterialized,
                      ExecOptions::Strategy::kPipelined),
    [](const ::testing::TestParamInfo<ExecOptions::Strategy>& info) {
      return info.param == ExecOptions::Strategy::kMaterialized
                 ? "Materialized"
                 : "Pipelined";
    });

// --- Randomized differential DRed ------------------------------------------

/// Whether a program's delta refreshes copy rows into old-state
/// overrides (NailRefreshInfo::old_state_rows).
enum class OldStateCopies { kNever, kSome, kDependsOnBatches };

/// One program for the randomized suite: its EDB relations (all binary,
/// over a small integer domain), the goals compared after every batch,
/// and what its refreshes copy.
struct RandomDredCase {
  const char* name;
  const char* program;
  std::vector<std::string> edb;
  std::vector<std::string> goals;
  OldStateCopies copies;
};

std::vector<RandomDredCase> RandomDredCases() {
  return {
      {"RightLinearTc", R"(
module kb;
edb edge(X,Y);
path(X,Y) :- edge(X,Y).
path(X,Z) :- path(X,Y) & edge(Y,Z).
end
)",
       {"edge"}, {"path(X, Y)"}, OldStateCopies::kNever},
      {"LeftLinearTc", R"(
module kb;
edb edge(X,Y);
path(X,Y) :- edge(X,Y).
path(X,Z) :- edge(X,Y) & path(Y,Z).
end
)",
       {"edge"}, {"path(X, Y)"}, OldStateCopies::kNever},
      {"NonlinearTc", R"(
module kb;
edb edge(X,Y);
path(X,Y) :- edge(X,Y).
path(X,Z) :- path(X,Y) & path(Y,Z).
end
)",
       {"edge"}, {"path(X, Y)"}, OldStateCopies::kNever},
      // par is read twice in both sg rules: the union path stays.
      {"SameGeneration", R"(
module kb;
edb par(X,Y);
sg(X,Y) :- par(X,P) & par(Y,P).
sg(X,Y) :- par(X,XP) & sg(XP,YP) & par(Y,YP).
end
)",
       {"par"}, {"sg(X, Y)"}, OldStateCopies::kSome},
      {"MutualRecursion", R"(
module kb;
edb edge(X,Y);
odd(X,Y) :- edge(X,Y).
odd(X,Z) :- even(X,Y) & edge(Y,Z).
even(X,Z) :- odd(X,Y) & edge(Y,Z).
end
)",
       {"edge"}, {"odd(X, Y)", "even(X, Y)"}, OldStateCopies::kNever},
      // e1 and e2 change in the same batches: a batch erasing rows of
      // both reads them through old-state copies.
      {"TwoChangedRelations", R"(
module kb;
edb e1(X,Y), e2(X,Y);
r(X,Y) :- e1(X,Y).
r(X,Z) :- r(X,Y) & e1(Y,W) & e2(W,Z).
end
)",
       {"e1", "e2"}, {"r(X, Y)"}, OldStateCopies::kDependsOnBatches},
      // link is a non-recursive memo; reach's DRed reads link's net
      // change. No rule reads two positions with erased rows, so nothing
      // is copied.
      {"UpstreamMemo", R"(
module kb;
edb edge(X,Y);
link(X,Y) :- edge(X,Y) & X != Y.
reach(X,Y) :- link(X,Y).
reach(X,Z) :- reach(X,Y) & link(Y,Z).
end
)",
       {"edge"}, {"link(X, Y)", "reach(X, Y)"}, OldStateCopies::kNever},
      // Non-recursive SCCs. a and b churn in the same batches, so a rule
      // can read two changed positions.
      {"NonRecursiveJoin", R"(
module kb;
edb a(X,Y), b(X,Y);
j(X,Z) :- a(X,Y) & b(Y,Z).
end
)",
       {"a", "b"}, {"j(X, Z)"}, OldStateCopies::kDependsOnBatches},
      // par is read twice: every par change is a two-position delta, and
      // every erase reads par through a live ∪ erased copy.
      {"SelfJoin", R"(
module kb;
edb par(X,Y);
gp(X,Z) :- par(X,Y) & par(Y,Z).
end
)",
       {"par"}, {"gp(X, Z)"}, OldStateCopies::kSome},
      // seen projects a wildcard away (many event rows, one seen row);
      // both reads seen's net change next to the event change.
      {"WildcardProjection", R"(
module kb;
edb event(X,Y);
seen(N) :- event(_,N).
both(N) :- seen(N) & event(N,_).
end
)",
       {"event"}, {"seen(N)", "both(N)"}, OldStateCopies::kDependsOnBatches},
  };
}

/// Applies seeded random insert/erase batches to an IvmPair and compares
/// every goal after every batch. Returns the number of batches that
/// changed the EDB.
int RunRandomBatches(IvmPair* pair, const RandomDredCase& c, uint32_t seed,
                     int batches) {
  std::mt19937 rng(seed);
  const int domain = 6 + static_cast<int>(seed % 5);  // 6..10 nodes
  std::set<std::string> present;
  auto random_fact = [&] {
    const std::string& rel = c.edb[rng() % c.edb.size()];
    return StrCat(rel, "(", rng() % domain, ",", rng() % domain, ")");
  };

  // Initial graph, then the first (full) materialization.
  MutationBatch init;
  for (int i = 0; i < domain * 2; ++i) {
    std::string f = random_fact();
    if (present.insert(f).second) init.Insert(f);
  }
  pair->Apply(init);
  for (const std::string& g : c.goals) pair->Check(g);

  int changed = 0;
  for (int b = 0; b < batches; ++b) {
    MutationBatch batch;
    std::set<std::string> touched;
    const int ops = 1 + static_cast<int>(rng() % 6);
    for (int i = 0; i < ops; ++i) {
      if (!present.empty() && rng() % 2 == 0) {
        auto it = present.begin();
        std::advance(it, rng() % present.size());
        if (!touched.insert(*it).second) continue;
        batch.Erase(*it);
        present.erase(it);
      } else {
        std::string f = random_fact();
        if (present.count(f) != 0 || !touched.insert(f).second) continue;
        batch.Insert(f);
        present.insert(f);
      }
    }
    if (!touched.empty()) ++changed;
    pair->Apply(batch);
    for (const std::string& g : c.goals) pair->Check(g);
    if (::testing::Test::HasFailure()) {
      ADD_FAILURE() << c.name << " seed " << seed << " diverged at batch "
                    << b;
      return changed;
    }
  }
  return changed;
}

TEST(IvmRandomDredTest, MatchesFullRecompute) {
  for (const RandomDredCase& c : RandomDredCases()) {
    SCOPED_TRACE(c.name);
    for (uint32_t seed : {1u, 2u, 3u, 4u, 5u, 6u}) {
      IvmPair pair;
      pair.Load(c.program);
      int changed = RunRandomBatches(&pair, c, seed, 40);
      if (HasFailure()) return;
      // Every batch after the first materialization was a delta refresh:
      // no structural fallback, no error fallback.
      EXPECT_EQ(pair.nail()->full_refresh_count(), 1u) << "seed " << seed;
      EXPECT_EQ(pair.nail()->delta_refresh_count(),
                static_cast<uint64_t>(changed))
          << "seed " << seed;
      if (c.copies == OldStateCopies::kNever) {
        EXPECT_EQ(pair.nail()->ivm_old_state_rows(), 0u) << "seed " << seed;
      } else if (c.copies == OldStateCopies::kSome) {
        EXPECT_GT(pair.nail()->ivm_old_state_rows(), 0u) << "seed " << seed;
      }
    }
  }
}

TEST(IvmDred, StatementWritesPayNoFullRefresh) {
  // A statement's write to a relation no rule reads nets to a journal
  // entry that touches no memo: every request after it refreshes in mode
  // `empty` instead of recomputing TC over a 300-edge chain.
  Engine engine;
  std::string src = "module kb;\nedb edge(X,Y);\n"
                    "path(X,Y) :- edge(X,Y).\n"
                    "path(X,Z) :- path(X,Y) & edge(Y,Z).\n";
  for (int i = 0; i < 300; ++i) src += StrCat("edge(", i, ",", i + 1, ").\n");
  src += "end\n";
  ASSERT_TRUE(engine.LoadProgram(src).ok());
  NailEngine* nail = engine.nail_engine();
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(engine.ExecuteStatement(StrCat("note(X) += X = ", i, ".")).ok());
    if (i > 0) {
      EXPECT_EQ(nail->last_refresh().mode, "empty") << i;
    }
  }
  EXPECT_EQ(nail->full_refresh_count(), 1u);
  EXPECT_EQ(nail->refresh_count(), 20u);
  // A writer-path magic-strategy query after a statement write, too.
  ASSERT_TRUE(engine.ExecuteStatement("note(X) += X = 20.").ok());
  QueryOptions magic;
  magic.strategy = QueryStrategy::kMagic;
  Result<Engine::QueryResult> r = engine.Query("path(290, Y)", magic);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->rows.size(), 10u);
  EXPECT_EQ(nail->last_refresh().mode, "empty");
  EXPECT_EQ(nail->full_refresh_count(), 1u);
}

// --- Fallback guards -------------------------------------------------------

TEST(IvmFallback, AutoRecomputesWhenDeltaFractionExceeded) {
  EngineOptions ivm_opts;
  ivm_opts.ivm_mode = IvmMode::kAuto;
  Engine engine(ivm_opts);
  ASSERT_TRUE(engine.LoadProgram(kTcProgram).ok());
  ASSERT_TRUE(engine.Query("path(X,Y)").ok());
  // 4 live edge rows; the guard compares against max(live, 256), so 100
  // captured rows exceed 0.25 * 256.
  MutationBatch big;
  for (int i = 0; i < 100; ++i) big.Insert(StrCat("edge(", 200 + i, ",1)"));
  ASSERT_TRUE(engine.ApplyBatch(big).ok());
  Result<Engine::QueryResult> r = engine.Query("path(X,Y)");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(engine.nail_engine()->last_refresh().mode, "full");
  EXPECT_EQ(engine.nail_engine()->last_refresh().fallback, "delta-fraction");
  EXPECT_GE(engine.nail_engine()->ivm_fallback_count(), 1u);
}

TEST(IvmFallback, DroppedCaptureRecomputes) {
  EngineOptions ivm_opts;
  ivm_opts.ivm_mode = IvmMode::kForce;
  ivm_opts.ivm_max_delta_rows = 4;  // overflow immediately
  Engine engine(ivm_opts);
  ASSERT_TRUE(engine.LoadProgram(kTcProgram).ok());
  ASSERT_TRUE(engine.Query("path(X,Y)").ok());
  MutationBatch big;
  for (int i = 0; i < 10; ++i) big.Insert(StrCat("edge(", 300 + i, ",1)"));
  ASSERT_TRUE(engine.ApplyBatch(big).ok());
  Result<Engine::QueryResult> r = engine.Query("path(X,Y)");
  ASSERT_TRUE(r.ok());
  // Cycle closure (9) + 4~>5 + each spoke reaching {1,2,3} (10 * 3).
  EXPECT_EQ(r->rows.size(), 9u + 1u + 3u * 10u);
  EXPECT_EQ(engine.nail_engine()->last_refresh().fallback, "delta-dropped");
}

TEST(IvmFallback, StatementWriteNeedsNoFallback) {
  IvmPair pair;
  pair.Load(kTcProgram);
  pair.Check("path(X, Y)");
  pair.Apply(Batch({"edge(5,6)"}));
  pair.Check("path(X, Y)");
  EXPECT_GE(pair.nail()->delta_refresh_count(), 1u);
  // An ad-hoc Glue statement writes the EDB outside ApplyBatch; the
  // relations journal the erases themselves, so the next refresh patches
  // the memo from them instead of recomputing it.
  const uint64_t fulls = pair.nail()->full_refresh_count();
  ASSERT_TRUE(pair.ivm()->ExecuteStatement("edge(X,Y) -= edge(X,Y).").ok());
  Result<Engine::QueryResult> r = pair.ivm()->Query("path(X,Y)");
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->rows.empty());
  EXPECT_EQ(pair.nail()->last_refresh().mode, "dred");
  EXPECT_EQ(pair.nail()->last_refresh().fallback, "");
  EXPECT_EQ(pair.nail()->full_refresh_count(), fulls);
}

TEST(IvmFallback, InlineEdbLoadIsCapturedForDeltaRefresh) {
  // An inline EDB load is an insert batch, so ApplyBatch captures it and
  // the next NAIL! read patches the memo instead of recomputing it.
  EngineOptions opts;
  opts.ivm_mode = IvmMode::kForce;
  Engine engine(opts);
  ASSERT_TRUE(engine.LoadProgram(kTcProgram).ok());
  ASSERT_TRUE(engine.Query("path(X,Y)").ok());
  NailEngine* nail = engine.nail_engine();
  const uint64_t deltas_before = nail->delta_refresh_count();
  Session session = engine.OpenSession();
  Response r =
      session.Execute(Command::LoadEdbText("edge(5,6).\nedge(6,4).\n"));
  ASSERT_TRUE(r.ok()) << r.status;
  Result<Engine::QueryResult> got = engine.Query("path(4, Y)");
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(got->rows.size(), 3u);  // 4 reaches 5, 6 and, through 6, 4
  EXPECT_EQ(nail->delta_refresh_count(), deltas_before + 1);
  EXPECT_NE(nail->last_refresh().mode, "full");
  EXPECT_EQ(nail->last_refresh().fallback, "");
}

TEST(IvmFallback, OffModeNeverRunsDelta) {
  EngineOptions off;
  off.ivm_mode = IvmMode::kOff;
  Engine engine(off);
  ASSERT_TRUE(engine.LoadProgram(kTcProgram).ok());
  ASSERT_TRUE(engine.Query("path(X,Y)").ok());
  ASSERT_TRUE(engine.ApplyBatch(Batch({"edge(5,6)"})).ok());
  ASSERT_TRUE(engine.Query("path(X,Y)").ok());
  EXPECT_EQ(engine.nail_engine()->delta_refresh_count(), 0u);
  EXPECT_GE(engine.nail_engine()->full_refresh_count(), 2u);
}

// --- Guardrails ------------------------------------------------------------

/// An engine whose NAIL! memos were warmed and then went stale: 20,000
/// a/b pairs, then 10,000 more a rows. The refresh that a read of k(X)
/// pays for visits far more than 50 rows, full or by DRed.
std::unique_ptr<Engine> StaleMemoEngine(IvmMode mode) {
  EngineOptions opts;
  opts.ivm_mode = mode;
  auto engine = std::make_unique<Engine>(opts);
  EXPECT_TRUE(engine->LoadProgram(R"(
module kb;
edb a(X,Y);
edb b(X,Y);
edb flag(X);
j(X,Z) :- a(X,Y) & b(Y,Z).
k(X) :- flag(X).
flag(1).
end
)").ok());
  MutationBatch load;
  for (int i = 0; i < 20000; ++i) {
    load.Insert(StrCat("a(", i, ",", i, ")"));
    load.Insert(StrCat("b(", i, ",", i, ")"));
  }
  EXPECT_TRUE(engine->ApplyBatch(load).ok());
  EXPECT_TRUE(engine->Query("k(X)").ok());  // warms every memo
  MutationBatch grow;
  for (int i = 0; i < 10000; ++i) {
    grow.Insert(StrCat("a(", 20000 + i, ",", i, ")"));
  }
  EXPECT_TRUE(engine->ApplyBatch(grow).ok());
  return engine;
}

TEST(IvmGuardrail, RowBudgetBoundsTheRefreshAQueryPays) {
  // A guarded query that finds a memo stale pays for its refresh, full or
  // by DRed, under the query's own row budget. Budgets are checked every
  // Executor::kRowCheckInterval rows, so the refresh visits far more.
  for (IvmMode mode : {IvmMode::kOff, IvmMode::kForce}) {
    SCOPED_TRACE(mode == IvmMode::kOff ? "full" : "dred");
    std::unique_ptr<Engine> engine = StaleMemoEngine(mode);
    const uint64_t full_before = engine->nail_engine()->full_refresh_count();

    QueryOptions guarded;
    guarded.limits.max_rows_scanned = 50;
    Result<Engine::QueryResult> r = engine->Query("k(X)", guarded);
    EXPECT_TRUE(r.status().IsResourceExhausted()) << r.status();
    if (mode == IvmMode::kForce) {
      // DRed's abort is the query's answer: the first budget check fails
      // it, and no full recompute runs on the spent budget.
      EXPECT_NE(r.status().message().find(
                    StrCat(Executor::kRowCheckInterval, " rows visited")),
                std::string::npos)
          << r.status();
      EXPECT_EQ(engine->nail_engine()->full_refresh_count(), full_before);
    }
    // The aborted refresh leaves the engine usable.
    Result<Engine::QueryResult> all = engine->Query("j(X,Z)");
    ASSERT_TRUE(all.ok()) << all.status();
    EXPECT_EQ(all->rows.size(), 30000u);
  }
}

TEST(IvmGuardrail, SessionReadPaysItsRefreshUnderItsOwnBudget) {
  // A session read that finds the memo stale refreshes it under the
  // writer lock; that refresh runs under the read's guardrails too.
  for (IvmMode mode : {IvmMode::kOff, IvmMode::kForce}) {
    SCOPED_TRACE(mode == IvmMode::kOff ? "full" : "dred");
    std::unique_ptr<Engine> engine = StaleMemoEngine(mode);
    Session session = engine->OpenSession();
    QueryOptions guarded;
    guarded.limits.max_rows_scanned = 50;
    Result<Engine::QueryResult> r = session.Query("k(X)", guarded);
    EXPECT_TRUE(r.status().IsResourceExhausted()) << r.status();
    Result<Engine::QueryResult> all = session.Query("j(X,Z)");
    ASSERT_TRUE(all.ok()) << all.status();
    EXPECT_EQ(all->rows.size(), 30000u);
  }
}

// --- Recovery invalidation (the salvage regression) ------------------------

std::string FreshDir(const std::string& tag) {
  std::string tmpl = testing::TempDir() + "/gluenail_ivm_" + tag + "_XXXXXX";
  std::vector<char> buf(tmpl.begin(), tmpl.end());
  buf.push_back('\0');
  char* got = ::mkdtemp(buf.data());
  EXPECT_NE(got, nullptr) << tmpl;
  return std::string(buf.data());
}

TEST(IvmRecovery, RecoverNeverServesPreRecoveryDeltas) {
  const std::string dir = FreshDir("salvage");
  EngineOptions opts;
  opts.ivm_mode = IvmMode::kForce;
  opts.data_dir = dir;
  opts.durability = DurabilityLevel::kSync;
  opts.wal_recovery = RecoveryMode::kSalvage;
  Engine engine(opts);
  ASSERT_TRUE(engine.Recover().ok());
  ASSERT_TRUE(engine.LoadProgram(kTcProgram).ok());
  ASSERT_TRUE(engine.Checkpoint().ok());  // program facts into the image
  ASSERT_TRUE(engine.ApplyBatch(Batch({"edge(5,6)"})).ok());
  ASSERT_TRUE(engine.Query("path(X,Y)").ok());  // rebases the delta log
  // Capture a pending delta the memo has NOT consumed yet...
  ASSERT_TRUE(engine.ApplyBatch(Batch({"edge(6,7)"})).ok());
  // ...then jump histories: recovery rebuilds the EDB from disk. The
  // pending delta describes the pre-recovery timeline; if it survived,
  // the next refresh could patch the memo into a state the recovered EDB
  // never derived.
  Result<RecoveryReport> boot = engine.Recover();
  ASSERT_TRUE(boot.ok()) << boot.status();
  Result<Engine::QueryResult> paths = engine.Query("path(X,Y)");
  ASSERT_TRUE(paths.ok());
  // Recovered EDB: the checkpointed program facts + both logged batches.
  // The refresh after recovery must run full (invalidated log), and the
  // result must be exactly the recovered EDB's closure.
  EXPECT_EQ(engine.nail_engine()->last_refresh().mode, "full");
  Result<std::vector<Tuple>> edges = engine.RelationContents("edge", 2);
  ASSERT_TRUE(edges.ok());
  EXPECT_EQ(edges->size(), 6u);  // 4 program facts + 2 batches
  // Cycle closure (9) + the 6 pairs of the 4->5->6->7 chain.
  EXPECT_EQ(paths->rows.size(), 9u + 6u);
}

TEST(IvmRecovery, LoadEdbFileIsCapturedForDeltaRefresh) {
  const std::string dir = FreshDir("load");
  const std::string file = dir + "/dump.facts";
  EngineOptions opts;
  opts.ivm_mode = IvmMode::kForce;
  Engine engine(opts);
  ASSERT_TRUE(engine.LoadProgram(kTcProgram).ok());
  ASSERT_TRUE(engine.Query("path(X,Y)").ok());
  ASSERT_TRUE(engine.SaveEdbFile(file).ok());
  // Pending captured delta...
  ASSERT_TRUE(engine.ApplyBatch(Batch({"edge(5,6)"})).ok());
  // ...followed by a file load (merge semantics: image facts join the
  // live EDB). The load commits its rows as one insert batch, so the log
  // captured both, and the next refresh patches the memo from them.
  ASSERT_TRUE(engine.LoadEdbFile(file).ok());
  Result<Engine::QueryResult> r = engine.Query("path(X,Y)");
  ASSERT_TRUE(r.ok());
  // Cycle closure (9) + 4~>5, 4~>6, 5~>6 from the appended edge.
  EXPECT_EQ(r->rows.size(), 12u);
  EXPECT_EQ(engine.nail_engine()->last_refresh().mode, "dred");
  EXPECT_EQ(engine.nail_engine()->last_refresh().fallback, "");
}

// --- Observability ---------------------------------------------------------

TEST(IvmObs, MetricsExposeDeltaVsFullCounts) {
  IvmPair pair;
  pair.Load(kTcProgram);
  pair.Check("path(X, Y)");
  pair.Apply(Batch({"edge(5,6)"}));
  pair.Check("path(X, Y)");
  std::string metrics = pair.ivm()->DumpMetrics();
  EXPECT_NE(metrics.find("gluenail_nail_delta_refresh_total 1"),
            std::string::npos)
      << metrics;
  EXPECT_NE(metrics.find("gluenail_nail_full_refresh_total 1"),
            std::string::npos);
  EXPECT_NE(metrics.find("gluenail_nail_ivm_delta_rows_in_total"),
            std::string::npos);
  // Insert-only TC reads every changed relation live: nothing copied.
  EXPECT_NE(metrics.find("gluenail_nail_ivm_old_state_rows_total 0"),
            std::string::npos)
      << metrics;
}

TEST(IvmObs, ExplainAnalyzeShowsRefreshMode) {
  EngineOptions opts;
  opts.ivm_mode = IvmMode::kForce;
  Engine engine(opts);
  ASSERT_TRUE(engine.LoadProgram(kTcProgram).ok());
  ASSERT_TRUE(engine.Query("path(X,Y)").ok());
  ASSERT_TRUE(engine.ApplyBatch(Batch({"edge(5,6)"})).ok());
  ExplainOptions eo;
  eo.analyze = true;
  Result<std::string> out =
      engine.ExplainStatement("reached(Y) += path(1, Y).", eo);
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_NE(out->find("nail refresh: mode=dred"), std::string::npos) << *out;
  EXPECT_NE(out->find("delta_rows_in=1"), std::string::npos) << *out;
  EXPECT_NE(out->find("old_state_rows=0"), std::string::npos) << *out;
  // The first ANALYZE *wrote* reached/1, which the journal captured and
  // no rule reads: the second one's refresh is a delta refresh that
  // touches no memo, with no fallback.
  Result<std::string> again =
      engine.ExplainStatement("reached(Y) += path(1, Y).", eo);
  ASSERT_TRUE(again.ok());
  EXPECT_NE(again->find("nail refresh: mode=empty"), std::string::npos)
      << *again;
  EXPECT_EQ(again->find("fallback"), std::string::npos) << *again;
}

TEST(IvmObs, SlowQueryLogRecordsRefreshMode) {
  EngineOptions opts;
  opts.ivm_mode = IvmMode::kForce;
  opts.slow_query_threshold = std::chrono::nanoseconds(1);  // log everything
  Engine engine(opts);
  ASSERT_TRUE(engine.LoadProgram(kTcProgram).ok());
  ASSERT_TRUE(engine.Query("path(X,Y)").ok());
  ASSERT_TRUE(engine.ApplyBatch(Batch({"edge(5,6)"})).ok());
  ASSERT_TRUE(engine.Query("path(X,Y)").ok());
  std::vector<SlowQueryEntry> entries = engine.slow_query_log().Entries();
  ASSERT_FALSE(entries.empty());
  bool found = false;
  for (const SlowQueryEntry& e : entries) {
    if (e.nail_refresh_mode == "dred") {
      found = true;
      EXPECT_EQ(e.nail_delta_rows_in, 1u);
    }
  }
  EXPECT_TRUE(found);
  EXPECT_NE(engine.slow_query_log().Render().find("nail refresh"),
            std::string::npos);

  // A session read whose upgrade pays for the refresh records it too.
  ASSERT_TRUE(engine.ApplyBatch(Batch({"edge(6,7)"})).ok());
  Session session = engine.OpenSession();
  ASSERT_TRUE(session.Query("path(X,Y)").ok());
  entries = engine.slow_query_log().Entries();
  ASSERT_FALSE(entries.empty());
  EXPECT_EQ(entries.back().query, "path(X,Y)");
  EXPECT_EQ(entries.back().nail_refresh_mode, "dred");
  EXPECT_EQ(entries.back().nail_delta_rows_in, 1u);
}

// --- Concurrent readers during refresh (the tsan target) -------------------

TEST(IvmConcurrency, ReadersDuringDeltaRefresh) {
  EngineOptions opts;
  opts.ivm_mode = IvmMode::kForce;
  Engine engine(opts);
  ASSERT_TRUE(engine.LoadProgram(R"(
module kb;
edb edge(X,Y);
path(X,Y) :- edge(X,Y).
path(X,Z) :- path(X,Y) & edge(Y,Z).
edge(0,1).
end
)").ok());
  ASSERT_TRUE(engine.Query("path(X,Y)").ok());

  // Writer grows a 0->1->...->N chain one edge per batch. After batch k
  // the closure has (k+2)(k+1)/2 pairs; a reader must only ever observe
  // one of those sizes (refreshes run under the writer lock — no torn
  // counts).
  constexpr int kBatches = 24;
  std::set<size_t> valid;
  for (int k = 0; k <= kBatches; ++k) {
    valid.insert(static_cast<size_t>((k + 2) * (k + 1) / 2));
  }
  // Batches applied so far. Readers re-query only after it moves, racing
  // the writer's own refresh of that batch: four readers querying
  // back-to-back would starve the writer's exclusive lock under a
  // reader-preferring rwlock whenever a query is slow.
  std::atomic<int> applied{0};
  std::atomic<int> bad{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&] {
      Session session = engine.OpenSession();
      int seen = -1;
      while (seen < kBatches) {
        applied.wait(seen);
        seen = applied.load();
        Result<Engine::QueryResult> r = session.Query("path(X,Y)");
        if (!r.ok() || valid.count(r->rows.size()) == 0) {
          bad.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (int k = 1; k <= kBatches; ++k) {
    MutationBatch b;
    b.Insert(StrCat("edge(", k, ",", k + 1, ")"));
    EXPECT_TRUE(engine.ApplyBatch(b).ok());
    applied.fetch_add(1);
    applied.notify_all();
    Result<Engine::QueryResult> r = engine.Query("path(X,Y)");
    EXPECT_TRUE(r.ok());
  }
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(bad.load(), 0);
  EXPECT_GE(engine.nail_engine()->delta_refresh_count(), 1u);
}

}  // namespace
}  // namespace gluenail
