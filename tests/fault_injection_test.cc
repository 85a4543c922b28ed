/// \file fault_injection_test.cc
/// \brief The robustness matrix: every injected failure must yield
/// (1) a clean error status, (2) a byte-identical pre-existing file, and
/// (3) a still-queryable engine.

#include "src/common/fault_injector.h"

#include <gtest/gtest.h>

#include <dirent.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <fstream>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/api/engine.h"
#include "src/api/session.h"
#include "src/storage/persistence.h"

namespace gluenail {
namespace {

std::string ReadFile(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  std::ostringstream out;
  out << is.rdbuf();
  return out.str();
}

/// A recursive program whose fixpoint materializes enough tuples for the
/// budget guardrails to trip within the first iterations.
constexpr char kChainProgram[] = R"(
module m;
edb edge(X,Y);
path(X,Y) :- edge(X,Y).
path(X,Z) :- path(X,Y) & edge(Y,Z).
end
)";

void AddChain(Engine* engine, int n) {
  for (int i = 0; i < n; ++i) {
    ASSERT_TRUE(
        engine->AddFact(StrCat("edge(", i, ",", i + 1, ").")).ok());
  }
}

class FaultInjectionTest : public ::testing::Test {
 protected:
  void SetUp() override { FaultInjector::Instance().Disarm(); }
  void TearDown() override { FaultInjector::Instance().Disarm(); }
};

// --- Crash-safe persistence matrix -----------------------------------------

/// For each failable save operation: arm the injector, assert the save
/// errors, assert the previously saved file is byte-identical, assert the
/// engine still answers queries, then disarm and assert the save succeeds.
TEST_F(FaultInjectionTest, SaveFailureMatrixLeavesPreviousFileIntact) {
  const std::string path =
      testing::TempDir() + "/gluenail_fault_save.facts";
  for (FaultOp op : {FaultOp::kWrite, FaultOp::kFsync, FaultOp::kRename}) {
    SCOPED_TRACE(StrCat("op=", FaultOpName(op)));
    ::unlink(path.c_str());
    Engine engine;
    ASSERT_TRUE(engine.AddFact("edge(1,2).").ok());
    ASSERT_TRUE(engine.SaveEdbFile(path).ok());
    const std::string baseline = ReadFile(path);
    ASSERT_FALSE(baseline.empty());

    // Mutate so the failed save would have written different content.
    ASSERT_TRUE(engine.AddFact("edge(2,3).").ok());
    FaultInjector::Instance().ArmNth(op, 1);
    Status st = engine.SaveEdbFile(path);
    EXPECT_TRUE(st.IsIoError()) << st;
    EXPECT_NE(st.message().find("injected fault"), std::string::npos) << st;
    EXPECT_EQ(FaultInjector::Instance().injected(op), 1u);
    FaultInjector::Instance().Disarm();

    // (2) The pre-existing file is byte-identical.
    EXPECT_EQ(ReadFile(path), baseline);

    // (3) The engine still serves queries and writes.
    Result<Engine::QueryResult> q = engine.Query("edge(X,Y)");
    ASSERT_TRUE(q.ok()) << q.status();
    EXPECT_EQ(q->rows.size(), 2u);

    // Disarmed retry succeeds and the new content lands.
    ASSERT_TRUE(engine.SaveEdbFile(path).ok());
    EXPECT_NE(ReadFile(path), baseline);
    TermPool pool2;
    Database db2(&pool2);
    ASSERT_TRUE(LoadDatabaseFromFile(&db2, path).ok());
    Relation* edge = db2.Find(pool2.MakeSymbol("edge"), 2);
    ASSERT_NE(edge, nullptr);
    EXPECT_EQ(edge->size(), 2u);
  }
  ::unlink(path.c_str());
}

TEST_F(FaultInjectionTest, SaveFailureLeavesNoTempFileBehind) {
  const std::string dir = testing::TempDir() + "/gluenail_fault_tmpdir";
  ::mkdir(dir.c_str(), 0755);
  const std::string path = dir + "/edb.facts";
  Engine engine;
  ASSERT_TRUE(engine.AddFact("edge(1,2).").ok());
  FaultInjector::Instance().ArmNth(FaultOp::kFsync, 1);
  EXPECT_FALSE(engine.SaveEdbFile(path).ok());
  FaultInjector::Instance().Disarm();
  // Nothing in the directory: neither the target nor a temp file.
  std::vector<std::string> entries;
  if (DIR* d = ::opendir(dir.c_str())) {
    while (struct dirent* e = ::readdir(d)) {
      std::string name = e->d_name;
      if (name != "." && name != "..") entries.push_back(name);
    }
    ::closedir(d);
  }
  EXPECT_TRUE(entries.empty())
      << "unexpected leftover: " << Join(entries, ", ");
}

TEST_F(FaultInjectionTest, SeededScheduleIsDeterministic) {
  FaultInjector& fi = FaultInjector::Instance();
  auto run = [&](uint64_t seed) {
    fi.Disarm();
    fi.ArmSeeded(seed, 3);
    std::vector<bool> draws;
    for (int i = 0; i < 64; ++i) draws.push_back(fi.ShouldFail(FaultOp::kWrite));
    fi.Disarm();
    return draws;
  };
  std::vector<bool> a = run(42);
  std::vector<bool> b = run(42);
  std::vector<bool> c = run(43);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_NE(std::count(a.begin(), a.end(), true), 0);
}

/// Whole-save sweep under a seeded schedule: whatever fails, the invariant
/// holds — either the save succeeded and the file is the new content, or
/// it failed and the file is byte-identical to the baseline.
TEST_F(FaultInjectionTest, SeededSaveSweepKeepsInvariant) {
  const std::string path =
      testing::TempDir() + "/gluenail_fault_sweep.facts";
  ::unlink(path.c_str());
  Engine engine;
  AddChain(&engine, 50);
  ASSERT_TRUE(engine.SaveEdbFile(path).ok());
  const std::string baseline = ReadFile(path);
  ASSERT_TRUE(engine.AddFact("edge(100,101).").ok());

  int failures = 0;
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    FaultInjector::Instance().Disarm();
    FaultInjector::Instance().ArmSeeded(seed, 2);
    Status st = engine.SaveEdbFile(path);
    FaultInjector::Instance().Disarm();
    if (st.ok()) {
      EXPECT_NE(ReadFile(path), baseline);
      // Reset the on-disk state for the next round.
      std::ofstream(path, std::ios::binary).write(baseline.data(),
                                                  baseline.size());
    } else {
      ++failures;
      EXPECT_EQ(ReadFile(path), baseline) << "seed " << seed;
    }
  }
  EXPECT_GT(failures, 0) << "period-2 schedule never fired";
  ::unlink(path.c_str());
}

// --- Torn files: strict vs salvage -----------------------------------------

class TornFileTest : public FaultInjectionTest {
 protected:
  TornFileTest() : db_(&pool_) {}

  /// Saves two relations and corrupts one byte inside the edge section.
  std::string MakeTornFile() {
    Database good(&pool_);
    Relation* edge = good.GetOrCreate(pool_.MakeSymbol("edge"), 2);
    edge->Insert(Tuple{pool_.MakeInt(1), pool_.MakeInt(2)});
    edge->Insert(Tuple{pool_.MakeInt(2), pool_.MakeInt(3)});
    Relation* name = good.GetOrCreate(pool_.MakeSymbol("name"), 1);
    name->Insert(Tuple{pool_.MakeSymbol("ok")});
    std::string text = *SerializeDatabase(good);
    // Corrupt a digit inside an edge fact, leaving line structure intact.
    size_t at = text.find("edge(1,2).");
    EXPECT_NE(at, std::string::npos);
    text[at + 5] = '9';
    return text;
  }

  TermPool pool_;
  Database db_;
};

TEST_F(TornFileTest, StrictLoadFailsAndLeavesDatabaseUntouched) {
  db_.GetOrCreate(pool_.MakeSymbol("keep"), 1)
      ->Insert(Tuple{pool_.MakeInt(7)});
  const std::string in(MakeTornFile());
  Status st = LoadDatabase(&db_, in, {}).status();
  EXPECT_TRUE(st.IsIoError()) << st;
  // All-or-nothing: nothing from the torn file, existing data intact.
  EXPECT_EQ(db_.num_relations(), 1u);
  EXPECT_NE(db_.Find(pool_.MakeSymbol("keep"), 1), nullptr);
}

TEST_F(TornFileTest, SalvageKeepsGoodRelationsAndReportsDrops) {
  const std::string in(MakeTornFile());
  LoadOptions opts;
  opts.recovery = RecoveryMode::kSalvage;
  Result<LoadReport> report = LoadDatabase(&db_, in, opts);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->relations_loaded, 1u);
  EXPECT_EQ(report->sections_dropped, 1u);
  ASSERT_EQ(report->dropped.size(), 1u);
  EXPECT_NE(report->dropped[0].find("edge/2"), std::string::npos);
  // The good relation survived; the corrupted one was dropped whole.
  Relation* name = db_.Find(pool_.MakeSymbol("name"), 1);
  ASSERT_NE(name, nullptr);
  EXPECT_EQ(name->size(), 1u);
  EXPECT_EQ(db_.Find(pool_.MakeSymbol("edge"), 2), nullptr);
}

TEST_F(TornFileTest, SalvageOfTruncatedFileKeepsCompleteSections) {
  Database good(&pool_);
  Relation* a = good.GetOrCreate(pool_.MakeSymbol("alpha"), 1);
  a->Insert(Tuple{pool_.MakeInt(1)});
  Relation* z = good.GetOrCreate(pool_.MakeSymbol("zeta"), 1);
  z->Insert(Tuple{pool_.MakeInt(1)});
  z->Insert(Tuple{pool_.MakeInt(2)});
  std::string text = *SerializeDatabase(good);
  // Tear the file mid-way through the last section (crash during write of
  // a non-atomic saver — exactly what the atomic rename prevents).
  std::string torn = text.substr(0, text.rfind("zeta(2)."));

  EXPECT_TRUE(LoadDatabase(&db_, torn, {}).status().IsIoError());

  LoadOptions opts;
  opts.recovery = RecoveryMode::kSalvage;
  Result<LoadReport> report = LoadDatabase(&db_, torn, opts);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->relations_loaded, 1u);
  EXPECT_EQ(report->sections_dropped, 1u);
  EXPECT_NE(db_.Find(pool_.MakeSymbol("alpha"), 1), nullptr);
  EXPECT_EQ(db_.Find(pool_.MakeSymbol("zeta"), 1), nullptr);
}

// --- Query guardrails -------------------------------------------------------

struct ModeParam {
  NailMode mode;
  const char* name;
};

class GuardrailTest : public FaultInjectionTest,
                      public ::testing::WithParamInterface<ModeParam> {
 protected:
  std::unique_ptr<Engine> MakeEngine(int chain) {
    EngineOptions opts;
    opts.nail_mode = GetParam().mode;
    auto engine = std::make_unique<Engine>(opts);
    EXPECT_TRUE(engine->LoadProgram(kChainProgram).ok());
    AddChain(engine.get(), chain);
    return engine;
  }
};

TEST_P(GuardrailTest, ExpiredDeadlineCancelsQuery) {
  std::unique_ptr<Engine> engine = MakeEngine(200);
  QueryOptions opts;
  opts.deadline = Deadline::After(std::chrono::nanoseconds(0));
  Result<Engine::QueryResult> r = engine->Query("path(0,Y)", opts);
  EXPECT_TRUE(r.status().IsCancelled()) << r.status();
  // The engine recovers fully: the same query without a deadline works.
  Result<Engine::QueryResult> ok = engine->Query("path(0,Y)");
  ASSERT_TRUE(ok.ok()) << ok.status();
  EXPECT_EQ(ok->rows.size(), 200u);
}

TEST_P(GuardrailTest, PreCancelledTokenCancelsQuery) {
  std::unique_ptr<Engine> engine = MakeEngine(50);
  QueryOptions opts;
  opts.cancel = CancelToken::Create();
  opts.cancel.RequestCancel();
  Result<Engine::QueryResult> r = engine->Query("path(0,Y)", opts);
  EXPECT_TRUE(r.status().IsCancelled()) << r.status();
  Result<Engine::QueryResult> ok = engine->Query("path(0,Y)");
  ASSERT_TRUE(ok.ok()) << ok.status();
  EXPECT_EQ(ok->rows.size(), 50u);
}

TEST_P(GuardrailTest, CancelFromAnotherThreadAborts) {
  std::unique_ptr<Engine> engine = MakeEngine(400);
  QueryOptions opts;
  opts.cancel = CancelToken::Create();
  std::thread canceller([token = opts.cancel] {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    token.RequestCancel();
  });
  // Either the query finishes before the cancel lands (fine) or it is
  // aborted with Cancelled — never anything else.
  Result<Engine::QueryResult> r = engine->Query("path(0,Y)", opts);
  canceller.join();
  if (!r.ok()) {
    EXPECT_TRUE(r.status().IsCancelled()) << r.status();
  }
  Result<Engine::QueryResult> ok = engine->Query("path(0,Y)");
  ASSERT_TRUE(ok.ok()) << ok.status();
}

TEST_P(GuardrailTest, TupleBudgetAbortsRunawayQuery) {
  std::unique_ptr<Engine> engine = MakeEngine(300);  // path/2 closes to ~45k tuples
  QueryOptions opts;
  opts.limits.max_tuples = 1000;
  Result<Engine::QueryResult> r = engine->Query("path(0,Y)", opts);
  EXPECT_TRUE(r.status().IsResourceExhausted()) << r.status();
  // Unguarded retry succeeds with the full answer.
  Result<Engine::QueryResult> ok = engine->Query("path(0,Y)");
  ASSERT_TRUE(ok.ok()) << ok.status();
  EXPECT_EQ(ok->rows.size(), 300u);
}

TEST_P(GuardrailTest, ArenaByteBudgetAbortsRunawayQuery) {
  std::unique_ptr<Engine> engine = MakeEngine(300);
  QueryOptions opts;
  opts.limits.max_arena_bytes = 4 * 1024;
  Result<Engine::QueryResult> r = engine->Query("path(0,Y)", opts);
  EXPECT_TRUE(r.status().IsResourceExhausted()) << r.status();
  Result<Engine::QueryResult> ok = engine->Query("path(0,Y)");
  ASSERT_TRUE(ok.ok()) << ok.status();
}

TEST_P(GuardrailTest, SessionStaysUsableAfterGuardrailAborts) {
  std::unique_ptr<Engine> engine = MakeEngine(100);
  Session session = engine->OpenSession();
  // Bring the NAIL! state fresh via an unguarded read first.
  Result<Engine::QueryResult> warm = session.Query("path(0,Y)");
  ASSERT_TRUE(warm.ok()) << warm.status();

  QueryOptions cancelled;
  cancelled.cancel = CancelToken::Create();
  cancelled.cancel.RequestCancel();
  EXPECT_TRUE(session.Query("path(0,Y)", cancelled).status().IsCancelled());

  QueryOptions deadline;
  deadline.deadline = Deadline::After(std::chrono::nanoseconds(0));
  EXPECT_TRUE(session.Query("path(0,Y)", deadline).status().IsCancelled());

  // The shared lock was released cleanly each time: reads and writes on
  // the same engine still work.
  Result<Engine::QueryResult> again = session.Query("path(0,Y)");
  ASSERT_TRUE(again.ok()) << again.status();
  EXPECT_EQ(again->rows.size(), 100u);
  EXPECT_TRUE(session.AddFact("edge(500,501).").ok());
  Result<Engine::QueryResult> after = session.Query("path(500,Y)");
  ASSERT_TRUE(after.ok()) << after.status();
  EXPECT_EQ(after->rows.size(), 1u);
}

TEST_P(GuardrailTest, MagicQueryHonorsDeadline) {
  std::unique_ptr<Engine> engine = MakeEngine(200);
  QueryOptions opts;
  opts.strategy = QueryStrategy::kMagic;
  opts.deadline = Deadline::After(std::chrono::nanoseconds(0));
  Result<Engine::QueryResult> r = engine->Query("path(0,Y)", opts);
  EXPECT_TRUE(r.status().IsCancelled()) << r.status();
  QueryOptions plain;
  plain.strategy = QueryStrategy::kMagic;
  Result<Engine::QueryResult> ok = engine->Query("path(0,Y)", plain);
  ASSERT_TRUE(ok.ok()) << ok.status();
  EXPECT_EQ(ok->rows.size(), 200u);
}

TEST_P(GuardrailTest, InjectedAllocFailureSurfacesAsResourceExhausted) {
  std::unique_ptr<Engine> engine = MakeEngine(200);
  FaultInjector::Instance().ArmNth(FaultOp::kAlloc, 2);
  Result<Engine::QueryResult> r = engine->Query("path(0,Y)");
  FaultInjector::Instance().Disarm();
  EXPECT_TRUE(r.status().IsResourceExhausted()) << r.status();
  // The failed materialization was memo-invalidated: the retry recomputes
  // from scratch and returns the complete answer.
  Result<Engine::QueryResult> ok = engine->Query("path(0,Y)");
  ASSERT_TRUE(ok.ok()) << ok.status();
  EXPECT_EQ(ok->rows.size(), 200u);
}

TEST_F(FaultInjectionTest, InjectedAllocFailureInExplainAndCallsIsAStatus) {
  // EXPLAIN ANALYZE and both Call entry points turn an arena allocation
  // failure into ResourceExhausted like a query does, and the engine
  // answers the next request of each kind.
  Engine engine;
  ASSERT_TRUE(engine.LoadProgram(R"(
module m;
edb pairs(X,Y);
export lookup(X:Y);
proc lookup(X:Y)
  return(X:Y) := pairs(X,Y).
end
pairs(1,10).
end
)").ok());
  Session session = engine.OpenSession();
  const std::vector<Tuple> one{{*engine.InternTerm("1")}};
  auto explain_analyze = [&session] {
    return session.Execute(Command::Explain("out(X,Y) := pairs(X,Y).", true))
        .status;
  };
  const std::vector<std::function<Status()>> requests = {
      explain_analyze,
      [&] { return engine.Call("lookup", one).status(); },
      [&] { return session.Call("lookup", one).status(); },
  };
  for (size_t i = 0; i < requests.size(); ++i) {
    SCOPED_TRACE(i);
    FaultInjector::Instance().ArmNth(FaultOp::kAlloc, 1);
    Status failed = Status::OK();
    EXPECT_NO_THROW(failed = requests[i]());
    FaultInjector::Instance().Disarm();
    EXPECT_TRUE(failed.IsResourceExhausted()) << failed;
    EXPECT_TRUE(requests[i]().ok());
  }
  Result<std::vector<Tuple>> rows = session.Call("lookup", one);
  ASSERT_TRUE(rows.ok()) << rows.status();
  EXPECT_EQ(rows->size(), 1u);
  Result<Engine::QueryResult> out = engine.Query("out(X,Y)");
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_EQ(out->rows.size(), 1u);
}

// --- Row-scan budget (max_rows_scanned) -------------------------------------

/// An engine whose dup/2 relation holds \p n rows all sharing first-column
/// key 1: a keyed probe on that key walks an n-row index chain, the
/// degenerate shape the row-scan budget exists to catch.
std::unique_ptr<Engine> MakeHotKeyEngine(int n, IndexPolicy policy) {
  EngineOptions opts;
  opts.index_policy = policy;
  auto engine = std::make_unique<Engine>(opts);
  for (int i = 0; i < n; ++i) {
    EXPECT_TRUE(engine->AddFact(StrCat("dup(1,", i, ").")).ok());
  }
  return engine;
}

TEST_F(FaultInjectionTest, RowScanBudgetChargesIndexProbeChains) {
  // Under kAlwaysIndex the keyed match never scans: every row it visits
  // comes from the index probe chain. Before probe chains were charged,
  // this query sailed under any max_rows_scanned.
  std::unique_ptr<Engine> engine =
      MakeHotKeyEngine(6000, IndexPolicy::kAlwaysIndex);
  QueryOptions opts;
  opts.limits.max_rows_scanned = 1000;
  Result<Engine::QueryResult> r = engine->Query("dup(1,Y)", opts);
  EXPECT_TRUE(r.status().IsResourceExhausted()) << r.status();
  // The abort really came from the index path, not a fallback scan.
  EXPECT_GT(engine->storage_stats().index_probe_rows, 0u);
  EXPECT_EQ(engine->storage_stats().scan_rows, 0u);
  // Unguarded retry returns the full answer.
  Result<Engine::QueryResult> ok = engine->Query("dup(1,Y)");
  ASSERT_TRUE(ok.ok()) << ok.status();
  EXPECT_EQ(ok->rows.size(), 6000u);
}

TEST_F(FaultInjectionTest, RowScanBudgetAbortsFullScans) {
  std::unique_ptr<Engine> engine =
      MakeHotKeyEngine(6000, IndexPolicy::kNeverIndex);
  QueryOptions opts;
  opts.limits.max_rows_scanned = 1000;
  // Unkeyed goal: a full scan of all 6000 rows, charged row by row.
  Result<Engine::QueryResult> r = engine->Query("dup(X,Y) & Y > 2", opts);
  EXPECT_TRUE(r.status().IsResourceExhausted()) << r.status();
  Result<Engine::QueryResult> ok = engine->Query("dup(X,Y) & Y > 2");
  ASSERT_TRUE(ok.ok()) << ok.status();
  EXPECT_EQ(ok->rows.size(), 5997u);
}

TEST_F(FaultInjectionTest, RowScanBudgetAdmitsQueriesUnderTheLimit) {
  std::unique_ptr<Engine> engine =
      MakeHotKeyEngine(100, IndexPolicy::kAlwaysIndex);
  QueryOptions opts;
  opts.limits.max_rows_scanned = 100000;
  Result<Engine::QueryResult> r = engine->Query("dup(1,Y)", opts);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->rows.size(), 100u);
}

INSTANTIATE_TEST_SUITE_P(
    Modes, GuardrailTest,
    ::testing::Values(ModeParam{NailMode::kCompiledGlue, "compiled"},
                      ModeParam{NailMode::kDirect, "direct"}),
    [](const ::testing::TestParamInfo<ModeParam>& info) {
      return info.param.name;
    });

}  // namespace
}  // namespace gluenail
