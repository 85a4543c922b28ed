/// Tests pinning the executor's observable cost model: pipeline break
/// counts (§9), duplicate-elimination counters, call counters, and the
/// strategy-dependent behaviours the benchmarks rely on.

#include <gtest/gtest.h>

#include "src/api/engine.h"

namespace gluenail {
namespace {

TEST(ExecStatsTest, PurePipelineHasNoBreaks) {
  EngineOptions opts;
  opts.exec.strategy = ExecOptions::Strategy::kPipelined;
  Engine engine(opts);
  ASSERT_TRUE(engine.AddFact("a(1).").ok());
  ASSERT_TRUE(engine.AddFact("b(1).").ok());
  ASSERT_TRUE(engine.ExecuteStatement("out(X) := a(X) & b(X) & X > 0.").ok());
  EXPECT_EQ(engine.exec_stats().pipeline_breaks, 0u);
}

TEST(ExecStatsTest, EachBarrierKindBreaks) {
  struct Case {
    const char* stmt;
    uint64_t min_breaks;
  };
  const Case cases[] = {
      {"out(M) := a(X) & M = max(X).", 1},                  // aggregate
      {"out(X, C) := a(X) & group_by(X) & C = count(X).", 2},
      {"out(X) := a(X) & ++log(X).", 1},                    // update
      {"out(X) := a(X) & writeln(X).", 1},                  // builtin call
  };
  for (const Case& c : cases) {
    EngineOptions opts;
    opts.exec.strategy = ExecOptions::Strategy::kPipelined;
    Engine engine(opts);
    std::ostringstream sink;
    engine.SetIo(&sink, nullptr);
    ASSERT_TRUE(engine.AddFact("a(1).").ok());
    ASSERT_TRUE(engine.ExecuteStatement(c.stmt).ok()) << c.stmt;
    EXPECT_GE(engine.exec_stats().pipeline_breaks, c.min_breaks) << c.stmt;
  }
}

TEST(ExecStatsTest, DuplicateRemovalCounted) {
  EngineOptions opts;
  opts.exec.strategy = ExecOptions::Strategy::kPipelined;
  opts.exec.dedup_at_breaks = true;
  Engine engine(opts);
  // 5 facts differing only in the wildcard column, then a barrier.
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(engine.AddFact(StrCat("s(", i, ", 7).")).ok());
  }
  ASSERT_TRUE(
      engine.ExecuteStatement("out(K) := s(_, K) & ++touched(K).").ok());
  EXPECT_EQ(engine.exec_stats().duplicates_removed, 4u);
}

TEST(ExecStatsTest, CallCountersByKind) {
  Engine engine;
  std::ostringstream sink;
  engine.SetIo(&sink, nullptr);
  ASSERT_TRUE(engine.LoadProgram(R"(
module m;
export f(:);
proc g(:)
  return(:) := true.
end
proc f(:)
  return(:) := true & g() & writeln(done).
end
end
)").ok());
  ASSERT_TRUE(engine.Call("f", {{}}).ok());
  const ExecStats& stats = engine.exec_stats();
  // proc_calls counts procedure-as-subgoal calls (g from inside f); the
  // top-level Engine::Call is the caller, not a subgoal.
  EXPECT_GE(stats.proc_calls, 1u);
  EXPECT_GE(stats.builtin_calls, 2u);  // true + writeln
  EXPECT_EQ(stats.host_calls, 0u);
}

TEST(ExecStatsTest, MaterializedCountsNoPipelineBreaks) {
  // The break counter is a pipelined-strategy concept.
  EngineOptions opts;
  opts.exec.strategy = ExecOptions::Strategy::kMaterialized;
  Engine engine(opts);
  ASSERT_TRUE(engine.AddFact("a(1).").ok());
  ASSERT_TRUE(engine.ExecuteStatement("out(M) := a(X) & M = max(X).").ok());
  EXPECT_EQ(engine.exec_stats().pipeline_breaks, 0u);
}

TEST(ExecStatsTest, LoopIterationsCounted) {
  Engine engine;
  ASSERT_TRUE(engine.AddFact("n(1).").ok());
  ASSERT_TRUE(engine.ExecuteStatement(
                  "repeat n(Y) += n(X) & Y = X * 2 & Y < 100. "
                  "until unchanged(n(_));")
                  .ok());
  // 1..64: six productive passes plus the final no-change pass.
  EXPECT_GE(engine.exec_stats().loop_iterations, 7u);
}

TEST(ExecStatsTest, HeadTuplesCountNetChanges) {
  Engine engine;
  ASSERT_TRUE(engine.AddFact("a(1).").ok());
  ASSERT_TRUE(engine.AddFact("a(2).").ok());
  engine.ResetExecStats();
  ASSERT_TRUE(engine.ExecuteStatement("out(X) += a(X).").ok());
  EXPECT_EQ(engine.exec_stats().head_tuples, 2u);
  // Re-running inserts nothing new.
  engine.ResetExecStats();
  ASSERT_TRUE(engine.ExecuteStatement("out(X) += a(X).").ok());
  EXPECT_EQ(engine.exec_stats().head_tuples, 0u);
}

TEST(ExecStatsTest, MemoRowsAreStoredOnce) {
  Engine engine;
  ASSERT_TRUE(engine.LoadProgram(R"(
module kb;
edb edge(X,Y);
path(X,Y) :- edge(X,Y).
path(X,Z) :- path(X,Y) & edge(Y,Z).
edge(1,2).
edge(2,3).
edge(3,4).
end
)").ok());
  Result<Engine::QueryResult> r = engine.Query("path(X,Y)");
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->rows.size(), 6u);
  // 3 edge rows and 6 path rows: the memo is the IDB relation path/2
  // itself, with no second copy.
  EXPECT_EQ(engine.storage_stats().live_tuples, 9u);
}

TEST(ExecStatsTest, StorageStatsAggregateCounters) {
  Engine engine;
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(engine.AddFact(StrCat("e(", i % 7, ", ", i, ").")).ok());
    // Duplicate insert: costs dedup probes, changes nothing.
    ASSERT_TRUE(engine.AddFact(StrCat("e(", i % 7, ", ", i, ").")).ok());
  }
  ASSERT_TRUE(engine.ExecuteStatement("out(Y) := e(3, Y).").ok());
  StorageStats s = engine.storage_stats();
  EXPECT_GE(s.relations, 2u);  // e/2 and out/1
  // 50 facts in e/2 plus the 7 derived out/1 tuples (i % 7 == 3).
  EXPECT_GE(s.live_tuples, 57u);
  EXPECT_GT(s.arena_bytes, 0u);
  EXPECT_GT(s.dedup_probes, 50u);
  // Every AddFact costs one dedup lookup, and each lookup inspects at
  // least one slot.
  EXPECT_GE(s.dedup_lookups, 100u);
  EXPECT_GE(s.dedup_probes, s.dedup_lookups);
  // The keyed body match went through either a scan or an index.
  EXPECT_GT(s.scan_rows + s.index_lookups, 0u);
  std::string line = FormatStorageStats(s);
  EXPECT_NE(line.find("arena bytes"), std::string::npos);
  EXPECT_NE(line.find("per lookup"), std::string::npos);
}

TEST(ExecStatsTest, PerOpRowCountersBothStrategies) {
  for (auto strategy : {ExecOptions::Strategy::kMaterialized,
                        ExecOptions::Strategy::kPipelined}) {
    EngineOptions opts;
    opts.exec.strategy = strategy;
    Engine engine(opts);
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE(engine.AddFact(StrCat("a(", i, ").")).ok());
    }
    engine.ResetExecStats();
    ASSERT_TRUE(engine.ExecuteStatement("out(X) := a(X) & X > 4.").ok());
    // The match streams all 10 rows; the filter passes 5..9.
    EXPECT_EQ(engine.exec_stats().match_rows, 10u);
    EXPECT_EQ(engine.exec_stats().compare_rows, 5u);

    engine.ResetExecStats();
    ASSERT_TRUE(engine.ExecuteStatement("neg(X) := a(X) & !b(X).").ok());
    EXPECT_EQ(engine.exec_stats().negmatch_rows, 10u);
  }
}

TEST(ExecStatsTest, BarrierOpRowCountersCounted) {
  for (auto strategy : {ExecOptions::Strategy::kMaterialized,
                        ExecOptions::Strategy::kPipelined}) {
    EngineOptions opts;
    opts.exec.strategy = strategy;
    Engine engine(opts);
    for (int i = 0; i < 5; ++i) {
      ASSERT_TRUE(engine.AddFact(StrCat("a(", i, ").")).ok());
    }
    engine.ResetExecStats();
    ASSERT_TRUE(engine.ExecuteStatement(
                    "out(X, C) := a(X) & group_by(X) & C = count(X).")
                    .ok());
    // Five singleton groups survive both barrier ops.
    EXPECT_EQ(engine.exec_stats().groupby_rows, 5u);
    EXPECT_EQ(engine.exec_stats().aggregate_rows, 5u);

    engine.ResetExecStats();
    ASSERT_TRUE(engine.ExecuteStatement("out2(X) := a(X) & ++log(X).").ok());
    EXPECT_EQ(engine.exec_stats().update_rows, 5u);
  }
}

TEST(ExecStatsTest, NailRefreshCounted) {
  Engine engine;
  ASSERT_TRUE(engine.LoadProgram(R"(
module kb;
edb e(X);
p(X) :- e(X).
e(1).
end
)").ok());
  engine.ResetExecStats();
  ASSERT_TRUE(engine.Query("p(X)").ok());
  EXPECT_GE(engine.exec_stats().nail_refreshes, 1u);
}

TEST(ExecStatsTest, FixpointReplansOnDeltaDrift) {
  // The iterate plans are first costed at LoadProgram time, before the
  // module facts reach the EDB — so the first fixpoint iteration sees a
  // delta volume far from the (empty) planning-time estimate and must
  // recompile the rule bodies against live statistics. Replanning lives
  // in the direct fixpoint driver.
  EngineOptions opts;
  opts.nail_mode = NailMode::kDirect;
  Engine engine(opts);
  std::string src =
      "module kb;\nedb edge(X,Y);\n"
      "path(X,Y) :- edge(X,Y).\n"
      "path(X,Z) :- path(X,Y) & edge(Y,Z).\n";
  for (int i = 0; i < 40; ++i) {
    src += StrCat("edge(", i, ",", i + 1, ").\n");
  }
  src += "end\n";
  ASSERT_TRUE(engine.LoadProgram(src).ok());
  Result<Engine::QueryResult> r = engine.Query("path(0, Y)");
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->rows.size(), 40u);
  EXPECT_GE(engine.nail_engine()->replan_count(), 1u);
}


/// Golden run-time counters of one guarded statement that mixes every op
/// kind: match, negation, comparison, a Glue procedure call, a body
/// update, group_by and an aggregate. Both strategies share one body
/// loop; these figures pin where each strategy checks its guardrails,
/// breaks its pipeline, forms batch segments and removes duplicates.
struct GoldenCounters {
  ExecOptions::Strategy strategy;
  bool dedup_at_breaks;
  uint64_t pipeline_breaks;
  uint64_t duplicates_removed;
  uint64_t batch_segments;
  uint64_t batch_rows;
  uint64_t records_produced;
  uint64_t control_checks;
};

TEST(ExecStatsTest, GoldenCountersPerStrategyAndDedup) {
  const GoldenCounters kGolden[] = {
      // One segment per match, negation and comparison, and a guardrail
      // check before every op, in the statement and in double's body.
      {ExecOptions::Strategy::kMaterialized, true, 0, 48, 6, 88, 28, 10},
      {ExecOptions::Strategy::kMaterialized, false, 0, 24, 6, 166, 28, 10},
      // One segment per barrier-free run; four breaks (call, update,
      // group_by, aggregate); the mandatory dedup before the aggregate
      // removes the same 24 records with dedup_at_breaks off.
      {ExecOptions::Strategy::kPipelined, true, 4, 24, 2, 2, 28, 5},
      {ExecOptions::Strategy::kPipelined, false, 4, 24, 2, 2, 28, 5},
  };
  for (const GoldenCounters& g : kGolden) {
    SCOPED_TRACE(StrCat(g.strategy == ExecOptions::Strategy::kPipelined
                            ? "pipelined"
                            : "materialized",
                        " dedup=", g.dedup_at_breaks));
    EngineOptions opts;
    opts.exec.strategy = g.strategy;
    opts.exec.dedup_at_breaks = g.dedup_at_breaks;
    Engine engine(opts);
    ASSERT_TRUE(engine.LoadProgram(R"(
module lib;
export double(X:Y);
proc double(X:Y)
  return(X:Y) := in(X) & Y = X * 2.
end
end
)").ok());
    // a(X, Y, W): X in 0..5, Y in 0..7, and a column W the statement
    // ignores, so the match emits each (X, Y) binding twice.
    for (int x = 0; x < 6; ++x) {
      for (int y = 0; y < 8; ++y) {
        for (int w = 0; w < 2; ++w) {
          ASSERT_TRUE(
              engine.AddFact(StrCat("a(", x, ", ", y, ", ", w, ").")).ok());
        }
      }
    }
    for (int y = 0; y < 8; y += 3) {
      ASSERT_TRUE(engine.AddFact(StrCat("b(", y, ").")).ok());
    }
    engine.ResetExecStats();
    QueryOptions guarded;
    guarded.limits.max_rows_scanned = 1'000'000;
    Status st = engine.ExecuteStatement(
        "out(X, S) := a(X, Y, _) & !b(Y) & Y > 1 & double(Y, Z) & "
        "++log(X, Z) & group_by(X) & S = sum(Z).",
        guarded);
    ASSERT_TRUE(st.ok()) << st;
    const ExecStats& s = engine.exec_stats();
    EXPECT_EQ(s.pipeline_breaks, g.pipeline_breaks);
    EXPECT_EQ(s.duplicates_removed, g.duplicates_removed);
    EXPECT_EQ(s.batch_segments, g.batch_segments);
    EXPECT_EQ(s.batch_rows, g.batch_rows);
    EXPECT_EQ(s.records_produced, g.records_produced);
    EXPECT_EQ(s.control_checks, g.control_checks);
    Result<Engine::QueryResult> r = engine.Query("out(X, S)");
    ASSERT_TRUE(r.ok()) << r.status();
    EXPECT_EQ(r->rows.size(), 6u);
  }
}

}  // namespace
}  // namespace gluenail
