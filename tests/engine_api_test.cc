/// Engine facade tests: queries, calls, facts, persistence, statistics,
/// and option plumbing.

#include <gtest/gtest.h>

#include <fstream>

#include "src/api/engine.h"

namespace gluenail {
namespace {

TEST(EngineApiTest, QueryVariablesInFirstAppearanceOrder) {
  Engine engine;
  ASSERT_TRUE(engine.AddFact("edge(1,2).").ok());
  Result<Engine::QueryResult> r = engine.Query("edge(A,B) & B > A");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->vars, (std::vector<std::string>{"A", "B"}));
  ASSERT_EQ(r->rows.size(), 1u);
}

TEST(EngineApiTest, QueryAnswersAreDistinctAndSorted) {
  Engine engine;
  ASSERT_TRUE(engine.AddFact("p(3).").ok());
  ASSERT_TRUE(engine.AddFact("p(1).").ok());
  ASSERT_TRUE(engine.AddFact("q(3).").ok());
  ASSERT_TRUE(engine.AddFact("q(1).").ok());
  // X appears twice; answers deduped.
  Result<Engine::QueryResult> r = engine.Query("p(X) & q(X)");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->rows.size(), 2u);
  EXPECT_EQ(engine.terms().IntValue(r->rows[0][0]), 1);
  EXPECT_EQ(engine.terms().IntValue(r->rows[1][0]), 3);
}

TEST(EngineApiTest, QueryDoesNotDisturbState) {
  Engine engine;
  ASSERT_TRUE(engine.AddFact("p(1).").ok());
  size_t before = engine.snapshot()->edb().num_relations();
  ASSERT_TRUE(engine.Query("p(X)").ok());
  EXPECT_EQ(engine.snapshot()->edb().num_relations(), before);
}

TEST(EngineApiTest, AddFactVariants) {
  Engine engine;
  EXPECT_TRUE(engine.AddFact("edge(1,2).").ok());
  EXPECT_TRUE(engine.AddFact("edge(2,3)").ok());  // dot optional
  EXPECT_TRUE(engine.AddFact("flag.").ok());      // zero arity
  EXPECT_TRUE(engine.AddFact("students(cs99)(wilson).").ok());
  EXPECT_FALSE(engine.AddFact("42.").ok());
  EXPECT_FALSE(engine.AddFact("p(X).").ok());  // not ground
  Result<Engine::QueryResult> r = engine.Query("edge(X,Y)");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->rows.size(), 2u);
}

/// Renders \p goal's answers as "a,b;c,d".
std::string Answers(Engine* engine, std::string_view goal) {
  Result<Engine::QueryResult> r = engine->Query(goal);
  EXPECT_TRUE(r.ok()) << r.status();
  if (!r.ok()) return "<error>";
  std::string out;
  for (const Tuple& row : r->rows) {
    if (!out.empty()) out += ";";
    for (size_t j = 0; j < row.size(); ++j) {
      if (j != 0) out += ",";
      out += engine->terms().ToString(row[j]);
    }
  }
  return out;
}

TEST(EngineApiTest, EdbWritesUnderANailPredicateAreRefused) {
  // A stored path(7,8) beside the rule-defined path/2 would answer the
  // dynamic read rel(P) & P(X,Y) with a row the static read never sees.
  Engine engine;
  ASSERT_TRUE(engine.LoadProgram(R"(
module kb;
edb edge(X,Y), attends(S,C);
path(X,Y) :- edge(X,Y).
students(C)(S) :- attends(S,C).
edge(1,2).
attends(ann, cs99).
end
)").ok());
  MutationBatch batch;
  batch.Insert("rel(path)");
  batch.Insert("path(7,8)");
  Status st = engine.ApplyBatch(batch).status();
  EXPECT_TRUE(st.IsInvalidArgument()) << st;
  EXPECT_NE(st.message().find("path/2"), std::string::npos) << st;
  // Nothing of the refused batch was applied.
  EXPECT_EQ(Answers(&engine, "rel(P)"), "");
  // A HiLog family f(p1..pk) is f/k/arity; the loads take the same check.
  EXPECT_TRUE(engine.AddFact("students(cs99)(bo).").IsInvalidArgument());
  EXPECT_TRUE(
      engine.LoadEdbText("path(7,8).\n").status().IsInvalidArgument());
  // An erase passes: it can only remove a stored row the memo hides.
  MutationBatch erase;
  erase.Erase("path(7,8)");
  EXPECT_TRUE(engine.ApplyBatch(erase).ok());
  // Another arity, or another parameter count, is another relation.
  EXPECT_TRUE(engine.AddFact("path(7,8,9).").ok());
  EXPECT_TRUE(engine.AddFact("students(bo).").ok());

  ASSERT_TRUE(engine.AddFact("rel(path).").ok());
  EXPECT_EQ(Answers(&engine, "path(X,Y)"), "1,2");
  EXPECT_EQ(Answers(&engine, "rel(P) & P(X,Y)"), "path,1,2");
  EXPECT_EQ(Answers(&engine, "students(cs99)(S)"), "ann");
}

TEST(EngineApiTest, DynamicInsertsUnderANailPredicateAreRefused) {
  // The batch rule above, for a dynamic HiLog statement write: every
  // insert form is refused before anything is written, also to the other
  // relations the same statement names; erases pass.
  Engine engine;
  ASSERT_TRUE(engine.LoadProgram(R"(
module kb;
edb edge(X,Y), attends(S,C);
path(X,Y) :- edge(X,Y).
students(C)(S) :- attends(S,C).
edge(1,2).
attends(ann, cs99).
end
)").ok());
  ASSERT_TRUE(engine.AddFact("rel(edge).").ok());
  ASSERT_TRUE(engine.AddFact("rel(path).").ok());
  ASSERT_TRUE(engine.AddFact("fam(students(cs99)).").ok());
  for (std::string_view insert : {
           "R(X,Y) += rel(R) & X = 7 & Y = 8.",
           "R(X,Y) := rel(R) & X = 7 & Y = 8.",
           "R(X,Y) +=[X] rel(R) & X = 7 & Y = 8.",
           "done(1) += rel(R) & ++R(7,8).",
       }) {
    Status st = engine.ExecuteStatement(insert);
    EXPECT_TRUE(st.IsInvalidArgument()) << insert << ": " << st;
    EXPECT_NE(st.message().find("path/2"), std::string::npos) << st;
  }
  EXPECT_TRUE(engine.ExecuteStatement("F(S) += fam(F) & S = bo.")
                  .IsInvalidArgument());
  // Nothing was written, not even to edge, which the statements also name.
  EXPECT_EQ(Answers(&engine, "edge(X,Y)"), "1,2");
  EXPECT_EQ(Answers(&engine, "students(cs99)(S)"), "ann");
  EXPECT_TRUE(engine.RelationContents("done", 1).status().IsNotFound());
  // The static and the dynamic read of path agree.
  EXPECT_EQ(Answers(&engine, "path(X,Y)"), "1,2");
  EXPECT_EQ(Answers(&engine, "rel(P) & P(X,Y) & P = path"), "path,1,2");
  // Erases pass: they can only remove stored rows.
  EXPECT_TRUE(
      engine.ExecuteStatement("R(X,Y) -= rel(R) & X = 1 & Y = 2.").ok());
  EXPECT_TRUE(engine.ExecuteStatement("done(1) += rel(R) & --R(1,2).").ok());
  EXPECT_EQ(Answers(&engine, "path(X,Y)"), "");
  EXPECT_EQ(Answers(&engine, "rel(P) & P(X,Y)"), "");
}

TEST(EngineApiTest, RelationContents) {
  Engine engine;
  ASSERT_TRUE(engine.AddFact("p(2).").ok());
  ASSERT_TRUE(engine.AddFact("p(1).").ok());
  Result<std::vector<Tuple>> rows = engine.RelationContents("p", 1);
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 2u);
  EXPECT_EQ(engine.terms().IntValue((*rows)[0][0]), 1);
  EXPECT_TRUE(engine.RelationContents("zzz", 1).status().IsNotFound());
}

TEST(EngineApiTest, RelationContentsReachesNailPredicates) {
  Engine engine;
  ASSERT_TRUE(engine.LoadProgram(R"(
module kb;
edb edge(X,Y);
path(X,Y) :- edge(X,Y).
path(X,Z) :- path(X,Y) & edge(Y,Z).
edge(1,2). edge(2,3).
end
)").ok());
  Result<std::vector<Tuple>> rows = engine.RelationContents("path", 2);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 3u);
}

TEST(EngineApiTest, EdbPersistenceBetweenRuns) {
  // §10: "storing EDB relations on disk between runs".
  const std::string path = testing::TempDir() + "/gluenail_engine_run.facts";
  {
    Engine engine;
    ASSERT_TRUE(engine.AddFact("account(alice, 100).").ok());
    ASSERT_TRUE(engine.AddFact("account(bob, 50).").ok());
    ASSERT_TRUE(
        engine.ExecuteStatement(
                  "account(N, B) +=[N] account(N, B0) & N = alice & "
                  "B = B0 + 10.")
            .ok());
    ASSERT_TRUE(engine.SaveEdbFile(path).ok());
  }
  {
    Engine engine;
    ASSERT_TRUE(engine.LoadEdbFile(path).ok());
    Result<Engine::QueryResult> r = engine.Query("account(alice, B)");
    ASSERT_TRUE(r.ok());
    ASSERT_EQ(r->rows.size(), 1u);
    EXPECT_EQ(engine.terms().IntValue(r->rows[0][0]), 110);
  }
}

TEST(EngineApiTest, CompileStatsArePopulated) {
  constexpr std::string_view kProgram = R"(
module kb;
edb edge(X,Y);
export go(:);
path(X,Y) :- edge(X,Y).
path(X,Z) :- path(X,Y) & edge(Y,Z).
proc go(:)
  return(:) := true.
end
end
)";
  Engine engine;
  ASSERT_TRUE(engine.LoadProgram(kProgram).ok());
  const CompileStats& cs = engine.compile_stats();
  EXPECT_EQ(cs.modules, 1u);
  EXPECT_EQ(cs.procedures, 1u);
  // The direct NAIL! driver needs no generated Glue procedures.
  EXPECT_EQ(cs.generated_procedures, 0u);
  EXPECT_EQ(cs.nail_rules, 2u);
  EXPECT_EQ(cs.nail_predicates, 1u);
  EXPECT_GT(cs.statements, 0u);
  EXPECT_FALSE(FormatCompileStats(cs).empty());

  // The compiled-Glue driver (the E10 artifact) still compiles on request.
  EngineOptions opts;
  opts.nail_mode = NailMode::kCompiledGlue;
  Engine compiled(opts);
  ASSERT_TRUE(compiled.LoadProgram(kProgram).ok());
  EXPECT_GE(compiled.compile_stats().generated_procedures,
            2u);  // stratum + driver
}

TEST(EngineApiTest, ExecStatsAccumulateAndReset) {
  Engine engine;
  ASSERT_TRUE(engine.AddFact("p(1).").ok());
  ASSERT_TRUE(engine.ExecuteStatement("q(X) := p(X).").ok());
  EXPECT_GT(engine.exec_stats().statements, 0u);
  EXPECT_FALSE(FormatExecStats(engine.exec_stats()).empty());
  engine.ResetExecStats();
  EXPECT_EQ(engine.exec_stats().statements, 0u);
}

TEST(EngineApiTest, HostRegistrationAfterLoadRejected) {
  Engine engine;
  ASSERT_TRUE(engine.LoadProgram("module m; end").ok());
  HostProcedure h;
  h.name = "late";
  h.fn = [](TermPool*, const Relation&, Relation*) { return Status::OK(); };
  EXPECT_TRUE(engine.RegisterHostProcedure(std::move(h)).IsInvalidArgument());
}

TEST(EngineApiTest, HostWithoutCallbackRejected) {
  Engine engine;
  HostProcedure h;
  h.name = "broken";
  EXPECT_TRUE(engine.RegisterHostProcedure(std::move(h)).IsInvalidArgument());
}

TEST(EngineApiTest, LoadProgramReplacesPrevious) {
  Engine engine;
  ASSERT_TRUE(engine.LoadProgram(R"(
module a;
export f(:X);
proc f(:X)
  return(:X) := true & X = 1.
end
end
)").ok());
  ASSERT_TRUE(engine.Call("f", {Tuple{}}).ok());
  ASSERT_TRUE(engine.LoadProgram(R"(
module b;
export g(:X);
proc g(:X)
  return(:X) := true & X = 2.
end
end
)").ok());
  EXPECT_TRUE(engine.Call("f", {Tuple{}}).status().IsNotFound());
  EXPECT_TRUE(engine.Call("g", {Tuple{}}).ok());
}

TEST(EngineApiTest, CallInputArityChecked) {
  Engine engine;
  ASSERT_TRUE(engine.LoadProgram(R"(
module m;
export f(X:Y);
proc f(X:Y)
  return(X:Y) := in(X) & Y = X.
end
end
)").ok());
  Tuple wrong{*engine.InternTerm("1"), *engine.InternTerm("2")};
  EXPECT_TRUE(engine.Call("f", {wrong}).status().IsInvalidArgument());
}

TEST(EngineApiTest, LoadProgramFile) {
  const std::string path = testing::TempDir() + "/engine_prog.gn";
  {
    std::ofstream f(path);
    f << "module kb;\nedb e(X);\np(X) :- e(X).\ne(3).\nend\n";
  }
  Engine engine;
  ASSERT_TRUE(engine.LoadProgramFile(path).ok());
  Result<Engine::QueryResult> r = engine.Query("p(X)");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->rows.size(), 1u);
  EXPECT_TRUE(
      engine.LoadProgramFile("/nonexistent/file.gn").IsIoError());
}

TEST(EngineApiTest, ParseErrorsSurfaceWithLocation) {
  Engine engine;
  Status s = engine.LoadProgram("module m; p(X) := q(X) end");
  ASSERT_TRUE(s.IsParseError());
  EXPECT_NE(s.message().find("line"), std::string::npos);
}

TEST(EngineApiTest, IndexPolicyOptionReachesRelations) {
  // Three keyed reads of a 20-row EDB relation. kAlwaysIndex indexes on the
  // first read; kAdaptive scans once and indexes on the second, when its
  // scan cost has reached the build cost (20 rows at the default factor);
  // kNeverIndex scans every time. The storage counters tell them apart,
  // so a policy lost between EngineOptions and the relation fails here.
  struct Case {
    IndexPolicy policy;
    uint64_t indexes_built;
    uint64_t index_lookups;
    uint64_t scan_rows;
  };
  for (const Case& c : {Case{IndexPolicy::kAlwaysIndex, 1, 3, 0},
                        Case{IndexPolicy::kAdaptive, 1, 2, 20},
                        Case{IndexPolicy::kNeverIndex, 0, 0, 60}}) {
    SCOPED_TRACE(static_cast<int>(c.policy));
    EngineOptions opts;
    opts.index_policy = c.policy;
    Engine engine(opts);
    MutationBatch batch;
    for (int i = 0; i < 20; ++i) {
      batch.Insert(StrCat("p(", i, ",", i + 1, ")"));
    }
    ASSERT_TRUE(engine.ApplyBatch(batch).ok());
    for (int read = 0; read < 3; ++read) {
      Result<Engine::QueryResult> r = engine.Query("p(3, Y)");
      ASSERT_TRUE(r.ok()) << r.status();
      EXPECT_EQ(r->rows.size(), 1u);
    }
    const StorageStats stats = engine.storage_stats();
    EXPECT_EQ(stats.indexes_built, c.indexes_built);
    EXPECT_EQ(stats.index_lookups, c.index_lookups);
    EXPECT_EQ(stats.scan_rows, c.scan_rows);
  }
}

TEST(EngineApiTest, DedupOptionObservableInStats) {
  EngineOptions with;
  with.exec.dedup_at_breaks = true;
  EngineOptions without;
  without.exec.dedup_at_breaks = false;
  for (EngineOptions* o : {&with, &without}) {
    Engine engine(*o);
    // A join that produces duplicate binding projections.
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE(
          engine.AddFact(StrCat("s(", i, ",", i % 2, ").")).ok());
    }
    ASSERT_TRUE(engine.ExecuteStatement("t(Y) := s(X, Y).").ok());
    Result<Engine::QueryResult> r = engine.Query("t(Y)");
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->rows.size(), 2u);  // identical answers either way
  }
}

}  // namespace
}  // namespace gluenail
