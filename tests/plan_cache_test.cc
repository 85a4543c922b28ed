/// The read plan cache (plan/plan_cache.h): a read whose shape was planned
/// before runs the cached plan with its own constants, and gives the same
/// answers and the same per-op actual rows as a fresh engine that plans it;
/// LoadProgram and an 8x drift in a relation's size force a new plan; a
/// goal that fails to plan is never cached; sessions share plans safely.

#include <gtest/gtest.h>

#include <functional>
#include <random>
#include <thread>

#include "src/api/engine.h"
#include "src/api/session.h"
#include "src/common/strings.h"
#include "src/plan/physical.h"

namespace gluenail {
namespace {

/// Every " actual=N" of a rendered plan, in op order.
std::vector<uint64_t> ActualRows(const std::string& plan) {
  std::vector<uint64_t> rows;
  const std::string marker = " actual=";
  for (size_t pos = plan.find(marker); pos != std::string::npos;
       pos = plan.find(marker, pos)) {
    pos += marker.size();
    rows.push_back(std::stoull(plan.substr(pos)));
  }
  return rows;
}

std::string Render(const Engine& engine, const Engine::QueryResult& r) {
  std::string out = Join(r.vars, ",") + ":";
  for (const Tuple& t : r.rows) out += " " + TupleToString(engine.terms(), t);
  return out;
}

bool EndsWith(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

/// One traced session read: its answers and its plan text.
struct Traced {
  std::string answers;
  std::string plan;
};

Traced TracedRead(Engine* engine, const std::string& goal) {
  Session session = engine->OpenSession();
  QueryOptions opts;
  opts.trace = true;
  Result<Engine::QueryResult> r = session.Query(goal, opts);
  EXPECT_TRUE(r.ok()) << goal << ": " << r.status();
  if (!r.ok()) return {};
  EXPECT_NE(session.last_trace(), nullptr);
  return {Render(*engine, *r), session.last_trace()->plan};
}

/// A counter's value, read from the Prometheus dump.
uint64_t Counter(const Engine& engine, const std::string& name) {
  const std::string dump = engine.DumpMetrics(MetricsFormat::kPrometheus);
  const size_t pos = dump.find("\n" + name + " ");
  EXPECT_NE(pos, std::string::npos) << name;
  return pos == std::string::npos
             ? 0
             : std::stoull(dump.substr(pos + name.size() + 2));
}

/// A program of the strategies property suite, with goal templates over
/// it: each `#` is replaced by a constant drawn from `constants`.
struct Scenario {
  std::string name;
  std::function<void(Engine*)> setup;
  std::vector<std::string> templates;
  std::vector<std::string> constants;
};

std::vector<Scenario> Scenarios() {
  std::vector<Scenario> out;
  std::mt19937 rng(20261019);
  {
    std::uniform_int_distribution<int> node(0, 19);
    std::string src =
        "module kb;\nedb edge(X,Y);\npath(X,Y) :- edge(X,Y).\n"
        "path(X,Z) :- path(X,Y) & edge(Y,Z).\n";
    for (int i = 0; i < 40; ++i) {
      src += StrCat("edge(", node(rng), ",", node(rng), ").\n");
    }
    src += "end\n";
    out.push_back(
        {"reachability",
         [src](Engine* e) { ASSERT_TRUE(e->LoadProgram(src).ok()); },
         {"path(#,Y)", "edge(#,Y)", "edge(#,Y) & edge(Y,Z)", "path(X,#)",
          "edge(#,Y) & !path(Y,#)", "path(#,Y) & Y > 4",
          "edge(X,Y) & path(Y,#) & !edge(#,X)", "path(#,#)"},
         {"0", "1", "2", "3", "5", "8", "13", "19", "25"}});
  }
  {
    std::uniform_int_distribution<int> v(0, 5);
    std::vector<std::string> facts;
    for (int i = 0; i < 40; ++i) {
      facts.push_back(StrCat("s(", v(rng), ",", v(rng), ",", v(rng), ")."));
      facts.push_back(StrCat("t(", v(rng), ",", v(rng), ",", v(rng), ")."));
    }
    out.push_back(
        {"joins",
         [facts](Engine* e) {
           for (const std::string& f : facts) ASSERT_TRUE(e->AddFact(f).ok());
         },
         {"s(#, B, _) & t(B, _, D)", "s(A, #, C) & t(C, #, D)",
          "s(A, B, C) & !t(A, #, C)", "t(#, B, C) & s(C, B, #)"},
         {"0", "1", "2", "4", "5", "6"}});
  }
  {
    std::uniform_int_distribution<int> v(0, 7);
    std::vector<std::string> facts;
    for (const char* rel : {"a", "b", "c"}) {
      for (int i = 0; i < 30; ++i) {
        facts.push_back(StrCat(rel, "(", v(rng), ",", v(rng), ")."));
      }
    }
    out.push_back(
        {"chain",
         [facts](Engine* e) {
           for (const std::string& f : facts) ASSERT_TRUE(e->AddFact(f).ok());
         },
         {"a(#, X) & b(X, Y) & c(Y, Z)", "a(W, X) & b(X, #) & c(#, Z)",
          "c(Y, #) & a(#, X)"},
         {"0", "1", "3", "6", "7"}});
  }
  return out;
}

std::string Instantiate(const std::string& tmpl, const Scenario& s,
                        std::mt19937* rng) {
  std::uniform_int_distribution<size_t> pick(0, s.constants.size() - 1);
  std::string goal;
  for (char c : tmpl) {
    if (c == '#') {
      goal += s.constants[pick(*rng)];
    } else {
      goal += c;
    }
  }
  return goal;
}

TEST(PlanCacheTest, HitMatchesAFreshEngineAndAnUncachedStatement) {
  std::mt19937 rng(7);
  for (const Scenario& s : Scenarios()) {
    for (const std::string& tmpl : s.templates) {
      for (int trial = 0; trial < 3; ++trial) {
        const std::string first = Instantiate(tmpl, s, &rng);
        const std::string second = Instantiate(tmpl, s, &rng);
        SCOPED_TRACE(StrCat(s.name, ": ", first, " then ", second));

        Engine cached;
        s.setup(&cached);
        TracedRead(&cached, first);
        const uint64_t hits = Counter(cached, "gluenail_plan_cache_hits_total");
        const uint64_t planned =
            GlobalPlannerCounters().bodies_planned.load();
        Traced hit = TracedRead(&cached, second);
        EXPECT_EQ(Counter(cached, "gluenail_plan_cache_hits_total"),
                  hits + 1);
        EXPECT_EQ(GlobalPlannerCounters().bodies_planned.load(), planned);
        EXPECT_TRUE(EndsWith(hit.plan, "  ; cached\n")) << hit.plan;

        Engine fresh;
        s.setup(&fresh);
        Traced miss = TracedRead(&fresh, second);
        EXPECT_FALSE(EndsWith(miss.plan, "; cached\n")) << miss.plan;
        EXPECT_EQ(hit.answers, miss.answers);
        EXPECT_EQ(ActualRows(hit.plan), ActualRows(miss.plan))
            << hit.plan << miss.plan;

        // The same goal as an ad-hoc statement is never cached and keeps
        // its constants in the plan: its EXPLAIN ANALYZE rows and answers
        // must agree too.
        Result<Engine::QueryResult> shape = fresh.Query(second);
        ASSERT_TRUE(shape.ok());
        std::string head = StrCat("answer_rel(", Join(shape->vars, ","), ")");
        if (shape->vars.empty()) head = "answer_rel";
        Engine statement;
        s.setup(&statement);
        ASSERT_TRUE(statement.OpenSession().Snapshot().ok());  // fresh memos
        ExplainOptions analyze;
        analyze.analyze = true;
        Result<std::string> explained = statement.ExplainStatement(
            StrCat(head, " := ", second, "."), analyze);
        ASSERT_TRUE(explained.ok()) << explained.status();
        EXPECT_EQ(ActualRows(hit.plan), ActualRows(*explained))
            << hit.plan << *explained;
        Result<Engine::QueryResult> stored = statement.Query(
            shape->vars.empty() ? "answer_rel" : head);
        ASSERT_TRUE(stored.ok()) << stored.status();
        stored->vars = shape->vars;
        EXPECT_EQ(Render(statement, *stored), hit.answers);
      }
    }
  }
}

TEST(PlanCacheTest, ServedShapesShareOnePlanEach) {
  Engine engine;
  ASSERT_TRUE(engine
                  .LoadProgram("module kb;\nedb edge(X,Y);\n"
                               "path(X,Y) :- edge(X,Y).\n"
                               "path(X,Z) :- path(X,Y) & edge(Y,Z).\nend\n")
                  .ok());
  MutationBatch batch;
  for (int chain = 0; chain < 20; ++chain) {
    for (int pos = 0; pos < 10; ++pos) {
      batch.Insert(StrCat("edge(", chain * 100 + pos, ",",
                          chain * 100 + pos + 1, ")"));
    }
  }
  ASSERT_TRUE(engine.ApplyBatch(batch).ok());
  Session session = engine.OpenSession();
  for (int k = 0; k < 30; ++k) {
    const int node = (k % 20) * 100 + k % 10;
    Result<Engine::QueryResult> path =
        session.Query(StrCat("path(", node, ",Y)"));
    ASSERT_TRUE(path.ok());
    EXPECT_EQ(path->rows.size(), static_cast<size_t>(10 - k % 10));
    Result<Engine::QueryResult> edge =
        session.Query(StrCat("edge(", node, ",Y)"));
    ASSERT_TRUE(edge.ok());
    EXPECT_EQ(edge->rows.size(), 1u);
    Result<Engine::QueryResult> hop =
        session.Query(StrCat("edge(", node, ",Y) & edge(Y,Z)"));
    ASSERT_TRUE(hop.ok());
    EXPECT_EQ(hop->rows.size(), k % 10 < 9 ? 1u : 0u);
  }
  EXPECT_EQ(Counter(engine, "gluenail_plan_cache_misses_total"), 3u);
  EXPECT_EQ(Counter(engine, "gluenail_plan_cache_replans_total"), 0u);
  EXPECT_EQ(Counter(engine, "gluenail_plan_cache_hits_total"), 87u);
}

TEST(PlanCacheTest, ShapeKeepsNamesCompoundsAndComparisonsAsWritten) {
  Engine engine;
  for (const char* f :
       {"p(1,10).", "p(a,20).", "p(f(1),30).", "p(f(2),40).",
        "students(cs99)(wilson).", "students(cs11)(ada)."}) {
    ASSERT_TRUE(engine.AddFact(f).ok());
  }
  auto misses = [&] {
    return Counter(engine, "gluenail_plan_cache_misses_total");
  };
  auto rows = [&](const std::string& goal) {
    Result<Engine::QueryResult> r = engine.Query(goal);
    EXPECT_TRUE(r.ok()) << goal << ": " << r.status();
    return r.ok() ? Render(engine, *r) : std::string();
  };
  EXPECT_EQ(rows("p(1,Y)"), "Y: (10)");
  EXPECT_EQ(misses(), 1u);
  EXPECT_EQ(rows("p(a,Y)"), "Y: (20)");  // a symbol is a parameter too
  EXPECT_EQ(rows("p(1.5,Y)"), "Y:");
  EXPECT_EQ(misses(), 1u);
  EXPECT_EQ(rows("p(f(1),Y)"), "Y: (30)");  // compounds stay in the key
  EXPECT_EQ(rows("p(f(2),Y)"), "Y: (40)");
  EXPECT_EQ(misses(), 3u);
  EXPECT_EQ(rows("p(X,Y) & Y > 15"), "X,Y: (a,20) (f(1),30) (f(2),40)");
  EXPECT_EQ(rows("p(X,Y) & Y > 25"), "X,Y: (f(1),30) (f(2),40)");
  EXPECT_EQ(misses(), 5u);
  EXPECT_EQ(rows("p(1,Z)"), "Z: (10)");  // another variable, another shape
  EXPECT_EQ(misses(), 6u);
  EXPECT_EQ(rows("students(cs99)(S)"), "S: (wilson)");
  EXPECT_EQ(rows("students(cs11)(S)"), "S: (ada)");
  EXPECT_EQ(misses(), 8u);
}

TEST(PlanCacheTest, TheLeastRecentlyUsedShapeIsDropped) {
  Engine engine;
  ASSERT_TRUE(engine.AddFact("p(1,2).").ok());
  // Each variable name is a shape of its own.
  for (size_t i = 0; i <= PlanCache::kCapacity; ++i) {
    ASSERT_TRUE(engine.Query(StrCat("p(1,V", i, ")")).ok());
  }
  const uint64_t misses = PlanCache::kCapacity + 1;
  ASSERT_EQ(Counter(engine, "gluenail_plan_cache_misses_total"), misses);
  ASSERT_TRUE(engine.Query(StrCat("p(2,V", PlanCache::kCapacity, ")")).ok());
  EXPECT_EQ(Counter(engine, "gluenail_plan_cache_misses_total"), misses);
  ASSERT_TRUE(engine.Query("p(2,V0)").ok());  // dropped, planned again
  EXPECT_EQ(Counter(engine, "gluenail_plan_cache_misses_total"), misses + 1);
}

TEST(PlanCacheTest, CallInputsKeepTheirMeaning) {
  // A call evaluates its inputs; `sum_to(2+1, S)` stays its own shape and
  // passes 3, while atomic inputs share one plan.
  Engine engine;
  ASSERT_TRUE(engine
                  .LoadProgram(R"(
module m;
export sum_to(N:S);
proc sum_to(N:S)
rels smaller(M,S2);
  return(N:S) := in(N) & N = 0 & S = 0.
  smaller(M,S2) := in(N) & N > 0 & M = N - 1 & sum_to(M, S2).
  return(N:S) := in(N) & smaller(M,S2) & M = N - 1 & S = S2 + N.
end
end
)")
                  .ok());
  for (auto [goal, want] : std::vector<std::pair<std::string, std::string>>{
           {"sum_to(5, S)", "S: (15)"},
           {"sum_to(3, S)", "S: (6)"},
           {"sum_to(2+1, S)", "S: (6)"},
           {"sum_to(4, 10)", ": ()"},
           {"sum_to(4, 11)", ":"}}) {
    Result<Engine::QueryResult> r = engine.Query(goal);
    ASSERT_TRUE(r.ok()) << goal << ": " << r.status();
    EXPECT_EQ(Render(engine, *r), want) << goal;
  }
  EXPECT_EQ(Counter(engine, "gluenail_plan_cache_hits_total"), 2u);
}

TEST(PlanCacheTest, LoadProgramInvalidates) {
  Engine engine;
  ASSERT_TRUE(engine
                  .LoadProgram("module kb;\nedb edge(X,Y);\n"
                               "link(X,Y) :- edge(X,Y).\n"
                               "edge(1,2).\nedge(2,3).\nend\n")
                  .ok());
  // Session reads plan against fresh memos, so the second read is a hit.
  auto read = [&](const char* goal) {
    return Render(engine, *engine.OpenSession().Query(goal));
  };
  ASSERT_EQ(read("link(1,Y)"), "Y: (2)");
  ASSERT_EQ(read("link(2,Y)"), "Y: (3)");
  EXPECT_EQ(Counter(engine, "gluenail_plan_cache_hits_total"), 1u);

  // The same shape under a new program: link now runs backwards.
  ASSERT_TRUE(engine
                  .LoadProgram("module kb;\nedb edge(X,Y);\n"
                               "link(X,Y) :- edge(Y,X).\nend\n")
                  .ok());
  EXPECT_EQ(read("link(2,Y)"), "Y: (1)");
  EXPECT_EQ(Counter(engine, "gluenail_plan_cache_misses_total"), 2u);
  EXPECT_EQ(Counter(engine, "gluenail_plan_cache_hits_total"), 1u);
}

TEST(PlanCacheTest, WriterReadsRefreshAStaleMemoBeforePlanning) {
  // Engine::Query refreshes the link memo before planning link(1,Y), so
  // the plan is costed against the memo's rows and link(2,Y) is a hit.
  Engine engine;
  ASSERT_TRUE(engine
                  .LoadProgram("module kb;\nedb edge(X,Y);\n"
                               "link(X,Y) :- edge(X,Y).\n"
                               "edge(1,2).\nedge(2,3).\nend\n")
                  .ok());
  auto read = [&](const char* goal) {
    return Render(engine, *engine.Query(goal));
  };
  ASSERT_EQ(read("link(1,Y)"), "Y: (2)");
  ASSERT_EQ(read("link(2,Y)"), "Y: (3)");
  EXPECT_EQ(Counter(engine, "gluenail_plan_cache_hits_total"), 1u);
  EXPECT_EQ(Counter(engine, "gluenail_plan_cache_replans_total"), 0u);
}

TEST(PlanCacheTest, EightfoldGrowthReplansAndTwofoldDoesNot) {
  Engine engine;
  int next = 0;
  auto grow_to = [&](int rows) {
    MutationBatch batch;
    for (; next < rows; ++next) {
      batch.Insert(StrCat("r(", next % 10, ",", next, ")"));
    }
    ASSERT_TRUE(engine.ApplyBatch(batch).ok());
  };
  auto replans = [&] {
    return Counter(engine, "gluenail_plan_cache_replans_total");
  };
  Session session = engine.OpenSession();
  grow_to(100);
  ASSERT_TRUE(session.Query("r(1,Y)").ok());
  ASSERT_TRUE(session.Query("r(2,Y)").ok());
  EXPECT_EQ(Counter(engine, "gluenail_plan_cache_hits_total"), 1u);

  grow_to(200);  // 2x: the plan stands
  ASSERT_TRUE(session.Query("r(3,Y)").ok());
  EXPECT_EQ(replans(), 0u);
  EXPECT_EQ(Counter(engine, "gluenail_plan_cache_hits_total"), 2u);

  grow_to(800);  // 8x the 100 rows it was costed against
  QueryOptions traced;
  traced.trace = true;
  Result<Engine::QueryResult> r = session.Query("r(4,Y)", traced);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->rows.size(), 80u);
  EXPECT_EQ(replans(), 1u);
  EXPECT_NE(session.last_trace()->plan.find("est=80"), std::string::npos)
      << session.last_trace()->plan;
  EXPECT_FALSE(EndsWith(session.last_trace()->plan, "; cached\n"));

  // The new plan is cached against 800 rows.
  ASSERT_TRUE(session.Query("r(5,Y)").ok());
  EXPECT_EQ(replans(), 1u);
  EXPECT_EQ(Counter(engine, "gluenail_plan_cache_hits_total"), 3u);
}

TEST(PlanCacheTest, ARelationThatAppearsForcesANewPlan) {
  Engine engine;
  Session session = engine.OpenSession();
  ASSERT_EQ(session.Query("q(1,Y)")->rows.size(), 0u);  // q is unknown
  ASSERT_TRUE(engine.AddFact("q(1,2).").ok());
  ASSERT_EQ(session.Query("q(1,Y)")->rows.size(), 1u);
  EXPECT_EQ(Counter(engine, "gluenail_plan_cache_replans_total"), 1u);
}

TEST(PlanCacheTest, FailedPlansAreNotCachedAndReportTheGoalAsWritten) {
  Engine engine;
  ASSERT_TRUE(engine.AddFact("p(1,2).").ok());
  Result<Engine::QueryResult> first = engine.Query("!p(1, X)");
  Result<Engine::QueryResult> second = engine.Query("!p(1, X)");
  ASSERT_FALSE(first.ok());
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(first.status().ToString(), second.status().ToString());
  EXPECT_NE(first.status().message().find("!p(1,X)"), std::string::npos)
      << first.status();
  EXPECT_EQ(first.status().message().find("$p"), std::string::npos)
      << first.status();
  EXPECT_EQ(Counter(engine, "gluenail_plan_cache_hits_total"), 0u);
  EXPECT_EQ(Counter(engine, "gluenail_plan_cache_misses_total"), 2u);
}

TEST(PlanCacheTest, ParametersNeverShowUpInAnswers) {
  Engine engine;
  ASSERT_TRUE(engine.AddFact("e(1,2).").ok());
  ASSERT_TRUE(engine.AddFact("e(2,3).").ok());
  for (int i = 0; i < 2; ++i) {
    Result<Engine::QueryResult> r = engine.Query("e(1,Y) & e(Y,3)");
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->vars, std::vector<std::string>{"Y"});
    EXPECT_EQ(Render(engine, *r), "Y: (2)");
    Result<Engine::QueryResult> ground = engine.Query("e(1,2)");
    ASSERT_TRUE(ground.ok());
    EXPECT_TRUE(ground->vars.empty());
    EXPECT_EQ(ground->rows.size(), 1u);
    EXPECT_TRUE(ground->rows[0].empty());
  }
  EXPECT_EQ(Counter(engine, "gluenail_plan_cache_hits_total"), 2u);
}

TEST(PlanCacheTest, TwoSessionsReadOneShapeAtOnce) {
  Engine engine;
  MutationBatch batch;
  for (int i = 0; i < 200; ++i) batch.Insert(StrCat("n(", i, ",", i + 1, ")"));
  ASSERT_TRUE(engine.ApplyBatch(batch).ok());
  auto reader = [&](int offset, int* wrong) {
    Session session = engine.OpenSession();
    for (int i = 0; i < 300; ++i) {
      const int k = (i * 7 + offset) % 200;
      Result<Engine::QueryResult> r =
          session.Query(StrCat("n(", k, ",Y) & n(Y,Z)"));
      const size_t want = k < 199 ? 1 : 0;
      if (!r.ok() || r->rows.size() != want ||
          (want == 1 && TupleToString(engine.terms(), r->rows[0]) !=
                            StrCat("(", k + 1, ",", k + 2, ")"))) {
        ++*wrong;
      }
    }
  };
  int wrong_a = 0;
  int wrong_b = 0;
  std::thread a(reader, 0, &wrong_a);
  std::thread b(reader, 1, &wrong_b);
  a.join();
  b.join();
  EXPECT_EQ(wrong_a, 0);
  EXPECT_EQ(wrong_b, 0);
  EXPECT_EQ(Counter(engine, "gluenail_plan_cache_hits_total") +
                Counter(engine, "gluenail_plan_cache_misses_total"),
            600u);
  EXPECT_GE(Counter(engine, "gluenail_plan_cache_hits_total"), 598u);
}

}  // namespace
}  // namespace gluenail
