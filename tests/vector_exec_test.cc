/// Golden suite for the operator path (src/exec/vector/): matches,
/// negations and comparisons — including structural column patterns and
/// dynamic (HiLog) accesses — pinned to recorded answers, EXPLAIN ANALYZE
/// actual= rows and exact ExecStats::rows_scanned, on both strategies and
/// every index policy. Long answers are pinned as "<rows> rows #<fnv-1a>"
/// of their rendering.

#include <gtest/gtest.h>

#include <cstdio>
#include <functional>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "src/api/engine.h"

namespace gluenail {
namespace {

struct Config {
  ExecOptions::Strategy strategy;
  IndexPolicy policy = IndexPolicy::kAdaptive;
};

std::string ConfigName(const Config& c) {
  return StrCat("strategy=", static_cast<int>(c.strategy),
                " policy=", static_cast<int>(c.policy));
}

const ExecOptions::Strategy kStrategies[] = {
    ExecOptions::Strategy::kMaterialized, ExecOptions::Strategy::kPipelined};

std::vector<Config> AllConfigs() {
  std::vector<Config> out;
  for (auto strategy : kStrategies) {
    for (auto policy : {IndexPolicy::kNeverIndex, IndexPolicy::kAdaptive,
                        IndexPolicy::kAlwaysIndex}) {
      out.push_back(Config{strategy, policy});
    }
  }
  return out;
}

/// Strategy x pinned index policy: the configs whose rows_scanned is a
/// fixed number (the adaptive policy's conversion point is kept out).
std::vector<Config> PinnedPolicyConfigs(IndexPolicy policy) {
  std::vector<Config> out;
  for (auto strategy : kStrategies) out.push_back(Config{strategy, policy});
  return out;
}

std::unique_ptr<Engine> MakeEngine(const Config& c) {
  EngineOptions opts;
  opts.exec.strategy = c.strategy;
  opts.index_policy = c.policy;
  return std::make_unique<Engine>(opts);
}

std::string Render(Engine* engine, const Engine::QueryResult& r) {
  std::string out;
  for (size_t i = 0; i < r.rows.size(); ++i) {
    if (i != 0) out += ";";
    out += TupleToString(engine->terms(), r.rows[i]);
  }
  return out;
}

/// The pinned form of an answer: the rendering itself when short, else
/// its row count and FNV-1a digest.
std::string Pin(Engine* engine, const Engine::QueryResult& r) {
  std::string text = Render(engine, r);
  if (text.size() <= 64) return text;
  uint64_t h = 14695981039346656037ull;
  for (unsigned char ch : text) {
    h ^= ch;
    h *= 1099511628211ull;
  }
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(h));
  return StrCat(r.rows.size(), " rows #", hex);
}

/// The actual= values of an EXPLAIN ANALYZE rendering, in op order.
std::string Actuals(const std::string& plan) {
  std::string out;
  const std::string tag = "actual=";
  for (size_t pos = plan.find(tag); pos != std::string::npos;
       pos = plan.find(tag, pos)) {
    pos += tag.size();
    size_t end = pos;
    while (end < plan.size() && plan[end] >= '0' && plan[end] <= '9') ++end;
    if (!out.empty()) out += ",";
    out += plan.substr(pos, end - pos);
    pos = end;
  }
  return out;
}

/// Deterministic small ints: mt19937's output is fixed by the standard,
/// unlike the distributions, so the pinned digests hold on every library.
class Ints {
 public:
  explicit Ints(uint32_t seed) : rng_(seed) {}
  int operator()(int n) { return static_cast<int>(rng_() % n); }

 private:
  std::mt19937 rng_;
};

/// One pinned goal: its answer under every config of AllConfigs().
struct GoalPin {
  std::string goal;
  std::string answer;
};

void ExpectAnswers(const std::function<void(Engine*)>& setup,
                   const std::vector<GoalPin>& pins) {
  for (const Config& c : AllConfigs()) {
    std::unique_ptr<Engine> engine = MakeEngine(c);
    setup(engine.get());
    for (const GoalPin& p : pins) {
      Result<Engine::QueryResult> r = engine->Query(p.goal);
      ASSERT_TRUE(r.ok()) << p.goal << ": " << r.status();
      EXPECT_EQ(Pin(engine.get(), *r), p.answer)
          << p.goal << " " << ConfigName(c);
    }
  }
}

TEST(OpGoldenTest, JoinChainsAndArithmetic) {
  Ints v(20260809);
  std::string facts;
  for (int i = 0; i < 120; ++i) {
    facts += StrCat("a(", v(41), ",", v(41), ").\n");
    facts += StrCat("b(", v(41), ",", v(41), ").\n");
    if (i % 3 == 0) facts += StrCat("c(", v(41), ",", v(41), ").\n");
  }
  ExpectAnswers(
      [&](Engine* e) {
        std::string src =
            "module kb;\n"
            "edb a(X,Y); edb b(X,Y); edb c(X,Y);\n"
            // Three-deep keyed chain plus compare binds: keys gathered per
            // lane, bound arithmetic evaluated per lane.
            "chain(X,W) :- a(X,Y) & b(Y,Z) & c(Z,W).\n"
            "scaled(X,S) :- a(X,Y) & S = X * 2 + Y & S > 20.\n"
            // Same-op repeated variable: bind-then-check within one match.
            "diag(X) :- a(X,X).\n"
            "cross(X) :- a(X,Y) & b(Y,X).\n" +
            facts + "end\n";
        ASSERT_TRUE(e->LoadProgram(src).ok());
      },
      {{"chain(X,W)", "259 rows #c3eb947b91565cee"},
       {"scaled(X,S)", "111 rows #ddabafb67c397620"},
       {"diag(X)", "(38)"},
       {"cross(X)", "(2);(20);(28);(35);(36);(38)"},
       {"a(7,Y)", "(2);(27);(31)"}});
}

TEST(OpGoldenTest, NegationShapes) {
  Ints v(4097);
  std::string facts;
  for (int i = 0; i < 80; ++i) {
    facts += StrCat("n(", v(31), ").\n");
    if (i % 2 == 0) facts += StrCat("banned(", v(31), ").\n");
    if (i % 5 == 0) facts += StrCat("pairs(", v(31), ",", v(31), ").\n");
  }
  ExpectAnswers(
      [&](Engine* e) {
        std::string src =
            "module kb;\n"
            "edb n(X); edb banned(X); edb pairs(X,Y); edb nothing(X);\n"
            // Keyed negmatch: the negated column is bound.
            "keep(X) :- n(X) & !banned(X).\n"
            // Scan negmatch: no bound column, pure existence check.
            "lonely(X) :- n(X) & !pairs(_,_).\n"
            // Partially bound negmatch over a binary relation.
            "nopair(X) :- n(X) & !pairs(X,_).\n"
            // Negation against a declared-but-empty relation: everything
            // survives, and no arena of the empty relation is read.
            "all(X) :- n(X) & !nothing(X).\n" +
            facts + "end\n";
        ASSERT_TRUE(e->LoadProgram(src).ok());
      },
      {{"keep(X)", "(0);(1);(9);(14);(15);(16);(17);(20);(29)"},
       {"lonely(X)", ""},
       {"nopair(X)", "15 rows #cf28ed4eb106586c"},
       {"all(X)", "27 rows #ce85edd2d971ea85"}});
}

TEST(OpGoldenTest, RandomRecursiveGraphs) {
  Ints v(7);
  const std::vector<std::vector<std::string>> pins = {
      {"(0);(1);(2);(4);(5);(6);(8);(9);(10);(11);(13);(14)",
       "182 rows #1031324dc6ac3fed",
       "(0);(1);(2);(3);(4);(5);(6);(7);(8);(9);(10);(11);(12);(13);(14)"},
      {"24 rows #9e6441e1820e02d3", "576 rows #ef4f07efcfe442c0",
       "24 rows #54d5b4252d39151e"},
      {"30 rows #000a120bdf8d0e81", "1059 rows #aa5facc5e5f8da12",
       "35 rows #e834c0dc00ba7ca2"}};
  for (int trial = 0; trial < 3; ++trial) {
    int n = 15 + trial * 10;
    std::string facts;
    for (int i = 0; i < n * 3; ++i) {
      facts += StrCat("edge(", v(n), ",", v(n), ").\n");
    }
    const std::vector<std::string>& want = pins[static_cast<size_t>(trial)];
    ExpectAnswers(
        [&](Engine* e) {
          std::string src =
              "module kb;\nedb edge(X,Y);\n"
              "path(X,Y) :- edge(X,Y).\n"
              "path(X,Z) :- path(X,Y) & edge(Y,Z).\n" +
              facts + "end\n";
          ASSERT_TRUE(e->LoadProgram(src).ok());
        },
        {{"path(0,Y)", want[0]},
         {"path(X,Y)", want[1]},
         {"path(X,0)", want[2]}});
  }
}

TEST(OpGoldenTest, GroupedAggregatesAroundOps) {
  Ints v(991);
  std::vector<std::pair<int, int>> facts;
  for (int i = 0; i < 150; ++i) facts.emplace_back(v(9), 1 + v(50));
  ExpectAnswers(
      [&](Engine* e) {
        for (auto& [grp, val] : facts) {
          ASSERT_TRUE(e->AddFact(StrCat("m(", grp, ",", val, ").")).ok());
        }
        // Matches on both sides of the group_by/aggregate barriers: group
        // ids must ride through the lane buffers unchanged.
        ASSERT_TRUE(e->ExecuteStatement(
                         "tot(G, S) := m(G, V) & group_by(G) & S = sum(V).")
                        .ok());
        ASSERT_TRUE(e->ExecuteStatement(
                         "cnt(G, C) := m(G, V) & V > 10 & group_by(G) & "
                         "C = count(V).")
                        .ok());
      },
      {{"tot(G,S)", "9 rows #9c152801cc797241"},
       {"tot(G,S) & S > 100", "9 rows #9c152801cc797241"},
       {"cnt(G,C)",
        "(0,14);(1,13);(2,17);(3,18);(4,8);(5,12);(6,11);(7,5);(8,11)"}});
}

TEST(OpGoldenTest, StructuralPatternsMixedWithFlatOps) {
  ExpectAnswers(
      [](Engine* e) {
        std::string src =
            "module kb;\nedb shape(S); edb w(X);\n"
            "area(A) :- shape(rect(W,H)) & A = W * H.\n"
            "wide(W) :- shape(rect(W,_)) & w(X) & W > X.\n"
            "shape(rect(3,4)). shape(rect(10,2)). shape(circle(5)).\n"
            "w(1). w(5). w(9).\n"
            "end\n";
        ASSERT_TRUE(e->LoadProgram(src).ok());
      },
      {{"area(A)", "(12);(20)"}, {"wide(W)", "(3);(10)"}});
}

TEST(OpGoldenTest, ChunkBoundaryRowCounts) {
  // Relation sizes straddling the 4096-row arena chunk / batch size: the
  // last partial batch, an exactly-full batch, and a batch that spills one
  // lane into a second block must all round-trip.
  const std::vector<std::string> pins = {
      "129 rows #8e53dd6405d8379e|(4093);(4094)",
      "129 rows #8e53dd6405d8379e|(4094);(4095)",
      "129 rows #8e53dd6405d8379e|(4095);(4096)"};
  size_t idx = 0;
  for (int n : {4095, 4096, 4097}) {
    std::string facts;
    for (int i = 0; i < n; ++i) {
      facts += StrCat("big(", i, ",", i % 97, ").\n");
    }
    for (auto strategy : kStrategies) {
      std::unique_ptr<Engine> engine = MakeEngine(Config{strategy});
      std::string src =
          "module kb;\nedb big(X,Y);\n"
          "hit(X) :- big(X,Y) & Y < 3.\n"
          "last(X) :- big(X,Y) & X > " + StrCat(n - 3) + ".\n" +
          facts + "end\n";
      ASSERT_TRUE(engine->LoadProgram(src).ok());
      Result<Engine::QueryResult> all = engine->Query("big(X,Y)");
      ASSERT_TRUE(all.ok()) << all.status();
      EXPECT_EQ(all->rows.size(), static_cast<size_t>(n)) << "n=" << n;
      Result<Engine::QueryResult> hit = engine->Query("hit(X)");
      Result<Engine::QueryResult> last = engine->Query("last(X)");
      ASSERT_TRUE(hit.ok() && last.ok());
      EXPECT_EQ(Pin(engine.get(), *hit) + "|" + Pin(engine.get(), *last),
                pins[idx])
          << "n=" << n << " " << ConfigName(Config{strategy});
    }
    ++idx;
  }
}

TEST(BatchStatsTest, AlwaysEngages) {
  // Every pipelineable op runs through the batch runner: one segment per
  // op under kMaterialized, one per barrier-free run under kPipelined.
  for (auto strategy : kStrategies) {
    std::unique_ptr<Engine> engine = MakeEngine(Config{strategy});
    for (int i = 0; i < 50; ++i) {
      ASSERT_TRUE(engine->AddFact(StrCat("e(", i, ",", i + 1, ").")).ok());
    }
    Result<Engine::QueryResult> r = engine->Query("e(X,Y) & Y > 10");
    ASSERT_TRUE(r.ok()) << r.status();
    EXPECT_GT(engine->exec_stats().batch_segments, 0u);
    EXPECT_GT(engine->exec_stats().batch_rows, 0u);
  }
}

TEST(OpAccountingTest, ExplainAnalyzeActualRows) {
  // Per-op actual= counts are exact: the runner accounts in bulk per
  // segment, with the same totals as one count per emitted record.
  const std::string want = "97,5000,4899";
  for (auto strategy : kStrategies) {
    std::unique_ptr<Engine> engine = MakeEngine(Config{strategy});
    for (int i = 0; i < 5000; ++i) {
      ASSERT_TRUE(
          engine->AddFact(StrCat("big(", i, ",", i % 97, ").")).ok());
      if (i % 50 == 0) {
        ASSERT_TRUE(engine->AddFact(StrCat("sel(", i % 97, ").")).ok());
      }
    }
    ExplainOptions opts;
    opts.analyze = true;
    Result<std::string> plan = engine->ExplainStatement(
        "out(X) := big(X, Y) & sel(Y) & X > 100.", opts);
    ASSERT_TRUE(plan.ok()) << plan.status();
    EXPECT_EQ(Actuals(*plan), want)
        << ConfigName(Config{strategy}) << "\n" << *plan;
  }
}

TEST(OpAccountingTest, RowsScannedPinned) {
  // rows_scanned (full-scan rows + index probe-chain rows) is charged per
  // chunk / per probe; the totals are pinned per index policy.
  const std::vector<std::pair<IndexPolicy, uint64_t>> pins = {
      {IndexPolicy::kNeverIndex, 44474}, {IndexPolicy::kAlwaysIndex, 1274}};
  for (const auto& [policy, want] : pins) {
    for (const Config& c : PinnedPolicyConfigs(policy)) {
      std::unique_ptr<Engine> engine = MakeEngine(c);
      for (int i = 0; i < 600; ++i) {
        ASSERT_TRUE(
            engine->AddFact(StrCat("d(", i % 37, ",", i, ").")).ok());
        if (i < 37) {
          ASSERT_TRUE(engine->AddFact(StrCat("k(", i, ").")).ok());
        }
      }
      const uint64_t before = engine->exec_stats().rows_scanned;
      Result<Engine::QueryResult> r = engine->Query("k(X) & d(X,Y) & Y > 50");
      ASSERT_TRUE(r.ok()) << r.status();
      Result<Engine::QueryResult> neg = engine->Query("k(X) & !d(X,_)");
      ASSERT_TRUE(neg.ok()) << neg.status();
      EXPECT_EQ(engine->exec_stats().rows_scanned - before, want)
          << ConfigName(c);
    }
  }
}

TEST(OpAccountingTest, BudgetCatchesAccumulatedSmallProbes) {
  // No single probe chain here comes near kRowCheckInterval (each key
  // chains 60 rows), but 100 probes accumulate past it, and the deferred
  // check must still enforce the budget — small charges cannot slip under
  // a per-call threshold because there is no per-call threshold.
  EngineOptions opts;
  opts.index_policy = IndexPolicy::kAlwaysIndex;
  Engine engine(opts);
  for (int key = 0; key < 100; ++key) {
    ASSERT_TRUE(engine.AddFact(StrCat("k(", key, ").")).ok());
    for (int j = 0; j < 60; ++j) {
      ASSERT_TRUE(
          engine.AddFact(StrCat("d(", key, ",", j, ").")).ok());
    }
  }
  QueryOptions qopts;
  qopts.limits.max_rows_scanned = 1000;
  Result<Engine::QueryResult> r = engine.Query("k(X) & d(X,Y)", qopts);
  EXPECT_TRUE(r.status().IsResourceExhausted()) << r.status();
  // The same query fits comfortably under a budget sized for it.
  qopts.limits.max_rows_scanned = 50'000;
  Result<Engine::QueryResult> ok = engine.Query("k(X) & d(X,Y)", qopts);
  ASSERT_TRUE(ok.ok()) << ok.status();
  EXPECT_EQ(ok->rows.size(), 6000u);
}

// ---------------------------------------------------------------------------
// Structural patterns and dynamic (HiLog) access: answers, actual= and
// rows_scanned per goal, under both strategies and both pinned policies.
// ---------------------------------------------------------------------------

/// One pinned goal of a structural/HiLog scenario.
struct ShapePin {
  std::string goal;
  /// Head variables for the EXPLAIN ANALYZE statement
  /// "golden_out(<head>) := <goal>.".
  std::string head;
  std::string answer;
  std::string actuals;
  /// rows_scanned charged by the query, under kNeverIndex / kAlwaysIndex.
  uint64_t scanned_never;
  uint64_t scanned_always;
};

/// Runs every pin in a fresh engine per config (an earlier EXPLAIN
/// ANALYZE's head relation would otherwise join later enumerations).
void ExpectShapes(const std::string& program,
                  const std::vector<ShapePin>& pins,
                  const std::vector<std::string>& facts = {}) {
  for (IndexPolicy policy :
       {IndexPolicy::kNeverIndex, IndexPolicy::kAlwaysIndex}) {
    for (const Config& c : PinnedPolicyConfigs(policy)) {
      for (const ShapePin& p : pins) {
        std::unique_ptr<Engine> engine = MakeEngine(c);
        Status loaded = engine->LoadProgram(program);
        ASSERT_TRUE(loaded.ok()) << loaded << " " << ConfigName(c);
        for (const std::string& f : facts) {
          ASSERT_TRUE(engine->AddFact(f).ok()) << f;
        }
        const uint64_t before = engine->exec_stats().rows_scanned;
        Result<Engine::QueryResult> r = engine->Query(p.goal);
        ASSERT_TRUE(r.ok()) << p.goal << ": " << r.status();
        const uint64_t scanned = engine->exec_stats().rows_scanned - before;
        EXPECT_EQ(Pin(engine.get(), *r), p.answer)
            << p.goal << " " << ConfigName(c);
        EXPECT_EQ(scanned, policy == IndexPolicy::kNeverIndex
                               ? p.scanned_never
                               : p.scanned_always)
            << p.goal << " " << ConfigName(c);
        ExplainOptions opts;
        opts.analyze = true;
        Result<std::string> plan = engine->ExplainStatement(
            StrCat("golden_out(", p.head, ") := ", p.goal, "."), opts);
        ASSERT_TRUE(plan.ok()) << p.goal << ": " << plan.status();
        EXPECT_EQ(Actuals(*plan), p.actuals)
            << p.goal << " " << ConfigName(c) << "\n" << *plan;
      }
    }
  }
}

TEST(HiLogGoldenTest, BoundNameMatch) {
  // §5.1 set-valued attributes: S is bound per record by dept/2, so the
  // name is evaluated per lane and looked up directly.
  std::string src = "module kb;\nedb dept(D,S); edb want(E);\n";
  for (int d = 0; d < 6; ++d) {
    src += StrCat("dept(d", d, ", staff", d, ").\n");
    for (int e = 0; e < 20 + d * 7; ++e) {
      src += StrCat("staff", d, "(", (e * 13 + d) % 61, ").\n");
    }
  }
  // A set name with no relation behind it reads as empty.
  src += "dept(d9, ghost).\n";
  for (int e = 0; e < 61; e += 5) src += StrCat("want(", e, ").\n");
  src += "end\n";
  ExpectShapes(src, {
      // Unbound column: each lane scans its own relation.
      {"dept(D, S) & S(E) & E > 50", "D,E",
       "36 rows #63972eaf7473ab88", "7,225,36", 232, 232},
      // Bound column: each lane probes its own relation.
      {"want(E) & dept(D, S) & S(E)", "D,E",
       "48 rows #7d730277aa9aa3dd", "7,91,48", 3023, 146},
  });
}

TEST(HiLogGoldenTest, NameVariableEnumeration) {
  // P ranges over every binary predicate: EDB relations and published
  // NAIL! predicates, never the $-internal storage and delta relations.
  const std::string src = R"(
module kb;
edb edge(X,Y); edb rel(X,Y);
path(X,Y) :- edge(X,Y).
path(X,Z) :- path(X,Y) & edge(Y,Z).
edge(1,2). edge(2,3). edge(3,1). edge(3,4).
rel(1,7). rel(2,2). rel(4,1).
end
)";
  ExpectShapes(src, {
      {"P(X, Y)", "P,X,Y", "19 rows #4e445da7c579260f", "19", 99, 51},
      // Bound first column: a keyed probe per enumerated relation.
      {"P(1, Y)", "P,Y",
       "(edge,2);(path,1);(path,2);(path,3);(path,4);(rel,7)", "6", 99, 38},
      // A name variable checked again by a column of the same op.
      {"P(X, X)", "P,X", "(path,1);(path,2);(path,3);(rel,2)", "4", 99, 51},
      // Compound name pattern: a HiLog family with an unbound parameter.
      {"students(C)(S)", "C,S",
       "(cs101,jones);(cs99,green);(cs99,wilson)", "3", 83, 35},
      {"edge(A, B) & P(A, B)", "P,A,B",
       "8 rows #914ec4ad7d9801ba", "4,8", 160, 44},
  }, {"students(cs99)(wilson).", "students(cs99)(green).",
      "students(cs101)(jones)."});
}

TEST(HiLogGoldenTest, NegatedDynamicAccess) {
  std::string src = "module kb;\nedb cand(V); edb set_of(K,S);\n";
  src += "set_of(x, sx). set_of(y, sy). set_of(z, nowhere).\n";
  for (int v = 0; v < 40; ++v) {
    src += StrCat("cand(", v, ").\n");
    if (v % 3 == 0) src += StrCat("sx(", v, ").\n");
    if (v % 4 == 0) src += StrCat("sy(", v, ").\n");
  }
  src += "end\n";
  ExpectShapes(src, {
      // Keyed existence per lane; the missing set keeps every lane.
      {"cand(V) & set_of(K, S) & !S(V)", "K,V",
       "96 rows #c7b89ceadb1b1ee8", "3,120,96", 1083, 147},
      // Pure existence scan per lane.
      {"cand(V) & V < 3 & set_of(K, S) & !S(_)", "K,V",
       "(0,z,nowhere);(1,z,nowhere);(2,z,nowhere)", "3,1,40,3", 45, 45},
  });
}

TEST(StructuralGoldenTest, NestedCompoundPatterns) {
  const std::string src = R"(
module kb;
edb shape(S); edb link(A,B); edb item(X); edb bad(T);
shape(rect(pt(0,0), pt(3,4))). shape(rect(pt(1,1), pt(1,5))).
shape(rect(pt(2,7), pt(2,7))). shape(circle(pt(0,2), 5)).
shape(circle(pt(1,1), 2)). shape(tri(pt(0,0), pt(1,0), pt(0,1))).
link(f(1), 1). link(f(2), 3). link(g(f(4)), 4). link(5, f(5)).
link(6, f(7)). link(f(8), f(8)).
item(1). item(2). item(3). item(4).
bad(f(1, a)). bad(f(3, b)). bad(g(2, a)).
end
)";
  ExpectShapes(src, {
      {"shape(rect(pt(X1,Y1), pt(X2,Y2)))", "X1,Y1,X2,Y2",
       "(0,0,3,4);(1,1,1,5);(2,7,2,7)", "3", 6, 6},
      // A variable repeated inside one structure.
      {"shape(rect(pt(X,Y), pt(X,Z)))", "X,Y,Z", "(1,1,5);(2,7,7)", "2", 6, 6},
      {"shape(rect(P, P))", "P", "(pt(2,7))", "1", 6, 6},
      // Constants nested in a structure.
      {"shape(circle(pt(0,Y), R))", "Y,R", "(2,5)", "1", 6, 6},
      // A later column checks a variable bound inside an earlier column's
      // structure, and the reverse.
      {"link(f(X), X)", "X", "(1)", "1", 6, 6},
      {"link(X, f(X))", "X", "(5)", "1", 6, 6},
      {"link(f(X), f(X))", "X", "(8)", "1", 6, 6},
      // Bound key column plus a structural column.
      {"item(X) & link(f(X), Y)", "X,Y", "(1,1);(2,3)", "4,2", 28, 6},
      // Negation through a structural pattern.
      {"item(X) & !bad(f(X, _))", "X", "(2);(4)", "4,2", 13, 13},
  });
}

TEST(StructuralGoldenTest, InputStraddlesBatchLanes) {
  // 5000 driver records reach the keyed structural match: more than one
  // 4096-lane batch on the way in and on the way out. bag/2 is scanned
  // across two arena chunks.
  std::string src = "module kb;\nedb k(I,J); edb box(J,P); edb bag(I,P);\n";
  for (int i = 0; i < 5000; ++i) {
    src += StrCat("k(", i, ",", i % 50, ").\n");
    src += StrCat("bag(", i, ", single(", i + i % 2, ")).\n");
  }
  for (int j = 0; j < 50; ++j) {
    src += StrCat("box(", j, ", pair(", j % 7, ", ", j % 5, ")).\n");
    src += StrCat("box(", j, ", pair(", j % 3, ", ", j % 3, ")).\n");
    src += StrCat("box(", j, ", trio(", j, ", ", j, ", ", j, ")).\n");
  }
  src += "end\n";
  ExpectShapes(src, {
      {"k(I, J) & box(J, pair(A, B)) & A < B", "I,A,B",
       "1400 rows #efa66b82a6bec930", "97,14,1400", 70147, 1547},
      {"k(I, J) & box(J, pair(A, A))", "I,A",
       "5700 rows #8c5764fd1ccd67c0", "57,5700", 285147, 5847},
      {"bag(I, single(I))", "I",
       "2500 rows #2d2f8e2c47ff519e", "2500", 5000, 5000},
  });
}

/// A HiLog enumeration over enough rows to cross several row-accounting
/// windows.
std::string EnumerationProgram() {
  std::string src = "module kb;\nedb r0(X,Y); edb r1(X,Y); edb r2(X,Y);\n";
  for (int i = 0; i < 3000; ++i) {
    src += StrCat("r", i % 3, "(", i, ",", i % 11, ").\n");
  }
  return src + "end\n";
}

TEST(HiLogGoldenTest, RowBudgetAbortsEnumeration) {
  for (IndexPolicy policy :
       {IndexPolicy::kNeverIndex, IndexPolicy::kAlwaysIndex}) {
    for (const Config& c : PinnedPolicyConfigs(policy)) {
      std::unique_ptr<Engine> engine = MakeEngine(c);
      ASSERT_TRUE(engine->LoadProgram(EnumerationProgram()).ok());
      QueryOptions qopts;
      qopts.limits.max_rows_scanned = 1000;
      Result<Engine::QueryResult> r =
          engine->Query("r0(X, Y) & P(Z, Y)", qopts);
      EXPECT_TRUE(r.status().IsResourceExhausted())
          << ConfigName(c) << ": " << r.status();
    }
  }
}

TEST(HiLogGoldenTest, CancelAbortsEnumeration) {
  for (const Config& c : PinnedPolicyConfigs(IndexPolicy::kAdaptive)) {
    std::unique_ptr<Engine> engine = MakeEngine(c);
    ASSERT_TRUE(engine->LoadProgram(EnumerationProgram()).ok());
    QueryOptions qopts;
    qopts.cancel = CancelToken::Create();
    qopts.cancel.RequestCancel();
    Result<Engine::QueryResult> r = engine->Query("P(X, Y)", qopts);
    EXPECT_TRUE(r.status().IsCancelled())
        << ConfigName(c) << ": " << r.status();
  }
}

}  // namespace
}  // namespace gluenail
