/// End-to-end NAIL! tests: semi-naive recursion, stratified negation,
/// HiLog parameterized predicates and sets (paper §5), and the three
/// evaluation modes (direct, compiled-to-Glue, naive) held equal.

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "src/api/engine.h"

namespace gluenail {
namespace {

/// Transitive closure over a deterministic pseudo-random graph: 120 nodes,
/// two out-edges each, so the fixpoint runs many wide delta rounds.
std::string DenseGraphModule() {
  std::string facts;
  constexpr int kNodes = 120;
  for (int i = 0; i < kNodes; ++i) {
    facts += StrCat("edge(", i, ",", (i * 7 + 3) % kNodes, ").\n");
    facts += StrCat("edge(", i, ",", (i * 13 + 5) % kNodes, ").\n");
  }
  return "module kb;\nedb edge(X,Y);\n"
         "path(X,Y) :- edge(X,Y).\n"
         "path(X,Z) :- path(X,Y) & edge(Y,Z).\n" +
         facts + "end\n";
}

/// Same-generation (non-linear recursion, two delta rules per round) over
/// a complete ternary tree of depth 4.
std::string SameGenerationTreeModule() {
  std::string facts;
  constexpr int kFan = 3, kDepth = 4;
  int next = 1;
  std::vector<int> frontier = {0};
  for (int d = 0; d < kDepth; ++d) {
    std::vector<int> children;
    for (int p : frontier) {
      for (int c = 0; c < kFan; ++c) {
        facts += StrCat("up(", next, ",", p, ").\n");
        facts += StrCat("down(", p, ",", next, ").\n");
        children.push_back(next++);
      }
    }
    frontier = std::move(children);
  }
  return "module kb;\nedb up(X,Y);\nedb down(X,Y);\nedb flat(X,Y);\n"
         "sg(X,Y) :- flat(X,Y).\n"
         "sg(X,Y) :- up(X,X1) & sg(X1,Y1) & down(Y1,Y).\n" +
         facts + "flat(0,0).\nend\n";
}

class NailTest : public ::testing::TestWithParam<NailMode> {
 protected:
  NailTest() {
    EngineOptions opts;
    opts.nail_mode = GetParam();
    engine_ = std::make_unique<Engine>(opts);
  }

  void Load(std::string_view src) {
    Status s = engine_->LoadProgram(src);
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

  /// An answer too long to pin literally: its row count and the FNV-1a
  /// digest of Ask's rendering.
  std::string Pin(std::string_view goal) {
    std::string text = Ask(goal);
    size_t rows = text.empty() ? 0 : 1;
    uint64_t h = 14695981039346656037ull;
    for (unsigned char ch : text) {
      if (ch == ';') ++rows;
      h ^= ch;
      h *= 1099511628211ull;
    }
    char hex[17];
    std::snprintf(hex, sizeof(hex), "%016llx",
                  static_cast<unsigned long long>(h));
    return StrCat(rows, " rows #", hex);
  }

  std::unique_ptr<Engine> engine_;
};

TEST_P(NailTest, NonRecursiveRule) {
  Load(R"(
module kb;
edb parent(X,Y);
grandparent(X,Z) :- parent(X,Y) & parent(Y,Z).
parent(abe, homer).
parent(homer, bart).
parent(homer, lisa).
end
)");
  EXPECT_EQ(Ask("grandparent(abe, Z)"), "bart;lisa");
}

TEST_P(NailTest, TransitiveClosure) {
  Load(R"(
module kb;
edb edge(X,Y);
path(X,Y) :- edge(X,Y).
path(X,Z) :- path(X,Y) & edge(Y,Z).
edge(1,2).
edge(2,3).
edge(3,1).
edge(4,5).
end
)");
  Result<Engine::QueryResult> r = engine_->Query("path(X,Y)");
  ASSERT_TRUE(r.ok());
  // The 3-cycle {1,2,3} gives 9 pairs, plus (4,5).
  EXPECT_EQ(r->rows.size(), 10u);
  EXPECT_EQ(Ask("path(1,Y)"), "1;2;3");
}

TEST_P(NailTest, LinearChainDepth) {
  // Deep recursion: 200-node chain.
  std::string src = "module kb;\nedb edge(X,Y);\n"
                    "path(X,Y) :- edge(X,Y).\n"
                    "path(X,Z) :- path(X,Y) & edge(Y,Z).\n";
  for (int i = 0; i < 200; ++i) {
    src += StrCat("edge(", i, ",", i + 1, ").\n");
  }
  src += "end\n";
  Load(src);
  Result<Engine::QueryResult> r = engine_->Query("path(0,Y)");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->rows.size(), 200u);
}

TEST_P(NailTest, MutualRecursion) {
  // Two predicates in one SCC.
  Load(R"(
module kb;
edb succ(X,Y);
even(X) :- zero(X).
even(Y) :- odd(X) & succ(X,Y).
odd(Y) :- even(X) & succ(X,Y).
zero(X) :- start(X).
edb start(X);
start(0).
succ(0,1). succ(1,2). succ(2,3). succ(3,4). succ(4,5).
end
)");
  EXPECT_EQ(Ask("even(X)"), "0;2;4");
  EXPECT_EQ(Ask("odd(X)"), "1;3;5");
}

TEST_P(NailTest, StratifiedNegation) {
  Load(R"(
module kb;
edb edge(X,Y), node(X);
reach(X) :- source(X).
reach(Y) :- reach(X) & edge(X,Y).
source(X) :- root(X).
edb root(X);
unreachable(X) :- node(X) & !reach(X).
root(1).
node(1). node(2). node(3). node(4).
edge(1,2). edge(2,3).
end
)");
  EXPECT_EQ(Ask("unreachable(X)"), "4");
}

TEST_P(NailTest, UnstratifiableProgramRejected) {
  Status s = engine_->LoadProgram(R"(
module kb;
edb base(X);
p(X) :- base(X) & !q(X).
q(X) :- base(X) & !p(X).
end
)");
  EXPECT_TRUE(s.IsCompileError()) << s;
}

TEST_P(NailTest, BuiltinComparisonsInRules) {
  Load(R"(
module kb;
edb num(X);
big(X) :- num(X) & X > 10.
double_val(X, Y) :- num(X) & Y = X * 2.
num(5). num(15). num(20).
end
)");
  EXPECT_EQ(Ask("big(X)"), "15;20");
  EXPECT_EQ(Ask("double_val(5, Y)"), "10");
}

TEST_P(NailTest, ParameterizedPredicates) {
  // §5.1: students(ID)(Student) as a NAIL!-defined HiLog family.
  Load(R"(
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
  // Direct instance query through the published relation.
  EXPECT_EQ(Ask("students(cs99)(S)"), "green;wilson");
  EXPECT_EQ(Ask("students(cs101)(S)"), "jones");
  // The whole family through a parameter variable.
  EXPECT_EQ(Ask("students(C)(S) & S = jones"), "cs101,jones");
}

TEST_P(NailTest, ClassInfoExampleFromPaper) {
  // §5.1's class_info program, rules plus EDB verbatim (modulo tas/2
  // argument order). The set-valued attributes hold predicate names.
  Load(R"(
module kb;
edb class_instructor(C,I), class_room(C,R), class_subject(C,S),
    failed_exam(P,S), attends(P,C);
class_info( ID, Instructor, Room, tas(ID), students(ID) ) :-
  class_instructor( ID, Instructor ) &
  class_room( ID, Room ).
tas(ID)(Ta) :-
  class_subject(ID, Subject) &
  failed_exam(Ta, Subject).
students(ID)(Student) :-
  class_subject(ID, _) &
  attends(Student, ID).
class_instructor( cs99, smith ).
class_room( cs99, mjh460a ).
class_subject( cs99, databases ).
failed_exam( jones, databases ).
attends( wilson, cs99 ).
attends( green, cs99 ).
end
)");
  // The paper's implied IDB tuples.
  EXPECT_EQ(Ask("students(cs99)(X)"), "green;wilson");
  EXPECT_EQ(Ask("tas(cs99)(X)"), "jones");
  // "class_info(C,I,R,T,S) & T(TA) & S(Student)" — set-valued attributes
  // dereferenced through HiLog variables (§5.1).
  EXPECT_EQ(Ask("class_info(C,I,R,T,S) & T(TA) & S(Student)"),
            "cs99,smith,mjh460a,tas(cs99),students(cs99),jones,green;"
            "cs99,smith,mjh460a,tas(cs99),students(cs99),jones,wilson");
}

TEST_P(NailTest, MetaProgrammingUniversalTransitiveClosure) {
  // §5.2: tc(E,X,Z) :- tc(E,X,Y) & E(Y,Z) — one universal transitive
  // closure over any edge relation named by E.
  Load(R"(
module kb;
edb rel(E), flight(X,Y), road(X,Y);
tc(E,X,Y) :- rel(E) & E(X,Y).
tc(E,X,Z) :- tc(E,X,Y) & E(Y,Z).
rel(flight).
rel(road).
flight(sfo, jfk).
flight(jfk, lhr).
road(1,2).
road(2,3).
end
)");
  EXPECT_EQ(Ask("tc(flight, sfo, Z)"), "jfk;lhr");
  EXPECT_EQ(Ask("tc(road, 1, Z)"), "2;3");
}

TEST_P(NailTest, NailPredicateAsGlueSubgoal) {
  // §2: EDB, NAIL!, and procedures are interchangeable as subgoals.
  Load(R"(
module kb;
edb edge(X,Y);
path(X,Y) :- edge(X,Y).
path(X,Z) :- path(X,Y) & edge(Y,Z).
edge(1,2). edge(2,3).
end
)");
  ASSERT_TRUE(
      engine_->ExecuteStatement("far(Y) := path(1, Y) & Y > 2.").ok());
  EXPECT_EQ(Ask("far(Y)"), "3");
}

TEST_P(NailTest, NailRecomputedOnEdbChange) {
  // §2: "use the current value ... derived from the current state of the
  // EDB".
  Load(R"(
module kb;
edb edge(X,Y);
path(X,Y) :- edge(X,Y).
path(X,Z) :- path(X,Y) & edge(Y,Z).
edge(1,2).
end
)");
  EXPECT_EQ(Ask("path(1,Y)"), "2");
  ASSERT_TRUE(engine_->AddFact("edge(2,5).").ok());
  EXPECT_EQ(Ask("path(1,Y)"), "2;5");
  ASSERT_TRUE(engine_->ExecuteStatement("edge(X,Y) -= edge(X,Y).").ok());
  EXPECT_EQ(Ask("path(1,Y)"), "");
}

TEST_P(NailTest, MemoizationAvoidsRecomputation) {
  Load(R"(
module kb;
edb edge(X,Y);
path(X,Y) :- edge(X,Y).
path(X,Z) :- path(X,Y) & edge(Y,Z).
edge(1,2). edge(2,3).
end
)");
  ASSERT_TRUE(engine_->Query("path(1,Y)").ok());
  uint64_t refreshes = engine_->nail_engine()->refresh_count();
  ASSERT_TRUE(engine_->Query("path(2,Y)").ok());
  ASSERT_TRUE(engine_->Query("path(X,3)").ok());
  EXPECT_EQ(engine_->nail_engine()->refresh_count(), refreshes);
  ASSERT_TRUE(engine_->AddFact("edge(3,4).").ok());
  ASSERT_TRUE(engine_->Query("path(1,Y)").ok());
  EXPECT_EQ(engine_->nail_engine()->refresh_count(), refreshes + 1);
}

TEST_P(NailTest, SameGenerationProgram) {
  // The classic non-linear Datalog benchmark program.
  Load(R"(
module kb;
edb up(X,Y), flat(X,Y), down(X,Y);
sg(X,Y) :- flat(X,Y).
sg(X,Y) :- up(X,U) & sg(U,V) & down(V,Y).
up(a, m1). up(b, m2).
flat(m1, m2).
down(m1, a). down(m2, b).
end
)");
  EXPECT_EQ(Ask("sg(a,Y)"), "b");
}

TEST_P(NailTest, MultipleStrataPipeline) {
  // Three strata: recursion, then negation over it, then projection.
  Load(R"(
module kb;
edb edge(X,Y), node(X);
path(X,Y) :- edge(X,Y).
path(X,Z) :- path(X,Y) & edge(Y,Z).
isolated(X) :- node(X) & !path(X, _) & !connected_in(X).
connected_in(Y) :- path(_, Y).
report(X) :- isolated(X).
node(1). node(2). node(3).
edge(1,2).
end
)");
  EXPECT_EQ(Ask("report(X)"), "3");
}

// Golden answers of the semi-naive fixpoint, pinned in every mode.

TEST_P(NailTest, GoldenDenseGraphClosure) {
  Load(DenseGraphModule());
  EXPECT_EQ(Pin("path(X,Y)"), "14400 rows #bb9f9830cb592adc");
}

TEST_P(NailTest, GoldenSameGeneration) {
  Load(SameGenerationTreeModule());
  EXPECT_EQ(Pin("sg(X,Y)"), "7381 rows #48de4af033c70b6f");
}

TEST_P(NailTest, GoldenNegationOverClosure) {
  // The negation stratum reads the finished closure of the one below.
  Load(R"(
module kb;
edb edge(X,Y);
edb node(X);
path(X,Y) :- edge(X,Y).
path(X,Z) :- path(X,Y) & edge(Y,Z).
unreached(X) :- node(X) & !path(0,X).
node(0). node(1). node(2). node(3). node(4). node(5). node(6).
node(7). node(8). node(9).
edge(0,1). edge(1,2). edge(2,3). edge(3,1). edge(5,6). edge(6,7).
end
)");
  EXPECT_EQ(Ask("unreached(X)"), "0;4;5;6;7;8;9");
}

TEST_P(NailTest, RangeRestrictionViolationRejected) {
  Status s = engine_->LoadProgram(R"(
module kb;
edb base(X);
bad(X, Y) :- base(X).
end
)");
  EXPECT_TRUE(s.IsCompileError()) << s;
}

TEST_P(NailTest, RuleDereferenceSeesEdbOnly) {
  // While a refresh runs, a predicate variable in a NAIL! rule ranges over
  // the EDB only, bound or enumerated: no memo is readable by name until
  // the refresh is done, whatever order the SCCs run in.
  Load(R"(
module kb;
edb edge(X,Y), rel(E);
path(X,Y) :- edge(X,Y).
path(X,Z) :- path(X,Y) & edge(Y,Z).
via(X,Y) :- rel(E) & E(X,Y).
any(E,X,Y) :- E(X,Y).
rel(path).
edge(1,2).
edge(2,3).
end
)");
  EXPECT_EQ(Ask("via(X,Y)"), "");
  EXPECT_EQ(Ask("any(E,X,Y)"), "edge,1,2;edge,2,3");
  EXPECT_EQ(Ask("path(1,Y)"), "2;3");
}

INSTANTIATE_TEST_SUITE_P(
    Modes, NailTest,
    ::testing::Values(NailMode::kDirect, NailMode::kCompiledGlue,
                      NailMode::kNaive),
    [](const ::testing::TestParamInfo<NailMode>& info) {
      switch (info.param) {
        case NailMode::kDirect:
          return "Direct";
        case NailMode::kCompiledGlue:
          return "CompiledGlue";
        case NailMode::kNaive:
          return "Naive";
      }
      return "?";
    });

}  // namespace
}  // namespace gluenail
