#include "src/term/term_pool.h"

#include <gtest/gtest.h>

#include <vector>

namespace gluenail {
namespace {

class TermPoolTest : public ::testing::Test {
 protected:
  TermPool pool_;
};

TEST_F(TermPoolTest, IntsAreInterned) {
  TermId a = pool_.MakeInt(42);
  TermId b = pool_.MakeInt(42);
  TermId c = pool_.MakeInt(43);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_TRUE(pool_.IsInt(a));
  EXPECT_EQ(pool_.IntValue(a), 42);
}

TEST_F(TermPoolTest, FloatsAreInterned) {
  TermId a = pool_.MakeFloat(2.5);
  TermId b = pool_.MakeFloat(2.5);
  EXPECT_EQ(a, b);
  EXPECT_TRUE(pool_.IsFloat(a));
  EXPECT_DOUBLE_EQ(pool_.FloatValue(a), 2.5);
}

TEST_F(TermPoolTest, IntAndFloatWithSameValueAreDistinctTerms) {
  EXPECT_NE(pool_.MakeInt(1), pool_.MakeFloat(1.0));
}

TEST_F(TermPoolTest, SymbolsAreInterned) {
  TermId a = pool_.MakeSymbol("wilson");
  TermId b = pool_.MakeSymbol("wilson");
  TermId c = pool_.MakeSymbol("green");
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(pool_.SymbolName(a), "wilson");
}

TEST_F(TermPoolTest, AtomsAndStringsAreTheSameThing) {
  // Paper §2: "In Glue there is no difference between atoms and strings."
  EXPECT_EQ(pool_.MakeSymbol("hello world"), pool_.MakeSymbol("hello world"));
}

TEST_F(TermPoolTest, CompoundsAreInterned) {
  TermId x = pool_.MakeInt(1);
  TermId y = pool_.MakeInt(2);
  std::vector<TermId> args{x, y};
  TermId a = pool_.MakeCompound("p", args);
  TermId b = pool_.MakeCompound("p", args);
  EXPECT_EQ(a, b);
  EXPECT_TRUE(pool_.IsCompound(a));
  EXPECT_EQ(pool_.Functor(a), pool_.MakeSymbol("p"));
  ASSERT_EQ(pool_.Arity(a), 2u);
  EXPECT_EQ(pool_.Args(a)[0], x);
  EXPECT_EQ(pool_.Args(a)[1], y);
}

TEST_F(TermPoolTest, CompoundsDifferingInArgsAreDistinct) {
  TermId x = pool_.MakeInt(1);
  TermId y = pool_.MakeInt(2);
  std::vector<TermId> a1{x, y}, a2{y, x};
  EXPECT_NE(pool_.MakeCompound("p", a1), pool_.MakeCompound("p", a2));
}

TEST_F(TermPoolTest, HiLogCompoundFunctor) {
  // students(cs99)(wilson) — the functor is itself a compound term.
  TermId cs99 = pool_.MakeSymbol("cs99");
  std::vector<TermId> inner{cs99};
  TermId students_cs99 = pool_.MakeCompound("students", inner);
  TermId wilson = pool_.MakeSymbol("wilson");
  std::vector<TermId> outer{wilson};
  TermId fact = pool_.MakeCompound(students_cs99, outer);
  EXPECT_EQ(pool_.Functor(fact), students_cs99);
  EXPECT_TRUE(pool_.IsCompound(pool_.Functor(fact)));
  EXPECT_EQ(pool_.ToString(fact), "students(cs99)(wilson)");
}

TEST_F(TermPoolTest, DeepNestingSurvives) {
  TermId t = pool_.MakeInt(0);
  for (int i = 0; i < 1000; ++i) {
    std::vector<TermId> args{t};
    t = pool_.MakeCompound("f", args);
  }
  // Unwind and verify.
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(pool_.IsCompound(t));
    ASSERT_EQ(pool_.Arity(t), 1u);
    t = pool_.Args(t)[0];
  }
  EXPECT_EQ(pool_.IntValue(t), 0);
}

TEST_F(TermPoolTest, HeightCountsArgumentListsAndHiLogLinks) {
  TermId one = pool_.MakeInt(1);
  TermId p = pool_.MakeSymbol("p");
  EXPECT_EQ(pool_.Height(one), 0u);
  EXPECT_EQ(pool_.Height(p), 0u);
  TermId f1 = pool_.MakeCompound("f", {&one, 1});    // f(1)
  TermId ff1 = pool_.MakeCompound("f", {&f1, 1});    // f(f(1))
  EXPECT_EQ(pool_.Height(f1), 1u);
  EXPECT_EQ(pool_.Height(ff1), 2u);
  TermId g = pool_.MakeCompound("g", std::vector<TermId>{one, ff1, p});
  EXPECT_EQ(pool_.Height(g), 3u);  // the highest argument decides
  // HiLog: each application link is a level, whatever the arguments.
  TermId p1 = pool_.MakeCompound(p, {&one, 1});      // p(1)
  TermId p11 = pool_.MakeCompound(p1, {&one, 1});    // p(1)(1)
  TermId p1ff1 = pool_.MakeCompound(p1, {&ff1, 1});  // p(1)(f(f(1)))
  EXPECT_EQ(pool_.Height(p11), 2u);
  EXPECT_EQ(pool_.Height(p1ff1), 3u);
  // Re-interning finds the same record and height.
  EXPECT_EQ(pool_.Height(pool_.MakeCompound(p1, {&ff1, 1})), 3u);
}

TEST_F(TermPoolTest, ManyCompoundsKeepStableArgStorage) {
  // Forces many arena chunks; earlier terms must stay readable.
  std::vector<TermId> made;
  for (int i = 0; i < 20000; ++i) {
    std::vector<TermId> args{pool_.MakeInt(i), pool_.MakeInt(i + 1)};
    made.push_back(pool_.MakeCompound("edge", args));
  }
  for (int i = 0; i < 20000; ++i) {
    ASSERT_EQ(pool_.IntValue(pool_.Args(made[i])[0]), i);
    ASSERT_EQ(pool_.IntValue(pool_.Args(made[i])[1]), i + 1);
  }
}

TEST_F(TermPoolTest, CompareNumbersByValueAcrossKinds) {
  TermId i1 = pool_.MakeInt(1);
  TermId f2 = pool_.MakeFloat(2.0);
  TermId i3 = pool_.MakeInt(3);
  EXPECT_LT(pool_.Compare(i1, f2), 0);
  EXPECT_LT(pool_.Compare(f2, i3), 0);
  EXPECT_GT(pool_.Compare(i3, i1), 0);
  EXPECT_EQ(pool_.Compare(i1, i1), 0);
  // Tie on value: int sorts before float.
  EXPECT_LT(pool_.Compare(pool_.MakeInt(2), f2), 0);
}

TEST_F(TermPoolTest, CompareKindsNumbersSymbolsCompounds) {
  TermId n = pool_.MakeInt(999);
  TermId s = pool_.MakeSymbol("aardvark");
  std::vector<TermId> args{n};
  TermId c = pool_.MakeCompound("f", args);
  EXPECT_LT(pool_.Compare(n, s), 0);
  EXPECT_LT(pool_.Compare(s, c), 0);
  EXPECT_GT(pool_.Compare(c, n), 0);
}

TEST_F(TermPoolTest, CompareSymbolsLexicographically) {
  EXPECT_LT(pool_.Compare(pool_.MakeSymbol("abc"), pool_.MakeSymbol("abd")),
            0);
  EXPECT_LT(pool_.Compare(pool_.MakeSymbol("ab"), pool_.MakeSymbol("abc")),
            0);
}

TEST_F(TermPoolTest, CompareCompoundsByArityThenFunctorThenArgs) {
  TermId one = pool_.MakeInt(1);
  TermId two = pool_.MakeInt(2);
  std::vector<TermId> a1{one}, a2{one, two}, a3{two};
  TermId f1 = pool_.MakeCompound("f", a1);
  TermId f12 = pool_.MakeCompound("f", a2);
  TermId g1 = pool_.MakeCompound("g", a1);
  TermId f2 = pool_.MakeCompound("f", a3);
  EXPECT_LT(pool_.Compare(f1, f12), 0);   // smaller arity first
  EXPECT_LT(pool_.Compare(f1, g1), 0);    // functor order
  EXPECT_LT(pool_.Compare(f1, f2), 0);    // arg order
}

TEST_F(TermPoolTest, PrintingAtoms) {
  EXPECT_EQ(pool_.ToString(pool_.MakeSymbol("abc")), "abc");
  EXPECT_EQ(pool_.ToString(pool_.MakeSymbol("aB_9")), "aB_9");
  // Not a plain lowercase identifier -> quoted.
  EXPECT_EQ(pool_.ToString(pool_.MakeSymbol("Hello")), "'Hello'");
  EXPECT_EQ(pool_.ToString(pool_.MakeSymbol("two words")), "'two words'");
  EXPECT_EQ(pool_.ToString(pool_.MakeSymbol("")), "''");
  EXPECT_EQ(pool_.ToString(pool_.MakeSymbol("it's")), "'it\\'s'");
}

TEST_F(TermPoolTest, PrintingNumbers) {
  EXPECT_EQ(pool_.ToString(pool_.MakeInt(-17)), "-17");
  EXPECT_EQ(pool_.ToString(pool_.MakeFloat(2.5)), "2.5");
  // Floats stay lexically distinct from ints.
  EXPECT_EQ(pool_.ToString(pool_.MakeFloat(1.0)), "1.0");
}

TEST_F(TermPoolTest, PrintingCompound) {
  std::vector<TermId> args{pool_.MakeInt(1), pool_.MakeSymbol("a")};
  EXPECT_EQ(pool_.ToString(pool_.MakeCompound("p", args)), "p(1,a)");
}

TEST_F(TermPoolTest, SizeCountsDistinctTerms) {
  size_t before = pool_.size();
  pool_.MakeInt(5);
  pool_.MakeInt(5);
  pool_.MakeSymbol("x");
  EXPECT_EQ(pool_.size(), before + 2);
}

}  // namespace
}  // namespace gluenail
