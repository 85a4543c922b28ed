#include "src/storage/database.h"

#include <gtest/gtest.h>

namespace gluenail {
namespace {

class DatabaseTest : public ::testing::Test {
 protected:
  DatabaseTest() : db_(&pool_) {}

  TermPool pool_;
  Database db_;
};

TEST_F(DatabaseTest, GetOrCreateIsIdempotent) {
  TermId edge = pool_.MakeSymbol("edge");
  Relation* a = db_.GetOrCreate(edge, 2);
  Relation* b = db_.GetOrCreate(edge, 2);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a->arity(), 2u);
  EXPECT_EQ(db_.num_relations(), 1u);
}

TEST_F(DatabaseTest, SameNameDifferentArityAreDistinct) {
  TermId p = pool_.MakeSymbol("p");
  Relation* p1 = db_.GetOrCreate(p, 1);
  Relation* p2 = db_.GetOrCreate(p, 2);
  EXPECT_NE(p1, p2);
  EXPECT_EQ(db_.num_relations(), 2u);
}

TEST_F(DatabaseTest, FindReturnsNullForMissing) {
  EXPECT_EQ(db_.Find(pool_.MakeSymbol("nothing"), 3), nullptr);
}

TEST_F(DatabaseTest, ParameterizedPredicateNames) {
  // students(cs99) and students(cs101) are different relations of the same
  // HiLog family (paper §5.1).
  TermId cs99 = pool_.MakeSymbol("cs99");
  TermId cs101 = pool_.MakeSymbol("cs101");
  std::vector<TermId> a1{cs99}, a2{cs101};
  TermId n1 = pool_.MakeCompound("students", a1);
  TermId n2 = pool_.MakeCompound("students", a2);
  Relation* r1 = db_.GetOrCreate(n1, 1);
  Relation* r2 = db_.GetOrCreate(n2, 1);
  EXPECT_NE(r1, r2);
  EXPECT_EQ(r1->name(), "students(cs99)");
  // Name term equality finds the same relation again.
  std::vector<TermId> a3{pool_.MakeSymbol("cs99")};
  EXPECT_EQ(db_.Find(pool_.MakeCompound("students", a3), 1), r1);
}

TEST_F(DatabaseTest, DropRemovesRelation) {
  TermId p = pool_.MakeSymbol("p");
  db_.GetOrCreate(p, 1);
  EXPECT_TRUE(db_.Drop(p, 1).ok());
  EXPECT_EQ(db_.Find(p, 1), nullptr);
  EXPECT_TRUE(db_.Drop(p, 1).IsNotFound());
}

TEST_F(DatabaseTest, RelationsWithArity) {
  db_.GetOrCreate(pool_.MakeSymbol("a"), 1);
  db_.GetOrCreate(pool_.MakeSymbol("b"), 1);
  db_.GetOrCreate(pool_.MakeSymbol("c"), 2);
  EXPECT_EQ(db_.RelationsWithArity(1).size(), 2u);
  EXPECT_EQ(db_.RelationsWithArity(2).size(), 1u);
  EXPECT_EQ(db_.RelationsWithArity(5).size(), 0u);
}

TEST_F(DatabaseTest, DefaultPolicyAppliedToNewRelations) {
  db_.set_default_index_policy(IndexPolicy::kNeverIndex);
  Relation* r = db_.GetOrCreate(pool_.MakeSymbol("q"), 1);
  EXPECT_EQ(r->index_policy(), IndexPolicy::kNeverIndex);
}

TEST_F(DatabaseTest, MergeFromMovesNewRelationsAndUnionsTheRest) {
  db_.set_default_index_policy(IndexPolicy::kNeverIndex);
  TermId p = pool_.MakeSymbol("p");
  TermId q = pool_.MakeSymbol("q");
  Tuple one{pool_.MakeInt(1)};
  Tuple two{pool_.MakeInt(2)};
  Relation* live_p = db_.GetOrCreate(p, 1);
  live_p->Insert(one);
  const uint64_t p_version = live_p->version();

  Database staged(&pool_);
  staged.GetOrCreate(p, 1)->Insert(two);
  Relation* staged_q = staged.GetOrCreate(q, 1);
  staged_q->Insert(one);
  staged_q->Insert(two);
  staged_q->Erase(one);  // a dead row the move must not carry over
  db_.MergeFrom(&staged);

  EXPECT_EQ(staged.num_relations(), 0u);
  // p existed: unioned into the same object, its version only grew.
  EXPECT_EQ(db_.Find(p, 1), live_p);
  EXPECT_EQ(live_p->size(), 2u);
  EXPECT_GT(live_p->version(), p_version);
  // q did not: the staged object moved in, compacted, under db_'s policy.
  Relation* q_rel = db_.Find(q, 1);
  EXPECT_EQ(q_rel, staged_q);
  EXPECT_EQ(q_rel->size(), 1u);
  EXPECT_EQ(q_rel->num_rows(), 1u);
  EXPECT_TRUE(q_rel->Contains(two));
  EXPECT_EQ(q_rel->index_policy(), IndexPolicy::kNeverIndex);
}

TEST_F(DatabaseTest, ForEachVisitsAll) {
  db_.GetOrCreate(pool_.MakeSymbol("a"), 1);
  db_.GetOrCreate(pool_.MakeSymbol("b"), 2);
  int count = 0;
  db_.ForEach([&](TermId, uint32_t, Relation*) { ++count; });
  EXPECT_EQ(count, 2);
}

}  // namespace
}  // namespace gluenail
