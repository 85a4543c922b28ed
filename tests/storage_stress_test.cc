/// Property/stress tests for the storage layer: a Relation must behave
/// exactly like a reference std::set under random operation sequences,
/// with indexes, compaction, uniondiff, and persistence thrown in.

#include <gtest/gtest.h>

#include <random>
#include <set>

#include "src/storage/persistence.h"
#include "src/storage/relation.h"

namespace gluenail {
namespace {

class StorageStressTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(StorageStressTest, RelationMatchesReferenceSet) {
  TermPool pool;
  Relation rel("r", 2);
  rel.set_index_policy(IndexPolicy::kAdaptive);
  std::set<std::pair<int, int>> ref;
  std::mt19937 rng(GetParam());
  std::uniform_int_distribution<int> v(0, 30);
  std::uniform_int_distribution<int> op(0, 99);

  auto tup = [&pool](int a, int b) {
    return Tuple{pool.MakeInt(a), pool.MakeInt(b)};
  };

  for (int step = 0; step < 4000; ++step) {
    int a = v(rng), b = v(rng);
    int o = op(rng);
    if (o < 55) {
      bool added_rel = rel.Insert(tup(a, b));
      bool added_ref = ref.emplace(a, b).second;
      ASSERT_EQ(added_rel, added_ref) << "step " << step;
    } else if (o < 85) {
      bool erased_rel = rel.Erase(tup(a, b));
      bool erased_ref = ref.erase({a, b}) > 0;
      ASSERT_EQ(erased_rel, erased_ref) << "step " << step;
    } else if (o < 95) {
      // Keyed selection against the reference.
      std::vector<uint32_t> rows;
      rel.Select(0b01, Tuple{pool.MakeInt(a)}, &rows);
      size_t expected = 0;
      for (const auto& [x, y] : ref) {
        if (x == a) ++expected;
      }
      ASSERT_EQ(rows.size(), expected) << "step " << step;
    } else if (o < 98) {
      ASSERT_EQ(rel.Contains(tup(a, b)), ref.count({a, b}) > 0);
    } else {
      rel.Compact();
    }
    ASSERT_EQ(rel.size(), ref.size()) << "step " << step;
  }

  // Full-content comparison at the end.
  std::set<std::pair<int, int>> final_rel;
  for (RowView t : rel) {
    final_rel.emplace(static_cast<int>(pool.IntValue(t[0])),
                      static_cast<int>(pool.IntValue(t[1])));
  }
  EXPECT_EQ(final_rel, ref);
}

TEST_P(StorageStressTest, UnionDiffMatchesSetDifference) {
  TermPool pool;
  std::mt19937 rng(GetParam() * 31 + 5);
  std::uniform_int_distribution<int> v(0, 40);
  Relation acc("acc", 1), src("src", 1), delta("delta", 1);
  std::set<int> ref_acc, ref_src;
  for (int i = 0; i < 60; ++i) {
    int x = v(rng);
    acc.Insert(Tuple{pool.MakeInt(x)});
    ref_acc.insert(x);
  }
  for (int i = 0; i < 60; ++i) {
    int x = v(rng);
    src.Insert(Tuple{pool.MakeInt(x)});
    ref_src.insert(x);
  }
  size_t added = acc.UnionDiff(src, &delta);
  std::set<int> ref_delta;
  for (int x : ref_src) {
    if (ref_acc.count(x) == 0) ref_delta.insert(x);
  }
  EXPECT_EQ(added, ref_delta.size());
  EXPECT_EQ(delta.size(), ref_delta.size());
  for (int x : ref_delta) {
    EXPECT_TRUE(delta.Contains(Tuple{pool.MakeInt(x)}));
    EXPECT_TRUE(acc.Contains(Tuple{pool.MakeInt(x)}));
  }
}

TEST_P(StorageStressTest, PersistenceRoundTripRandomTerms) {
  TermPool pool;
  Database db(&pool);
  std::mt19937 rng(GetParam() * 7 + 3);
  std::uniform_int_distribution<int> kind(0, 4), small(0, 9);
  auto random_term = [&](auto&& self, int depth) -> TermId {
    switch (depth > 2 ? kind(rng) % 3 : kind(rng)) {
      case 0:
        return pool.MakeInt(small(rng) - 5);
      case 1:
        return pool.MakeFloat(small(rng) * 0.25);
      case 2:
        return pool.MakeSymbol(StrCat("sym", small(rng)));
      case 3: {
        std::vector<TermId> args{self(self, depth + 1)};
        return pool.MakeCompound(StrCat("f", small(rng)), args);
      }
      default: {
        std::vector<TermId> args{self(self, depth + 1),
                                 self(self, depth + 1)};
        return pool.MakeCompound(StrCat("g", small(rng)), args);
      }
    }
  };
  Relation* rel = db.GetOrCreate(pool.MakeSymbol("facts"), 2);
  for (int i = 0; i < 200; ++i) {
    rel->Insert(Tuple{random_term(random_term, 0),
                      random_term(random_term, 0)});
  }
  Result<std::string> out = SerializeDatabase(db);
  ASSERT_TRUE(out.ok()) << out.status();
  TermPool pool2;
  Database db2(&pool2);
  ASSERT_TRUE(LoadDatabase(&db2, *out, {}).ok()) << out->substr(0, 400);
  Relation* rel2 = db2.Find(pool2.MakeSymbol("facts"), 2);
  ASSERT_NE(rel2, nullptr);
  EXPECT_EQ(rel2->size(), rel->size());
  // Canonical forms must agree term by term.
  std::vector<Tuple> a = rel->SortedTuples(pool);
  std::vector<Tuple> b = rel2->SortedTuples(pool2);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(TupleToString(pool, a[i]), TupleToString(pool2, b[i]));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StorageStressTest,
                         ::testing::Values(1u, 2u, 3u, 42u, 1991u));

TEST(StorageEdgeTest, IndexOnHighColumns) {
  TermPool pool;
  Relation rel("wide", 8);
  Tuple t;
  for (int c = 0; c < 8; ++c) t.push_back(pool.MakeInt(c));
  rel.Insert(t);
  rel.EnsureIndex(0b10000001);  // first and last columns
  std::vector<uint32_t> rows;
  rel.Select(0b10000001, Tuple{pool.MakeInt(0), pool.MakeInt(7)}, &rows);
  EXPECT_EQ(rows.size(), 1u);
}

TEST(StorageEdgeTest, DedupAcrossManyRows) {
  // >64k distinct rows force several dedup-table growths and span many
  // arena chunks; every duplicate must still be rejected afterwards.
  TermPool pool;
  Relation rel("big", 2);
  constexpr int kN = 70'000;
  for (int i = 0; i < kN; ++i) {
    ASSERT_TRUE(rel.Insert(Tuple{pool.MakeInt(i / 256), pool.MakeInt(i)}));
  }
  EXPECT_EQ(rel.size(), static_cast<size_t>(kN));
  for (int i = 0; i < kN; i += 997) {
    EXPECT_FALSE(rel.Insert(Tuple{pool.MakeInt(i / 256), pool.MakeInt(i)}));
    EXPECT_TRUE(rel.Contains(Tuple{pool.MakeInt(i / 256), pool.MakeInt(i)}));
  }
  EXPECT_EQ(rel.size(), static_cast<size_t>(kN));
  EXPECT_GT(rel.counters().dedup_probes, static_cast<uint64_t>(kN));
}

TEST(StorageEdgeTest, InsertEraseSelectCompactInterleave) {
  // Regression for index/dedup consistency across Erase -> Remove ->
  // Compact under the arena layout: indexes must survive row-id
  // renumbering and tombstoned dedup slots must be recycled.
  TermPool pool;
  Relation rel("r", 2);
  rel.EnsureIndex(0b01);
  auto tup = [&pool](int a, int b) {
    return Tuple{pool.MakeInt(a), pool.MakeInt(b)};
  };
  auto check = [&](int key, size_t expected) {
    std::vector<uint32_t> rows;
    rel.Select(0b01, Tuple{pool.MakeInt(key)}, &rows);
    ASSERT_EQ(rows.size(), expected) << "key " << key;
    for (uint32_t r : rows) {
      EXPECT_EQ(pool.IntValue(rel.row(r)[0]), key);
    }
  };
  for (int round = 0; round < 6; ++round) {
    for (int i = 0; i < 500; ++i) rel.Insert(tup(i % 10, round * 1000 + i));
    check(3, 50u);
    check(4, 50u);
    // i % 10 preserves parity, so erasing every even i empties exactly the
    // even keys and leaves the odd keys whole.
    for (int i = 0; i < 500; i += 2) rel.Erase(tup(i % 10, round * 1000 + i));
    check(4, 0u);
    check(3, 50u);
    rel.Compact();  // renumbers row ids; index answers must not change
    check(4, 0u);
    check(3, 50u);
    for (int i = 1; i < 500; i += 2) rel.Erase(tup(i % 10, round * 1000 + i));
    check(3, 0u);
    EXPECT_TRUE(rel.empty());
    for (int i = 0; i < 500; ++i) rel.Insert(tup(i % 10, round * 1000 + i));
    check(3, 50u);
    check(4, 50u);
    // Alternate between carrying the index through Clear-rebuild and
    // compacting a fully-live relation.
    if (round % 2 == 1) {
      rel.Clear();
      rel.EnsureIndex(0b01);
    } else {
      rel.Compact();
      for (int i = 0; i < 500; ++i) rel.Erase(tup(i % 10, round * 1000 + i));
      EXPECT_TRUE(rel.empty());
    }
  }
}

TEST(StorageEdgeTest, ManyIndexesStayConsistent) {
  TermPool pool;
  Relation rel("r", 3);
  for (ColumnMask m : {0b001u, 0b010u, 0b100u, 0b011u, 0b111u}) {
    rel.EnsureIndex(m);
  }
  for (int i = 0; i < 300; ++i) {
    rel.Insert(Tuple{pool.MakeInt(i % 3), pool.MakeInt(i % 5),
                     pool.MakeInt(i)});
  }
  for (int i = 0; i < 300; i += 2) {
    rel.Erase(Tuple{pool.MakeInt(i % 3), pool.MakeInt(i % 5),
                    pool.MakeInt(i)});
  }
  std::vector<uint32_t> rows;
  rel.Select(0b011, Tuple{pool.MakeInt(1), pool.MakeInt(1)}, &rows);
  for (uint32_t r : rows) {
    EXPECT_EQ(pool.IntValue(rel.row(r)[0]), 1);
    EXPECT_EQ(pool.IntValue(rel.row(r)[1]), 1);
    EXPECT_EQ(pool.IntValue(rel.row(r)[2]) % 2, 1);
  }
}

}  // namespace
}  // namespace gluenail
