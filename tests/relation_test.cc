#include "src/storage/relation.h"

#include <gtest/gtest.h>

#include <utility>

#include "src/storage/index.h"
#include "src/storage/row_table.h"
#include "src/term/term_pool.h"

namespace gluenail {
namespace {

class RelationTest : public ::testing::Test {
 protected:
  Tuple T(std::initializer_list<int64_t> xs) {
    Tuple t;
    for (int64_t x : xs) t.push_back(pool_.MakeInt(x));
    return t;
  }

  TermPool pool_;
};

TEST_F(RelationTest, InsertAndContains) {
  Relation r("edge", 2);
  EXPECT_TRUE(r.Insert(T({1, 2})));
  EXPECT_TRUE(r.Contains(T({1, 2})));
  EXPECT_FALSE(r.Contains(T({2, 1})));
  EXPECT_EQ(r.size(), 1u);
}

TEST_F(RelationTest, DuplicatesAreRejected) {
  // Paper §2: "Predicates do not have duplicates."
  Relation r("edge", 2);
  EXPECT_TRUE(r.Insert(T({1, 2})));
  EXPECT_FALSE(r.Insert(T({1, 2})));
  EXPECT_EQ(r.size(), 1u);
}

TEST_F(RelationTest, EraseRemoves) {
  Relation r("edge", 2);
  r.Insert(T({1, 2}));
  r.Insert(T({3, 4}));
  EXPECT_TRUE(r.Erase(T({1, 2})));
  EXPECT_FALSE(r.Erase(T({1, 2})));
  EXPECT_FALSE(r.Contains(T({1, 2})));
  EXPECT_EQ(r.size(), 1u);
}

TEST_F(RelationTest, VersionBumpsOnlyOnChange) {
  Relation r("p", 1);
  uint64_t v0 = r.version();
  r.Insert(T({1}));
  uint64_t v1 = r.version();
  EXPECT_GT(v1, v0);
  r.Insert(T({1}));  // duplicate, no change
  EXPECT_EQ(r.version(), v1);
  r.Erase(T({2}));  // absent, no change
  EXPECT_EQ(r.version(), v1);
  r.Erase(T({1}));
  EXPECT_GT(r.version(), v1);
}

TEST_F(RelationTest, ClearEmptiesAndBumpsVersion) {
  Relation r("p", 1);
  r.Insert(T({1}));
  uint64_t v = r.version();
  r.Clear();
  EXPECT_TRUE(r.empty());
  EXPECT_GT(r.version(), v);
  // Clearing an already-empty relation is not a change.
  uint64_t v2 = r.version();
  r.Clear();
  EXPECT_EQ(r.version(), v2);
}

TEST_F(RelationTest, IterationSkipsErasedRows) {
  Relation r("p", 1);
  for (int i = 0; i < 10; ++i) r.Insert(T({i}));
  for (int i = 0; i < 10; i += 2) r.Erase(T({i}));
  int count = 0;
  for (RowView t : r) {
    EXPECT_EQ(pool_.IntValue(t[0]) % 2, 1);
    ++count;
  }
  EXPECT_EQ(count, 5);
}

TEST_F(RelationTest, ReinsertAfterErase) {
  Relation r("p", 1);
  r.Insert(T({7}));
  r.Erase(T({7}));
  EXPECT_TRUE(r.Insert(T({7})));
  EXPECT_TRUE(r.Contains(T({7})));
  EXPECT_EQ(r.size(), 1u);
}

TEST_F(RelationTest, SelectViaExplicitIndex) {
  Relation r("edge", 2);
  for (int i = 0; i < 100; ++i) {
    r.Insert(T({i % 10, i}));
  }
  r.EnsureIndex(0b01);
  std::vector<uint32_t> rows;
  r.Select(0b01, T({3}), &rows);
  EXPECT_EQ(rows.size(), 10u);
  for (uint32_t row : rows) {
    EXPECT_EQ(pool_.IntValue(r.row(row)[0]), 3);
  }
}

TEST_F(RelationTest, IndexIsMaintainedAcrossMutation) {
  Relation r("edge", 2);
  r.EnsureIndex(0b01);
  r.Insert(T({1, 10}));
  r.Insert(T({1, 11}));
  r.Insert(T({2, 20}));
  std::vector<uint32_t> rows;
  r.Select(0b01, T({1}), &rows);
  EXPECT_EQ(rows.size(), 2u);
  r.Erase(T({1, 10}));
  rows.clear();
  r.Select(0b01, T({1}), &rows);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(pool_.IntValue(r.row(rows[0])[1]), 11);
}

TEST_F(RelationTest, ScanSelectWithoutIndex) {
  Relation r("edge", 2);
  r.set_index_policy(IndexPolicy::kNeverIndex);
  for (int i = 0; i < 20; ++i) r.Insert(T({i % 4, i}));
  std::vector<uint32_t> rows;
  r.Select(0b01, T({2}), &rows);
  EXPECT_EQ(rows.size(), 5u);
  EXPECT_EQ(r.FindIndex(0b01), nullptr);
  EXPECT_GT(r.counters().scan_rows, 0u);
}

TEST_F(RelationTest, SelectOnSecondColumn) {
  Relation r("edge", 2);
  r.EnsureIndex(0b10);
  r.Insert(T({1, 5}));
  r.Insert(T({2, 5}));
  r.Insert(T({3, 6}));
  std::vector<uint32_t> rows;
  r.Select(0b10, T({5}), &rows);
  EXPECT_EQ(rows.size(), 2u);
}

TEST_F(RelationTest, SelectOnBothColumns) {
  Relation r("edge", 2);
  r.Insert(T({1, 5}));
  r.Insert(T({2, 5}));
  std::vector<uint32_t> rows;
  r.SelectConst(0b11, T({2, 5}), &rows);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(pool_.IntValue(r.row(rows[0])[0]), 2);
}

TEST_F(RelationTest, UnionDiffComputesDelta) {
  // The §10 uniondiff operator: the engine of semi-naive evaluation.
  Relation acc("tc", 2), src("new", 2), delta("delta", 2);
  acc.Insert(T({1, 2}));
  src.Insert(T({1, 2}));  // already present
  src.Insert(T({2, 3}));  // new
  src.Insert(T({3, 4}));  // new
  size_t added = acc.UnionDiff(src, &delta);
  EXPECT_EQ(added, 2u);
  EXPECT_EQ(acc.size(), 3u);
  EXPECT_EQ(delta.size(), 2u);
  EXPECT_FALSE(delta.Contains(T({1, 2})));
  EXPECT_TRUE(delta.Contains(T({2, 3})));
  EXPECT_TRUE(delta.Contains(T({3, 4})));
}

TEST_F(RelationTest, UnionDiffEmptyDeltaAtFixpoint) {
  Relation acc("tc", 2), src("new", 2), delta("delta", 2);
  acc.Insert(T({1, 2}));
  src.Insert(T({1, 2}));
  EXPECT_EQ(acc.UnionDiff(src, &delta), 0u);
  EXPECT_TRUE(delta.empty());
}

TEST_F(RelationTest, CopyFromReplaces) {
  Relation a("a", 1), b("b", 1);
  a.Insert(T({1}));
  b.Insert(T({2}));
  b.Insert(T({3}));
  a.CopyFrom(b);
  EXPECT_EQ(a.size(), 2u);
  EXPECT_FALSE(a.Contains(T({1})));
  EXPECT_TRUE(a.Contains(T({3})));
}

TEST_F(RelationTest, SortedTuplesAreCanonical) {
  Relation r("p", 1);
  r.Insert(T({3}));
  r.Insert(T({1}));
  r.Insert(T({2}));
  std::vector<Tuple> sorted = r.SortedTuples(pool_);
  ASSERT_EQ(sorted.size(), 3u);
  EXPECT_EQ(pool_.IntValue(sorted[0][0]), 1);
  EXPECT_EQ(pool_.IntValue(sorted[2][0]), 3);
}

TEST_F(RelationTest, CompactPreservesContentAndIndexes) {
  Relation r("edge", 2);
  r.EnsureIndex(0b01);
  for (int i = 0; i < 50; ++i) r.Insert(T({i % 5, i}));
  for (int i = 0; i < 50; i += 2) r.Erase(T({i % 5, i}));
  size_t before = r.size();
  r.Compact();
  EXPECT_EQ(r.size(), before);
  EXPECT_NE(r.FindIndex(0b01), nullptr);
  std::vector<uint32_t> rows;
  r.Select(0b01, T({1}), &rows);
  for (uint32_t row : rows) {
    EXPECT_EQ(pool_.IntValue(r.row(row)[0]), 1);
  }
}

TEST_F(RelationTest, ZeroArityRelation) {
  Relation r("flag", 0);
  EXPECT_TRUE(r.empty());
  EXPECT_TRUE(r.Insert(Tuple{}));
  EXPECT_FALSE(r.Insert(Tuple{}));  // only one possible tuple
  EXPECT_EQ(r.size(), 1u);
  EXPECT_TRUE(r.Erase(Tuple{}));
  EXPECT_TRUE(r.empty());
}

TEST_F(RelationTest, ZeroArityCopyCompactSnapshot) {
  Relation a("flag", 0), b("copy", 0);
  a.Insert(Tuple{});
  b.CopyFrom(a);
  EXPECT_EQ(b.size(), 1u);
  b.Compact();
  EXPECT_TRUE(b.Contains(Tuple{}));
  auto snap = b.Snapshot(pool_);
  EXPECT_EQ(snap->size(), 1u);
  EXPECT_TRUE(snap->Contains(pool_, Tuple{}));
}

TEST_F(RelationTest, RowsAcrossChunkBoundaries) {
  // TupleArena chunks hold 4096 rows; cross several boundaries and check
  // every row reads back exactly, including after erases near the seams.
  constexpr int kN = 3 * 4096 + 37;
  Relation r("big", 2);
  for (int i = 0; i < kN; ++i) r.Insert(T({i, i + 1}));
  EXPECT_EQ(r.size(), static_cast<size_t>(kN));
  for (int i : {0, 4095, 4096, 4097, 8191, 8192, kN - 1}) {
    RowView row = r.row(static_cast<uint32_t>(i));
    EXPECT_EQ(pool_.IntValue(row[0]), i);
    EXPECT_EQ(pool_.IntValue(row[1]), i + 1);
  }
  r.Erase(T({4095, 4096}));
  r.Erase(T({4096, 4097}));
  EXPECT_EQ(r.size(), static_cast<size_t>(kN - 2));
  EXPECT_TRUE(r.Contains(T({4094, 4095})));
  EXPECT_FALSE(r.Contains(T({4096, 4097})));
  EXPECT_GT(r.arena_bytes(), 0u);
}

TEST_F(RelationTest, SnapshotIdenticalAfterCompact) {
  Relation r("p", 2);
  for (int i = 0; i < 200; ++i) r.Insert(T({i % 17, i}));
  for (int i = 0; i < 200; i += 3) r.Erase(T({i % 17, i}));
  std::vector<Tuple> before = r.SortedTuples(pool_);
  auto snap_before = r.Snapshot(pool_);
  r.Compact();
  // Compact bumps the version (row ids changed), so a fresh snapshot is
  // taken — but its contents must be byte-identical.
  auto snap_after = r.Snapshot(pool_);
  EXPECT_NE(snap_before.get(), snap_after.get());
  EXPECT_EQ(snap_before->tuples, snap_after->tuples);
  EXPECT_EQ(r.SortedTuples(pool_), before);
}

TEST_F(RelationTest, SortedTuplesIndependentOfInsertionOrder) {
  Relation fwd("f", 2), rev("r", 2);
  for (int i = 0; i < 64; ++i) fwd.Insert(T({i % 8, i}));
  for (int i = 63; i >= 0; --i) rev.Insert(T({i % 8, i}));
  EXPECT_EQ(fwd.SortedTuples(pool_), rev.SortedTuples(pool_));
}

TEST_F(RelationTest, DedupProbeCounterAdvances) {
  Relation r("p", 1);
  r.Insert(T({1}));
  uint64_t before = r.counters().dedup_probes;
  EXPECT_EQ(r.counters().dedup_lookups, 1u);
  r.Contains(T({1}));
  r.Insert(T({1}));  // duplicate probe
  EXPECT_GT(r.counters().dedup_probes, before);
  EXPECT_EQ(r.counters().dedup_lookups, 3u);
}

// --- Dense keys ------------------------------------------------------------
//
// TermIds are small and dense, so the low bits of a row's HashCombine
// hash barely change from row to row. A table that masks those bits to a
// home slot without mixing them first piles the rows of a graph closure
// into a few long probe clusters (thousands of probes per lookup).

using Pairs = std::vector<std::pair<int64_t, int64_t>>;

Pairs AllPairs(int64_t n) {
  Pairs out;
  for (int64_t x = 0; x < n; ++x) {
    for (int64_t y = 0; y < n; ++y) out.emplace_back(x, y);
  }
  return out;
}

/// Every ordered pair of nodes on one level of a full binary tree of the
/// given depth (nodes numbered breadth-first from 0): the same-generation
/// closure.
Pairs SameGenerationPairs(int depth) {
  Pairs out;
  for (int level = 0; level <= depth; ++level) {
    int64_t first = (int64_t{1} << level) - 1;
    int64_t last = (int64_t{1} << (level + 1)) - 1;
    for (int64_t x = first; x < last; ++x) {
      for (int64_t y = first; y < last; ++y) out.emplace_back(x, y);
    }
  }
  return out;
}

/// Interns each pair the way the batch parser interns the fact
/// `edge(x,y)`: its arguments, then the fact term itself, so the TermIds
/// of the row columns interleave with compound ids as in a real load.
std::vector<Tuple> InternFacts(TermPool* pool, const Pairs& pairs) {
  std::vector<Tuple> rows;
  rows.reserve(pairs.size());
  for (auto [x, y] : pairs) {
    Tuple row = {pool->MakeInt(x), pool->MakeInt(y)};
    pool->MakeCompound("edge", row);
    rows.push_back(std::move(row));
  }
  return rows;
}

/// Inserts every row, then looks each one up again (Contains, and a
/// duplicate Insert). Returns dedup probes per lookup over the lookups.
double DedupProbesPerLookup(const std::vector<Tuple>& rows) {
  Relation r("edge", 2);
  for (const Tuple& t : rows) EXPECT_TRUE(r.Insert(t));
  const Relation::Counters& c = r.counters();
  uint64_t probes = c.dedup_probes;
  uint64_t lookups = c.dedup_lookups;
  EXPECT_EQ(lookups, rows.size());
  for (const Tuple& t : rows) {
    EXPECT_TRUE(r.Contains(t));
    EXPECT_FALSE(r.Insert(t));
  }
  EXPECT_EQ(r.size(), rows.size());
  EXPECT_EQ(c.dedup_lookups - lookups, 2 * rows.size());
  return static_cast<double>(c.dedup_probes - probes) /
         static_cast<double>(c.dedup_lookups - lookups);
}

TEST_F(RelationTest, DedupHoldsUpOnAllPairsOf180) {
  // The closure of TC over a 180-cycle: 32,400 tuples.
  double ppl = DedupProbesPerLookup(InternFacts(&pool_, AllPairs(180)));
  EXPECT_LE(ppl, 4.0);
}

TEST_F(RelationTest, DedupHoldsUpOnSameGenerationPairs) {
  std::vector<Tuple> rows =
      InternFacts(&pool_, SameGenerationPairs(/*depth=*/7));
  ASSERT_EQ(rows.size(), 21845u);
  EXPECT_LE(DedupProbesPerLookup(rows), 4.0);
}

TEST_F(RelationTest, DedupHoldsUpOnAllPairsOf45) {
  // The closure of TC over K_45.
  EXPECT_LE(DedupProbesPerLookup(InternFacts(&pool_, AllPairs(45))), 4.0);
}

TEST_F(RelationTest, IndexHeadTableHoldsUpOnDenseKeys) {
  // A HashIndex head table over two columns of a three-column relation:
  // one entry per distinct key, hashed with HashProjected as
  // HashIndex::Add does, probed through RowIdTable::Find.
  const ColumnMask mask = 0b101;
  TupleArena arena(3);
  RowIdTable heads;
  auto hash_of = [&](uint32_t r) { return HashProjected(mask, arena.row(r)); };
  for (auto [x, y] : AllPairs(180)) {
    TermId tx = pool_.MakeInt(x);
    TermId ty = pool_.MakeInt(y);
    Tuple row = {tx, pool_.MakeCompound("edge", Tuple{tx, ty}), ty};
    uint32_t id = arena.Append(row);
    heads.Insert(hash_of(id), id, hash_of);
  }
  ASSERT_EQ(heads.size(), 180u * 180u);
  uint64_t probes = 0;
  Tuple key(2);
  for (uint32_t r = 0; r < arena.num_rows(); ++r) {
    RowView row = arena.row(r);
    key[0] = row[0];
    key[1] = row[2];
    uint32_t found = heads.Find(
        HashProjected(mask, row),
        [&](uint32_t h) { return ProjectedEquals(mask, arena.row(h), key); },
        &probes);
    ASSERT_EQ(found, r);
  }
  EXPECT_LE(static_cast<double>(probes) / arena.num_rows(), 4.0);
}

TEST(NdvSketchTest, EstimatesArePinned) {
  // The sketch indexes its bitmap by Mix64 of the TermId; these values
  // were recorded with the sketch's original private mixer, and must not
  // move when the mixer is shared with RowIdTable.
  ColumnNdvSketch dense, sparse, saturated;
  for (TermId v = 0; v < 3000; ++v) dense.Observe(v);
  for (TermId v = 0; v < 200; ++v) sparse.Observe(v * 7919 + 13);
  for (TermId v = 0; v < 100000; ++v) saturated.Observe(v);
  EXPECT_DOUBLE_EQ(dense.Estimate(), 3063.14654300853);
  EXPECT_DOUBLE_EQ(sparse.Estimate(), 205.04781601553626);
  EXPECT_DOUBLE_EQ(saturated.Estimate(), 34069.570218882429);
}

// --- NDV statistics under churn (the cost-model staleness fix) -------------

TEST_F(RelationTest, NdvConvergesAfterChurn) {
  // Regression: insert many distinct values, erase them all, re-insert a
  // handful of distinct values. Linear-counting sketches cannot un-observe,
  // so before erase-debt-triggered rebuilds the estimate stayed saturated
  // near the historical 2000 and the planner ordered joins off a relation
  // it believed three orders of magnitude bigger than it was.
  Relation r("churn", 2);
  for (int i = 0; i < 2000; ++i) r.Insert(T({i, i}));
  for (int i = 0; i < 2000; ++i) r.Erase(T({i, i}));
  for (int i = 0; i < 2000; ++i) r.Insert(T({i % 5, i}));

  CardEstimate est = r.stats().Estimate();
  ASSERT_EQ(est.ndv.size(), 2u);
  EXPECT_EQ(est.rows, 2000.0);
  // Column 0 really holds 5 distinct values; a stale sketch reports ~2000.
  EXPECT_LE(est.ndv[0], 16.0) << "stale NDV survived churn";
  EXPECT_GE(est.ndv[0], 1.0);
  EXPECT_GT(r.counters().stats_rebuilds, 0u);
}

TEST_F(RelationTest, NdvRebuildTriggersAtHalfLiveRows) {
  Relation r("half", 1);
  for (int i = 0; i < 100; ++i) r.Insert(T({i}));
  // Erase 33: debt 33, live 67 -> 66 <= 67, below threshold, no rebuild.
  for (int i = 0; i < 33; ++i) r.Erase(T({i}));
  EXPECT_EQ(r.counters().stats_rebuilds, 0u);
  EXPECT_EQ(r.stats().erased_since_rebuild(), 33u);
  // One more: debt 34, live 66 -> 68 > 66 trips the rebuild.
  r.Erase(T({33}));
  EXPECT_EQ(r.counters().stats_rebuilds, 1u);
  EXPECT_EQ(r.stats().erased_since_rebuild(), 0u);
  // The rebuilt sketch reflects only live values.
  CardEstimate est = r.stats().Estimate();
  EXPECT_EQ(est.rows, 66.0);
  EXPECT_LE(est.ndv[0], 80.0);
}

TEST_F(RelationTest, CompactRebuildsSketchesExactly) {
  Relation r("cmp", 1);
  for (int i = 0; i < 40; ++i) r.Insert(T({i}));
  // Ten erases: below the rebuild threshold, debt stays.
  for (int i = 0; i < 10; ++i) r.Erase(T({i}));
  EXPECT_EQ(r.stats().erased_since_rebuild(), 10u);
  r.Compact();
  EXPECT_EQ(r.stats().erased_since_rebuild(), 0u);
  CardEstimate est = r.stats().Estimate();
  EXPECT_EQ(est.rows, 30.0);
  EXPECT_LE(est.ndv[0], 40.0);
}

TEST_F(RelationTest, ClearResetsRebuildCounters) {
  Relation r("clr", 1);
  for (int i = 0; i < 10; ++i) r.Insert(T({i}));
  for (int i = 0; i < 3; ++i) r.Erase(T({i}));
  EXPECT_GT(r.stats().erased_since_rebuild(), 0u);
  r.Clear();
  EXPECT_EQ(r.stats().rows(), 0u);
  EXPECT_EQ(r.stats().erased_since_rebuild(), 0u);
  CardEstimate est = r.stats().Estimate();
  EXPECT_EQ(est.rows, 0.0);
}

// --- Stats maintenance across the bulk-copy fast paths ----------------------

/// Property: after CopyFrom — whichever path it took — the destination's
/// statistics match what row-by-row insertion of the same tuples yields.
TEST_F(RelationTest, CopyFromFastPathPreservesStats) {
  // Fast path: src has no dead rows.
  Relation src("src", 2);
  for (int i = 0; i < 500; ++i) src.Insert(T({i % 7, i}));
  ASSERT_EQ(src.num_rows(), src.size());  // fast-path precondition

  Relation fast("fast", 2);
  fast.CopyFrom(src);
  Relation slow("slow", 2);
  for (RowView t : src) slow.Insert(t);

  CardEstimate a = fast.stats().Estimate();
  CardEstimate b = slow.stats().Estimate();
  ASSERT_EQ(a.ndv.size(), b.ndv.size());
  EXPECT_EQ(a.rows, b.rows);
  for (size_t c = 0; c < a.ndv.size(); ++c) {
    EXPECT_DOUBLE_EQ(a.ndv[c], b.ndv[c]) << "column " << c;
  }
  EXPECT_EQ(fast.stats().erased_since_rebuild(), 0u);
}

TEST_F(RelationTest, CopyFromSlowPathPreservesStats) {
  // Slow path: a dead row in src forces per-row insertion; the copy must
  // observe only live rows (and inherit no erase debt).
  Relation src("src", 2);
  for (int i = 0; i < 200; ++i) src.Insert(T({i % 7, i}));
  src.Erase(T({3, 3}));
  ASSERT_NE(src.num_rows(), src.size());

  Relation dst("dst", 2);
  dst.CopyFrom(src);
  EXPECT_EQ(dst.size(), src.size());
  EXPECT_EQ(dst.stats().rows(), src.size());
  EXPECT_EQ(dst.stats().erased_since_rebuild(), 0u);

  Relation ref("ref", 2);
  for (RowView t : src) ref.Insert(t);
  CardEstimate a = dst.stats().Estimate();
  CardEstimate b = ref.stats().Estimate();
  for (size_t c = 0; c < a.ndv.size(); ++c) {
    EXPECT_DOUBLE_EQ(a.ndv[c], b.ndv[c]) << "column " << c;
  }
}

TEST_F(RelationTest, CopyFromSourceWithDeadRowsIsAUsableRelation) {
  // A source with dead rows takes the probe-free append path: the copy
  // must hold exactly the live rows, keep rejecting duplicates, and keep
  // erasing through its dedup table.
  Relation src("src", 2);
  for (int i = 0; i < 300; ++i) src.Insert(T({i, i % 11}));
  for (int i = 0; i < 300; i += 3) src.Erase(T({i, i % 11}));
  ASSERT_EQ(src.size(), 200u);
  ASSERT_NE(src.num_rows(), src.size());

  Relation dst("dst", 2);
  dst.Insert(T({-1, -1}));  // replaced by the copy
  dst.CopyFrom(src);
  EXPECT_EQ(dst.size(), 200u);
  EXPECT_EQ(dst.num_rows(), 200u);  // only live rows are copied
  EXPECT_FALSE(dst.Contains(T({-1, -1})));
  for (int i = 0; i < 300; ++i) {
    EXPECT_EQ(dst.Contains(T({i, i % 11})), i % 3 != 0) << i;
  }
  EXPECT_EQ(dst.SortedTuples(pool_), src.SortedTuples(pool_));

  EXPECT_FALSE(dst.Insert(T({1, 1})));  // a copied row
  EXPECT_TRUE(dst.Insert(T({0, 0})));   // a row erased from the source
  EXPECT_TRUE(dst.Erase(T({2, 2})));
  EXPECT_FALSE(dst.Contains(T({2, 2})));
  EXPECT_FALSE(dst.Erase(T({2, 2})));
  EXPECT_EQ(dst.size(), 200u);
  std::vector<uint32_t> hits;
  dst.Select(0b01, T({4}), &hits);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(dst.row(hits[0])[1], pool_.MakeInt(4));
}

TEST_F(RelationTest, UnionDiffMaintainsStatsIncrementally) {
  // UnionDiff inserts through the normal path, so stats must equal the
  // row-by-row reference on destination, and the delta must carry stats
  // for exactly the newly added tuples.
  Relation dst("dst", 1);
  for (int i = 0; i < 50; ++i) dst.Insert(T({i}));
  Relation src("src", 1);
  for (int i = 25; i < 100; ++i) src.Insert(T({i}));

  Relation delta("delta", 1);
  size_t added = dst.UnionDiff(src, &delta);
  EXPECT_EQ(added, 50u);
  EXPECT_EQ(dst.stats().rows(), 100u);
  EXPECT_EQ(delta.stats().rows(), 50u);

  Relation ref("ref", 1);
  for (int i = 0; i < 100; ++i) ref.Insert(T({i}));
  EXPECT_DOUBLE_EQ(dst.stats().Estimate().ndv[0],
                   ref.stats().Estimate().ndv[0]);
}

}  // namespace
}  // namespace gluenail
