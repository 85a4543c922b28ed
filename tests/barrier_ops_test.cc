/// Golden tests for the barrier ops over binding records: duplicate
/// elimination at pipeline breaks (§9), cascaded group_by (§3.3.1), and
/// aggregates over the supplementary relation (§3.3). The unit cases pin
/// DedupRecords and RefineGroups directly; the engine cases run the same
/// statements under both strategies with dedup_at_breaks on and off.

#include <gtest/gtest.h>

#include <set>
#include <tuple>

#include "src/api/engine.h"
#include "src/exec/bindings.h"

namespace gluenail {
namespace {

/// Renders a record set as "1,2/0 3,4/1": record values, then group.
std::string Render(const RecordSet& set) {
  std::string out;
  for (size_t i = 0; i < set.size(); ++i) {
    if (i != 0) out += " ";
    for (size_t j = 0; j < set.records[i].size(); ++j) {
      if (j != 0) out += ",";
      out += std::to_string(set.records[i][j]);
    }
    out += "/" + std::to_string(set.group(i));
  }
  return out;
}

TEST(DedupRecordsTest, KeepsFirstOccurrenceInOrder) {
  RecordSet set;
  for (const Record& r : std::vector<Record>{
           {1, 2}, {3, 4}, {1, 2}, {5, 6}, {3, 4}, {1, 2}, {2, 1}}) {
    set.Add(r, 0);
  }
  EXPECT_EQ(DedupRecords(&set), 3u);
  EXPECT_EQ(Render(set), "1,2/0 3,4/0 5,6/0 2,1/0");
  EXPECT_EQ(set.num_groups, 1u);
}

TEST(DedupRecordsTest, UngroupedSetKeepsFirstOccurrences) {
  RecordSet set;
  set.records = {{7}, {8}, {7}, {9}, {8}};
  EXPECT_EQ(DedupRecords(&set), 2u);
  EXPECT_EQ(Render(set), "7/0 8/0 9/0");
}

TEST(DedupRecordsTest, EqualRecordsInDifferentGroupsAreKept) {
  RecordSet set;
  set.num_groups = 2;
  set.Add({1}, 0);
  set.Add({1}, 1);
  set.Add({1}, 0);
  set.Add({2}, 1);
  set.Add({1}, 1);
  set.Add({2}, 0);
  EXPECT_EQ(DedupRecords(&set), 2u);
  EXPECT_EQ(Render(set), "1/0 1/1 2/1 2/0");
  EXPECT_EQ(set.num_groups, 2u);
}

TEST(DedupRecordsTest, EmptyAndDuplicateFreeSets) {
  RecordSet empty;
  EXPECT_EQ(DedupRecords(&empty), 0u);
  EXPECT_TRUE(empty.empty());

  RecordSet distinct;
  for (TermId i = 0; i < 10; ++i) distinct.Add({i, i}, 0);
  EXPECT_EQ(DedupRecords(&distinct), 0u);
  EXPECT_EQ(distinct.size(), 10u);
  for (TermId i = 0; i < 10; ++i) EXPECT_EQ(distinct.records[i][0], i);
}

TEST(DedupRecordsTest, LargeDenseSetMatchesReference) {
  // Dense, small TermIds in several groups: the order-preserving result
  // must equal a first-occurrence filter through a std::set.
  RecordSet set;
  set.num_groups = 3;
  for (TermId i = 0; i < 6000; ++i) {
    set.Add({i % 97, (i * 7) % 61}, i % 3);
  }
  std::set<std::tuple<uint32_t, TermId, TermId>> seen;
  std::vector<std::tuple<uint32_t, TermId, TermId>> expect;
  for (size_t i = 0; i < set.size(); ++i) {
    auto key = std::make_tuple(set.groups[i], set.records[i][0],
                               set.records[i][1]);
    if (seen.insert(key).second) expect.push_back(key);
  }
  size_t removed = DedupRecords(&set);
  EXPECT_EQ(removed, 6000u - expect.size());
  ASSERT_EQ(set.size(), expect.size());
  for (size_t i = 0; i < set.size(); ++i) {
    EXPECT_EQ(std::make_tuple(set.group(i), set.records[i][0],
                              set.records[i][1]),
              expect[i])
        << i;
  }
}

TEST(RefineGroupsTest, CascadeNumbersIdsInFirstOccurrenceOrder) {
  // (region, product) with region 10/11 and product 20/21.
  RecordSet set;
  for (const Record& r : std::vector<Record>{
           {11, 20}, {10, 20}, {11, 21}, {11, 20}, {10, 21}, {10, 20}}) {
    set.Add(r, 0);
  }
  RefineGroups(&set, {0});
  EXPECT_EQ(set.groups, (std::vector<uint32_t>{0, 1, 0, 0, 1, 1}));
  EXPECT_EQ(set.num_groups, 2u);
  RefineGroups(&set, {1});
  EXPECT_EQ(set.groups, (std::vector<uint32_t>{0, 1, 2, 0, 3, 1}));
  EXPECT_EQ(set.num_groups, 4u);
  // Records are untouched.
  EXPECT_EQ(set.records[4], (Record{10, 21}));
}

TEST(RefineGroupsTest, RefinesExistingIdsNotRecordValuesAlone) {
  // Equal keys in different incoming groups get different ids; the new
  // ids follow first occurrence, not the incoming id order.
  RecordSet set;
  set.num_groups = 3;
  set.Add({5, 1}, 2);
  set.Add({5, 2}, 0);
  set.Add({5, 3}, 2);
  set.Add({6, 4}, 1);
  set.Add({5, 5}, 0);
  RefineGroups(&set, {0});
  EXPECT_EQ(set.groups, (std::vector<uint32_t>{0, 1, 0, 2, 1}));
  EXPECT_EQ(set.num_groups, 3u);
}

TEST(RefineGroupsTest, UngroupedAndEmptySets) {
  RecordSet set;
  set.records = {{3, 1}, {4, 1}, {3, 2}};
  RefineGroups(&set, {0, 1});
  EXPECT_EQ(set.groups, (std::vector<uint32_t>{0, 1, 2}));
  EXPECT_EQ(set.num_groups, 3u);
  RefineGroups(&set, {1});
  EXPECT_EQ(set.groups, (std::vector<uint32_t>{0, 1, 2}));

  RecordSet empty;
  RefineGroups(&empty, {0});
  EXPECT_TRUE(empty.groups.empty());
  EXPECT_EQ(empty.num_groups, 1u);
}

struct EngineConfig {
  ExecOptions::Strategy strategy;
  bool dedup_at_breaks;
};

class BarrierOpsEngineTest : public ::testing::TestWithParam<EngineConfig> {
 protected:
  BarrierOpsEngineTest() {
    EngineOptions opts;
    opts.exec.strategy = GetParam().strategy;
    opts.exec.dedup_at_breaks = GetParam().dedup_at_breaks;
    engine_ = std::make_unique<Engine>(opts);
  }

  void Fact(const std::string& f) {
    Status s = engine_->AddFact(f);
    ASSERT_TRUE(s.ok()) << s;
  }

  void Exec(std::string_view stmt) {
    Status s = engine_->ExecuteStatement(stmt);
    ASSERT_TRUE(s.ok()) << stmt << ": " << s;
  }

  /// Renders query answers as "a,b;c,d" in canonical order.
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

  std::unique_ptr<Engine> engine_;
};

TEST_P(BarrierOpsEngineTest, CascadedGroupByAggregates) {
  Fact("sale(west, b, 7).");
  Fact("sale(east, a, 1).");
  Fact("sale(east, a, 2).");
  Fact("sale(east, b, 10).");
  Fact("sale(west, a, 100).");
  Fact("sale(east, a, 4).");
  Exec(
      "per(R, P, S, C) := sale(R, P, V) & group_by(R) & group_by(P) & "
      "S = sum(V) & C = count(V).");
  EXPECT_EQ(Ask("per(R,P,S,C)"), "east,a,7,3;east,b,10,1;west,a,100,1;"
                                 "west,b,7,1");
}

TEST_P(BarrierOpsEngineTest, SumAndCountSeeDuplicateValues) {
  // §3.3: one contribution per supplementary tuple. Rows that differ only
  // in W carry equal V values, and each one counts.
  Fact("m(a, 1, 5).");
  Fact("m(a, 2, 5).");
  Fact("m(a, 3, 5).");
  Fact("m(b, 1, 5).");
  Fact("m(b, 2, 6).");
  Exec("tot(G, S, C) := m(G, W, V) & group_by(G) & S = sum(V) & "
       "C = count(V).");
  EXPECT_EQ(Ask("tot(G,S,C)"), "a,15,3;b,11,2");
  // A wildcard is no variable: the supplementary relation is a set, so
  // the three a-rows collapse to one tuple before the aggregate.
  Exec("proj(G, S, C) := m(G, _, V) & group_by(G) & S = sum(V) & "
       "C = count(V).");
  EXPECT_EQ(Ask("proj(G,S,C)"), "a,5,1;b,11,2");
}

TEST_P(BarrierOpsEngineTest, GroupsEmptiedByAFilterProduceNoAnswer) {
  Fact("m(g1, 3).");
  Fact("m(g2, 20).");
  Fact("m(g2, 30).");
  Fact("m(g3, 1).");
  Fact("m(g4, 12).");
  Exec("big(G, C, S) := m(G, V) & group_by(G) & V > 10 & C = count(V) & "
       "S = sum(V).");
  EXPECT_EQ(Ask("big(G,C,S)"), "g2,2,50;g4,1,12");
}

TEST_P(BarrierOpsEngineTest, GroupedMinFilterThenCount) {
  // A bound aggregate filters within each group (§3.3); a later aggregate
  // sees the surviving tuples of the same groups.
  Fact("price(apple, storeA, 3).");
  Fact("price(apple, storeB, 2).");
  Fact("price(apple, storeC, 2).");
  Fact("price(pear, storeA, 5).");
  Fact("price(pear, storeB, 7).");
  Exec("cheapest(F, S, N) := price(F, S, P) & group_by(F) & P = min(P) & "
       "N = count(S).");
  EXPECT_EQ(Ask("cheapest(F,S,N)"),
            "apple,storeB,2;apple,storeC,2;pear,storeA,1");
}

TEST_P(BarrierOpsEngineTest, ManyGroups) {
  for (int g = 0; g < 300; ++g) {
    for (int v = 0; v < 3; ++v) {
      Fact(StrCat("n(", g, ", ", g * 10 + v, ")."));
    }
  }
  Exec("s(G, S, C) := n(G, V) & group_by(G) & S = sum(V) & C = count(V).");
  Result<Engine::QueryResult> all = engine_->Query("s(G, S, C)");
  ASSERT_TRUE(all.ok()) << all.status();
  EXPECT_EQ(all->rows.size(), 300u);
  EXPECT_EQ(Ask("s(0, S, C)"), "3,3");
  EXPECT_EQ(Ask("s(157, S, C)"), "4713,3");
  EXPECT_EQ(Ask("s(299, S, C)"), "8973,3");
}

std::string ConfigName(const ::testing::TestParamInfo<EngineConfig>& info) {
  return StrCat(info.param.strategy == ExecOptions::Strategy::kPipelined
                    ? "Pipelined"
                    : "Materialized",
                info.param.dedup_at_breaks ? "Dedup" : "NoDedup");
}

INSTANTIATE_TEST_SUITE_P(
    Strategies, BarrierOpsEngineTest,
    ::testing::Values(
        EngineConfig{ExecOptions::Strategy::kPipelined, true},
        EngineConfig{ExecOptions::Strategy::kPipelined, false},
        EngineConfig{ExecOptions::Strategy::kMaterialized, true},
        EngineConfig{ExecOptions::Strategy::kMaterialized, false}),
    ConfigName);

}  // namespace
}  // namespace gluenail
