/// Observability tests (ctest -L obs): the metrics registry and its two
/// export formats, structured query tracing (span trees, Chrome export,
/// bounded rings), the slow-query log, and two cross-cutting invariants —
/// per-op trace rows must equal EXPLAIN ANALYZE actual rows on both
/// executor strategies, and the planner must pick a good join order on a
/// relation whose NDV sketches went through heavy erase churn. A golden
/// list pins the metric catalog (name, type, help) of a default and a
/// replica engine.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "src/api/engine.h"
#include "src/api/session.h"
#include "src/common/strings.h"
#include "src/obs/metrics.h"
#include "src/obs/slow_query.h"
#include "src/obs/trace.h"

namespace gluenail {
namespace {

// --- Metrics registry ----------------------------------------------------

TEST(MetricsTest, CountersGaugesAndPullMetricsRenderInBothFormats) {
  MetricsRegistry reg;
  Counter* c = reg.RegisterCounter("test_events_total", "events seen");
  Gauge* g = reg.RegisterGauge("test_depth", "current depth");
  c->Add(3);
  g->Set(-7);
  uint64_t pulled = 42;
  reg.RegisterPullCounter("test_pulled_total", "pulled on export",
                          [&pulled]() { return pulled; });

  std::string prom = reg.RenderPrometheus();
  EXPECT_NE(prom.find("# HELP test_events_total events seen"),
            std::string::npos);
  EXPECT_NE(prom.find("test_events_total 3"), std::string::npos);
  EXPECT_NE(prom.find("test_depth -7"), std::string::npos);
  EXPECT_NE(prom.find("test_pulled_total 42"), std::string::npos);

  pulled = 43;  // pull callbacks re-evaluate on every export
  std::string json = reg.RenderJson();
  EXPECT_NE(json.find("\"test_events_total\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"test_pulled_total\",\"type\":\"counter\","
                      "\"value\":43"),
            std::string::npos);
}

TEST(MetricsTest, HistogramBucketsCountAndSum) {
  MetricsRegistry reg;
  Histogram* h = reg.RegisterHistogram("test_latency_ns", "latencies");
  h->Observe(1);
  h->Observe(1000);
  h->Observe(1000000);
  EXPECT_EQ(h->count(), 3u);
  EXPECT_EQ(h->sum(), 1001001u);
  std::string prom = reg.RenderPrometheus();
  EXPECT_NE(prom.find("test_latency_ns_count 3"), std::string::npos);
  EXPECT_NE(prom.find("test_latency_ns_sum 1001001"), std::string::npos);
  EXPECT_NE(prom.find("le=\"+Inf\""), std::string::npos);
}

TEST(MetricsTest, EngineDumpCoversAllLayersAndCountsQueries) {
  Engine engine;
  ASSERT_TRUE(engine.AddFact("edge(1,2).").ok());
  ASSERT_TRUE(engine.Query("edge(X,Y)").ok());
  std::string prom = engine.DumpMetrics();
  // One representative metric per instrumented layer.
  for (const char* name :
       {"gluenail_queries_total", "gluenail_query_latency_ns",
        "gluenail_termpool_terms", "gluenail_storage_live_tuples",
        "gluenail_storage_scan_rows_total", "gluenail_exec_statements_total",
        "gluenail_planner_bodies_planned_total",
        "gluenail_persist_saves_total", "gluenail_nail_refreshes_total"}) {
    EXPECT_NE(prom.find(name), std::string::npos) << "missing " << name;
  }

  // gluenail_queries_total increments per query.
  auto count_of = [&](const std::string& dump) {
    size_t pos = dump.find("\ngluenail_queries_total ");
    EXPECT_NE(pos, std::string::npos);
    return std::stoull(dump.substr(pos + 24));
  };
  uint64_t before = count_of(engine.DumpMetrics());
  ASSERT_TRUE(engine.Query("edge(X,Y)").ok());
  EXPECT_EQ(count_of(engine.DumpMetrics()), before + 1);

  std::string json = engine.DumpMetrics(MetricsFormat::kJson);
  EXPECT_NE(json.find("\"gluenail_queries_total\""), std::string::npos);
}

// --- Metric catalog golden -------------------------------------------------

/// One catalog entry: what a scraper sees of a metric, minus its value.
struct CatalogEntry {
  std::string name;
  std::string type;
  std::string help;
  bool operator==(const CatalogEntry&) const = default;
  bool operator<(const CatalogEntry& o) const { return name < o.name; }
};

void PrintTo(const CatalogEntry& e, std::ostream* os) {
  *os << e.name << " (" << e.type << "): " << e.help;
}

/// Every (name, type, help) an engine exports, sorted by name. Name and
/// type come from the JSON dump; the JSON form carries no help text, so
/// help comes from the Prometheus `# HELP` line of the same metric. The
/// two dumps must name the same metrics with the same types.
std::vector<CatalogEntry> Catalog(const Engine& engine) {
  std::map<std::string, CatalogEntry> from_prom;
  std::istringstream prom(engine.DumpMetrics(MetricsFormat::kPrometheus));
  std::string line;
  while (std::getline(prom, line)) {
    for (const std::string prefix : {"# HELP ", "# TYPE "}) {
      if (line.rfind(prefix, 0) != 0) continue;
      std::string rest = line.substr(prefix.size());
      const size_t space = rest.find(' ');
      CatalogEntry& e = from_prom[rest.substr(0, space)];
      e.name = rest.substr(0, space);
      (prefix == "# HELP " ? e.help : e.type) = rest.substr(space + 1);
    }
  }
  std::vector<CatalogEntry> out;
  const std::string json = engine.DumpMetrics(MetricsFormat::kJson);
  const std::string name_key = "{\"name\":\"";
  const std::string type_key = "\",\"type\":\"";
  for (size_t pos = json.find(name_key); pos != std::string::npos;
       pos = json.find(name_key, pos + 1)) {
    const size_t name_begin = pos + name_key.size();
    const size_t name_end = json.find(type_key, name_begin);
    const size_t type_begin = name_end + type_key.size();
    CatalogEntry e;
    e.name = json.substr(name_begin, name_end - name_begin);
    e.type = json.substr(type_begin, json.find('"', type_begin) - type_begin);
    auto it = from_prom.find(e.name);
    EXPECT_NE(it, from_prom.end()) << e.name << " missing from Prometheus";
    if (it != from_prom.end()) {
      EXPECT_EQ(it->second.type, e.type) << e.name;
      e.help = it->second.help;
    }
    out.push_back(std::move(e));
  }
  EXPECT_EQ(out.size(), from_prom.size());
  std::sort(out.begin(), out.end());
  return out;
}

/// The catalog of a default engine. A change to this list is a change to
/// the scrape contract: rename or retype a metric only on purpose.
const std::vector<CatalogEntry>& DefaultCatalog() {
  static const auto* catalog = new std::vector<CatalogEntry>{
    {"gluenail_checkpoints_total", "counter",
     "checkpoint saves with WAL rotation"},
    {"gluenail_exec_batch_rows_total", "counter",
     "binding records entering batch segments"},
    {"gluenail_exec_batch_segments_total", "counter",
     "batch-at-a-time segments run"},
    {"gluenail_exec_control_checks_total", "counter",
     "full guardrail checks"},
    {"gluenail_exec_duplicates_removed_total", "counter",
     "records dropped by dedup-at-breaks"},
    {"gluenail_exec_pipeline_breaks_total", "counter",
     "pipelined-strategy materialization points"},
    {"gluenail_exec_records_produced_total", "counter",
     "binding records produced"},
    {"gluenail_exec_rows_scanned_total", "counter",
     "rows visited answering matches (scan + probe chains)"},
    {"gluenail_exec_statements_total", "counter",
     "statement plans executed"},
    {"gluenail_nail_delta_refresh_total", "counter",
     "NAIL! memo refreshes patched incrementally from captured deltas"},
    {"gluenail_nail_full_refresh_total", "counter",
     "NAIL! memo refreshes recomputed from scratch"},
    {"gluenail_nail_iterations_total", "counter",
     "semi-naive fixpoint iterations"},
    {"gluenail_nail_ivm_delta_rows_in_total", "counter",
     "EDB delta rows consumed by incremental refreshes"},
    {"gluenail_nail_ivm_delta_rows_out_total", "counter",
     "memo rows changed by incremental refreshes"},
    {"gluenail_nail_ivm_fallbacks_total", "counter",
     "full recomputes forced while delta maintenance was enabled"},
    {"gluenail_nail_ivm_old_state_rows_total", "counter",
     "rows copied into old-state overrides by incremental refreshes"},
    {"gluenail_nail_refreshes_total", "counter",
     "NAIL! memo refreshes"},
    {"gluenail_nail_replans_total", "counter",
     "mid-evaluation SCC replans on cardinality drift"},
    {"gluenail_persist_load_failures_total", "counter",
     "failed database file loads"},
    {"gluenail_persist_loads_total", "counter",
     "successful database file loads"},
    {"gluenail_persist_save_failures_total", "counter",
     "failed database file saves"},
    {"gluenail_persist_saves_total", "counter",
     "successful database file saves"},
    {"gluenail_plan_cache_hits_total", "counter",
     "reads served a cached plan of their shape"},
    {"gluenail_plan_cache_misses_total", "counter",
     "reads planned because no plan of their shape was cached"},
    {"gluenail_plan_cache_replans_total", "counter",
     "cached read plans planned again after a relation they read drifted "
     "8x in size"},
    {"gluenail_planner_bodies_planned_total", "counter",
     "statement bodies ordered by the physical planner"},
    {"gluenail_planner_index_builds_scheduled_total", "counter",
     "planner-decided index builds"},
    {"gluenail_queries_total", "counter",
     "queries and traced statements executed"},
    {"gluenail_queries_traced_total", "counter",
     "queries traced explicitly (QueryOptions::trace)"},
    {"gluenail_query_latency_ns", "histogram",
     "end-to-end query latency in nanoseconds"},
    {"gluenail_recovery_failures_total", "counter",
     "failed crash recoveries"},
    {"gluenail_recovery_records_replayed_total", "counter",
     "WAL records replayed during recovery"},
    {"gluenail_recovery_runs_total", "counter",
     "successful crash recoveries"},
    {"gluenail_recovery_torn_bytes_total", "counter",
     "torn-tail bytes discarded during recovery"},
    {"gluenail_slow_queries_total", "counter",
     "queries over EngineOptions::slow_query_threshold"},
    {"gluenail_storage_arena_bytes", "gauge",
     "bytes held by arenas, dedup tables, indexes"},
    {"gluenail_storage_dedup_lookups_total", "counter",
     "dedup-table lookups (insert and contains probes)"},
    {"gluenail_storage_dedup_probes_total", "counter",
     "dedup-table probe steps"},
    {"gluenail_storage_index_lookups_total", "counter",
     "keyed index lookups"},
    {"gluenail_storage_index_probe_rows_total", "counter",
     "rows walked along index probe chains"},
    {"gluenail_storage_indexes_built_total", "counter",
     "hash indexes built"},
    {"gluenail_storage_live_tuples", "gauge",
     "live tuples across every relation"},
    {"gluenail_storage_relations", "gauge",
     "relations across the EDB and IDB"},
    {"gluenail_storage_scan_rows_total", "counter",
     "rows visited by full scans"},
    {"gluenail_storage_stats_rebuilds_total", "counter",
     "NDV-sketch rebuilds (erase churn or compaction)"},
    {"gluenail_termpool_terms", "gauge",
     "terms interned in the pool"},
    {"gluenail_wal_append_failures_total", "counter",
     "failed WAL appends"},
    {"gluenail_wal_appended_bytes_total", "counter",
     "bytes appended to the WAL"},
    {"gluenail_wal_appends_total", "counter",
     "records appended to the WAL"},
    {"gluenail_wal_commit_failures_total", "counter",
     "mutation batches rejected or not made durable"},
    {"gluenail_wal_commits_total", "counter",
     "mutation batches committed through the WAL write path"},
    {"gluenail_wal_group_commit_batches", "histogram",
     "batches made durable per fsync (group-commit amortization)"},
    {"gluenail_wal_rotations_total", "counter",
     "WAL rotations behind checkpoints"},
    {"gluenail_wal_sync_failures_total", "counter",
     "failed WAL fsyncs (log marked broken)"},
    {"gluenail_wal_syncs_total", "counter",
     "WAL fsyncs"},
  };
  return *catalog;
}

/// What a replica engine exports on top of the default catalog.
const std::vector<CatalogEntry>& ReplicaOnlyCatalog() {
  static const auto* catalog = new std::vector<CatalogEntry>{
    {"gluenail_repl_applied_lsn", "gauge",
     "highest primary LSN applied on this replica"},
    {"gluenail_repl_batches_applied_total", "counter",
     "WAL batches shipped from the primary and applied"},
    {"gluenail_repl_lag", "gauge",
     "primary durable LSN minus applied LSN"},
    {"gluenail_repl_primary_durable_lsn", "gauge",
     "primary's durable LSN as of its last heartbeat"},
    {"gluenail_repl_snapshot_bootstraps_total", "counter",
     "checkpoint-image bootstraps (requested LSN rotated away)"},
  };
  return *catalog;
}

TEST(MetricsTest, CatalogMatchesGoldenList) {
  Engine engine;
  EXPECT_EQ(Catalog(engine), DefaultCatalog());

  EngineOptions replica_opts;
  replica_opts.replica = true;
  Engine replica(replica_opts);
  std::vector<CatalogEntry> want = DefaultCatalog();
  want.insert(want.end(), ReplicaOnlyCatalog().begin(),
              ReplicaOnlyCatalog().end());
  std::sort(want.begin(), want.end());
  EXPECT_EQ(Catalog(replica), want);
}

// --- Tracing -------------------------------------------------------------

TEST(TraceTest, TracedQueryRecordsSpanTreeAndPlan) {
  Engine engine;
  ASSERT_TRUE(engine.AddFact("edge(1,2).").ok());
  ASSERT_TRUE(engine.AddFact("edge(2,3).").ok());
  EXPECT_EQ(engine.last_trace(), nullptr);

  QueryOptions opts;
  opts.trace = true;
  ASSERT_TRUE(engine.Query("edge(X,Y)", opts).ok());

  std::shared_ptr<const QueryTrace> trace = engine.last_trace();
  ASSERT_NE(trace, nullptr);
  EXPECT_EQ(trace->query, "edge(X,Y)");
  EXPECT_FALSE(trace->spans.empty());
  EXPECT_FALSE(trace->plan.empty());

  std::string tree = trace->RenderTree();
  for (const char* span : {"query:parse", "query:plan", "query:execute",
                           "query:answers"}) {
    EXPECT_NE(tree.find(span), std::string::npos) << "missing " << span;
  }
  // The answers span carries the row count.
  bool found_rows = false;
  for (const TraceSpan& s : trace->spans) {
    if (s.name == "query:answers") {
      EXPECT_EQ(s.rows, 2u);
      found_rows = true;
    }
  }
  EXPECT_TRUE(found_rows);
}

TEST(TraceTest, UntracedQueriesLeaveNoTrace) {
  Engine engine;
  ASSERT_TRUE(engine.AddFact("p(1).").ok());
  ASSERT_TRUE(engine.Query("p(X)").ok());
  EXPECT_EQ(engine.last_trace(), nullptr);
}

TEST(TraceTest, ChromeExportIsWellFormedTraceEventJson) {
  Engine engine;
  ASSERT_TRUE(engine.AddFact("p(1).").ok());
  QueryOptions opts;
  opts.trace = true;
  ASSERT_TRUE(engine.Query("p(X)", opts).ok());
  std::shared_ptr<const QueryTrace> trace = engine.last_trace();
  ASSERT_NE(trace, nullptr);

  std::string json = trace->RenderChromeJson();
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"query:execute\""), std::string::npos);
  // Balanced braces/brackets — cheap well-formedness proxy that catches
  // missing commas/terminators without a JSON parser dependency.
  int braces = 0, brackets = 0;
  for (char ch : json) {
    if (ch == '{') ++braces;
    if (ch == '}') --braces;
    if (ch == '[') ++brackets;
    if (ch == ']') --brackets;
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
}

TEST(TraceTest, RingEvictsOldestBeyondCapacity) {
  EngineOptions eopts;
  eopts.trace_ring_capacity = 2;
  Engine engine(eopts);
  ASSERT_TRUE(engine.AddFact("p(1).").ok());
  QueryOptions opts;
  opts.trace = true;
  ASSERT_TRUE(engine.Query("p(1)", opts).ok());
  ASSERT_TRUE(engine.Query("p(X)", opts).ok());
  ASSERT_TRUE(engine.Query("p(Y)", opts).ok());
  std::vector<std::shared_ptr<const QueryTrace>> all =
      engine.trace_ring().All();
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(all[0]->query, "p(X)");
  EXPECT_EQ(all[1]->query, "p(Y)");
  EXPECT_EQ(engine.last_trace()->query, "p(Y)");
}

TEST(TraceTest, SessionTracesAreSessionPrivate) {
  Engine engine;
  ASSERT_TRUE(engine.AddFact("p(1).").ok());
  Session a = engine.OpenSession();
  Session b = engine.OpenSession();
  QueryOptions opts;
  opts.trace = true;
  ASSERT_TRUE(a.Query("p(X)", opts).ok());
  ASSERT_NE(a.last_trace(), nullptr);
  EXPECT_EQ(b.last_trace(), nullptr);
  // Session traces do not leak into the engine's ring either.
  EXPECT_EQ(engine.last_trace(), nullptr);
}

TEST(TraceTest, TopSpansByDurationOrdersAndTruncates) {
  std::vector<TraceSpan> spans(5);
  for (size_t i = 0; i < spans.size(); ++i) {
    spans[i].name = "s" + std::to_string(i);
    spans[i].dur_ns = (i + 1) * 100;
  }
  std::vector<std::pair<std::string, uint64_t>> top =
      TopSpansByDuration(spans, 3);
  ASSERT_EQ(top.size(), 3u);
  EXPECT_EQ(top[0].first, "s4");
  EXPECT_EQ(top[0].second, 500u);
  EXPECT_EQ(top[1].first, "s3");
  EXPECT_EQ(top[2].first, "s2");
}

// --- Slow-query log ------------------------------------------------------

TEST(SlowQueryTest, ArmedThresholdCapturesPlanReplansAndTopSpans) {
  EngineOptions eopts;
  eopts.slow_query_threshold = std::chrono::nanoseconds(1);  // everything
  Engine engine(eopts);
  ASSERT_TRUE(engine.AddFact("edge(1,2).").ok());
  // No QueryOptions::trace: the armed threshold alone must trace.
  ASSERT_TRUE(engine.Query("edge(X,Y)").ok());

  std::vector<SlowQueryEntry> entries = engine.slow_query_log().Entries();
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].query, "edge(X,Y)");
  EXPECT_GT(entries[0].seconds, 0.0);
  EXPECT_FALSE(entries[0].plan.empty());
  EXPECT_FALSE(entries[0].top_spans.empty());
  EXPECT_LE(entries[0].top_spans.size(), 3u);
  EXPECT_EQ(engine.slow_query_log().total(), 1u);

  std::string render = engine.slow_query_log().Render();
  EXPECT_NE(render.find("edge(X,Y)"), std::string::npos);
}

TEST(SlowQueryTest, DisarmedThresholdCapturesNothing) {
  Engine engine;  // slow_query_threshold = 0
  ASSERT_TRUE(engine.AddFact("p(1).").ok());
  ASSERT_TRUE(engine.Query("p(X)").ok());
  EXPECT_TRUE(engine.slow_query_log().Entries().empty());
  EXPECT_EQ(engine.slow_query_log().total(), 0u);
}

TEST(SlowQueryTest, LogEvictsButTotalKeepsCounting) {
  SlowQueryLog log(2);
  for (int i = 0; i < 5; ++i) {
    SlowQueryEntry e;
    e.query = "q" + std::to_string(i);
    log.Record(std::move(e));
  }
  std::vector<SlowQueryEntry> entries = log.Entries();
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].query, "q3");
  EXPECT_EQ(entries[1].query, "q4");
  EXPECT_EQ(log.total(), 5u);
}

// --- EXPLAIN ANALYZE actual rows == trace span rows ----------------------

/// Extracts every "actual=N" row count from a rendered plan, in op order.
std::vector<uint64_t> ParseActualRows(const std::string& plan) {
  std::vector<uint64_t> rows;
  size_t pos = 0;
  while ((pos = plan.find("actual=", pos)) != std::string::npos) {
    pos += 7;
    rows.push_back(std::stoull(plan.substr(pos)));
  }
  return rows;
}

/// Extracts per-op row counts from the "opN:" marker spans, in op order.
std::vector<uint64_t> OpSpanRows(const QueryTrace& trace) {
  std::vector<uint64_t> rows;
  for (const TraceSpan& s : trace.spans) {
    if (s.name.size() > 2 && s.name[0] == 'o' && s.name[1] == 'p' &&
        s.name.find(':') != std::string::npos) {
      rows.push_back(s.rows);
    }
  }
  return rows;
}

class ExplainVsTraceTest
    : public ::testing::TestWithParam<ExecOptions::Strategy> {};

TEST_P(ExplainVsTraceTest, AnalyzeActualRowsEqualTraceSpanRows) {
  EngineOptions eopts;
  eopts.exec.strategy = GetParam();
  Engine engine(eopts);
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(
        engine
            .AddFact("e(" + std::to_string(i) + "," +
                     std::to_string(i % 7) + ").")
            .ok());
  }
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(engine.AddFact("f(" + std::to_string(i) + ").").ok());
  }
  // `:=` clears the head first, so repeated runs are idempotent — the
  // EXPLAIN ANALYZE pass and the traced pass see identical inputs and must
  // report identical per-op actual rows.
  const std::string stmt = "r(X,Y) := e(X,Y) & f(Y).";

  ExplainOptions an;
  an.analyze = true;
  Result<std::string> plan = engine.ExplainStatement(stmt, an);
  ASSERT_TRUE(plan.ok()) << plan.status();
  std::vector<uint64_t> analyze_rows = ParseActualRows(*plan);
  ASSERT_FALSE(analyze_rows.empty());

  QueryOptions qopts;
  qopts.trace = true;
  ASSERT_TRUE(engine.ExecuteStatement(stmt, qopts).ok());
  std::shared_ptr<const QueryTrace> trace = engine.last_trace();
  ASSERT_NE(trace, nullptr);
  std::vector<uint64_t> span_rows = OpSpanRows(*trace);

  EXPECT_EQ(span_rows, analyze_rows);
  // The traced plan text must agree with EXPLAIN ANALYZE too.
  EXPECT_EQ(ParseActualRows(trace->plan), analyze_rows);
}

INSTANTIATE_TEST_SUITE_P(BothStrategies, ExplainVsTraceTest,
                         ::testing::Values(
                             ExecOptions::Strategy::kMaterialized,
                             ExecOptions::Strategy::kPipelined),
                         [](const auto& info) {
                           return info.param ==
                                          ExecOptions::Strategy::kMaterialized
                                      ? "Materialized"
                                      : "Pipelined";
                         });

// --- Planner A/B on a churned relation -----------------------------------

TEST(PlannerChurnTest, JoinOrderStaysGoodAfterEraseChurn) {
  Engine engine;
  MutationBatch batch;
  for (int i = 0; i < 10; ++i) batch.Insert(StrCat("a(", i, ")"));
  for (int i = 0; i < 1000; ++i) {
    batch.Insert(StrCat("mid(", i % 500, ",", i, ")"));
  }
  // big/2 goes through heavy churn: 10k distinct keys inserted and erased
  // again, then 10k rows over just 5 keys. Before the staleness fix the
  // NDV sketch stayed saturated near 10k, making `big` look
  // ultra-selective (est ≈ 10 rows out) so the planner joined it before
  // `mid` — a 20000-row mistake at execution time.
  for (int i = 0; i < 10000; ++i) {
    batch.Insert(StrCat("big(", i, ",", i, ")"));
  }
  for (int i = 0; i < 10000; ++i) {
    batch.Erase(StrCat("big(", i, ",", i, ")"));
  }
  for (int i = 0; i < 10000; ++i) {
    batch.Insert(StrCat("big(", i % 5, ",", i, ")"));
  }
  Result<MutationBatch::ApplyReport> applied = engine.ApplyBatch(batch);
  ASSERT_TRUE(applied.ok()) << applied.status();
  EXPECT_EQ(applied->erased, 10000u);

  // With fresh stats: est(mid after a) = 10 * 1000/500 = 20 rows, while
  // est(big after a) = 10 * 10000/5 = 20000 rows — mid must come first.
  Result<std::string> plan =
      engine.ExplainStatement("out(A,W) := a(A) & mid(A,W) & big(A,B).");
  ASSERT_TRUE(plan.ok()) << plan.status();
  size_t mid_pos = plan->find("mid");
  size_t big_pos = plan->find("big");
  ASSERT_NE(mid_pos, std::string::npos);
  ASSERT_NE(big_pos, std::string::npos);
  EXPECT_LT(mid_pos, big_pos)
      << "planner joined the churned relation first:\n" << *plan;
}

}  // namespace
}  // namespace gluenail
