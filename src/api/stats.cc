#include "src/api/stats.h"

#include <functional>

#include "src/common/strings.h"
#include "src/obs/metrics.h"

namespace gluenail {

StorageStats CollectStorageStats(const Database& edb, const Database& idb) {
  StorageStats out;
  auto add = [&out](TermId, uint32_t, Relation* rel) {
    ++out.relations;
    out.live_tuples += rel->size();
    out.arena_bytes += rel->arena_bytes();
    const Relation::Counters& c = rel->counters();
    out.dedup_lookups += c.dedup_lookups.load(std::memory_order_relaxed);
    out.dedup_probes += c.dedup_probes.load(std::memory_order_relaxed);
    out.scan_rows += c.scan_rows.load(std::memory_order_relaxed);
    out.index_lookups += c.index_lookups.load(std::memory_order_relaxed);
    out.index_probe_rows +=
        c.index_probe_rows.load(std::memory_order_relaxed);
    out.indexes_built += c.indexes_built.load(std::memory_order_relaxed);
    out.stats_rebuilds += c.stats_rebuilds.load(std::memory_order_relaxed);
  };
  edb.ForEach(add);
  idb.ForEach(add);
  return out;
}

namespace {

/// One storage pull. The field is a template argument so the callback
/// captures just the two databases and fits std::function's inline
/// buffer: engines are created often, and a heap cell per metric
/// fragments the heap.
template <uint64_t StorageStats::* kField, typename T = uint64_t>
std::function<T()> StoragePull(const Database* edb, const Database* idb) {
  return [edb, idb] {
    return static_cast<T>(CollectStorageStats(*edb, *idb).*kField);
  };
}

}  // namespace

void RegisterStorageMetrics(MetricsRegistry* registry, const TermPool* pool,
                            const Database* edb, const Database* idb) {
  registry->RegisterPullGauge("gluenail_termpool_terms",
                              "terms interned in the pool", [pool] {
                                return static_cast<int64_t>(pool->size());
                              });
  registry->RegisterPullGauge(
      "gluenail_storage_relations", "relations across the EDB and IDB",
      StoragePull<&StorageStats::relations, int64_t>(edb, idb));
  registry->RegisterPullGauge(
      "gluenail_storage_live_tuples", "live tuples across every relation",
      StoragePull<&StorageStats::live_tuples, int64_t>(edb, idb));
  registry->RegisterPullGauge(
      "gluenail_storage_arena_bytes",
      "bytes held by arenas, dedup tables, indexes",
      StoragePull<&StorageStats::arena_bytes, int64_t>(edb, idb));
  registry->RegisterPullCounter(
      "gluenail_storage_scan_rows_total", "rows visited by full scans",
      StoragePull<&StorageStats::scan_rows>(edb, idb));
  registry->RegisterPullCounter(
      "gluenail_storage_index_lookups_total", "keyed index lookups",
      StoragePull<&StorageStats::index_lookups>(edb, idb));
  registry->RegisterPullCounter(
      "gluenail_storage_index_probe_rows_total",
      "rows walked along index probe chains",
      StoragePull<&StorageStats::index_probe_rows>(edb, idb));
  registry->RegisterPullCounter(
      "gluenail_storage_indexes_built_total", "hash indexes built",
      StoragePull<&StorageStats::indexes_built>(edb, idb));
  registry->RegisterPullCounter(
      "gluenail_storage_dedup_lookups_total",
      "dedup-table lookups (insert and contains probes)",
      StoragePull<&StorageStats::dedup_lookups>(edb, idb));
  registry->RegisterPullCounter(
      "gluenail_storage_dedup_probes_total", "dedup-table probe steps",
      StoragePull<&StorageStats::dedup_probes>(edb, idb));
  registry->RegisterPullCounter(
      "gluenail_storage_stats_rebuilds_total",
      "NDV-sketch rebuilds (erase churn or compaction)",
      StoragePull<&StorageStats::stats_rebuilds>(edb, idb));
}

std::string FormatCompileStats(const CompileStats& stats) {
  return StrCat(stats.modules, " module(s), ", stats.procedures,
                " procedure(s) + ", stats.generated_procedures,
                " generated, ", stats.statements, " statement plan(s), ",
                stats.nail_rules, " NAIL! rule(s) in ", stats.nail_strata,
                " strata (", stats.compile_seconds, "s)");
}

std::string FormatExecStats(const ExecStats& stats) {
  return StrCat(stats.statements, " statements, ", stats.records_produced,
                " records, ", stats.pipeline_breaks, " pipeline breaks, ",
                stats.duplicates_removed, " dups removed, ",
                stats.proc_calls, " proc calls, ", stats.loop_iterations,
                " loop iterations, ", stats.head_tuples, " head tuples, ",
                stats.match_rows, " match rows, ", stats.compare_rows,
                " compare rows, ", stats.batch_segments,
                " batch segments");
}

std::string FormatStorageStats(const StorageStats& stats) {
  double probes_per_lookup =
      stats.dedup_lookups == 0
          ? 0.0
          : static_cast<double>(stats.dedup_probes) /
                static_cast<double>(stats.dedup_lookups);
  return StrCat(stats.relations, " relations, ", stats.live_tuples,
                " tuples, ", stats.arena_bytes, " arena bytes, ",
                stats.dedup_lookups, " dedup lookups, ", stats.dedup_probes,
                " dedup probes (", probes_per_lookup, " per lookup), ",
                stats.scan_rows,
                " scan rows, ", stats.index_lookups, " index lookups, ",
                stats.index_probe_rows, " probe rows, ", stats.indexes_built,
                " indexes built, ", stats.stats_rebuilds, " stats rebuilds");
}

}  // namespace gluenail
