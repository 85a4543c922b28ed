/// \file stats.h
/// \brief Compile-time and aggregate engine statistics.

#ifndef GLUENAIL_API_STATS_H_
#define GLUENAIL_API_STATS_H_

#include <cstdint>
#include <string>

#include "src/exec/executor.h"

namespace gluenail {

class MetricsRegistry;

struct CompileStats {
  uint64_t modules = 0;
  uint64_t procedures = 0;          ///< user procedures
  uint64_t generated_procedures = 0;///< NAIL! strata + driver
  uint64_t statements = 0;          ///< compiled statement plans
  uint64_t nail_rules = 0;
  uint64_t nail_predicates = 0;
  uint64_t nail_strata = 0;
  double compile_seconds = 0;
};

/// Aggregate storage-layer counters over every EDB and IDB relation
/// (Relation::counters() plus current arena footprints).
struct StorageStats {
  uint64_t relations = 0;
  uint64_t live_tuples = 0;
  /// Bytes currently held by tuple arenas, dedup tables, and indexes.
  uint64_t arena_bytes = 0;
  /// Dedup-table lookups (insert and contains probes) and the slots they
  /// inspected: their ratio is the mean probe length, ~1-2 for a healthy
  /// table.
  uint64_t dedup_lookups = 0;
  uint64_t dedup_probes = 0;
  uint64_t scan_rows = 0;
  uint64_t index_lookups = 0;
  /// Rows walked along index probe chains (hash-bucket collisions plus
  /// true key matches) — the index-side complement of scan_rows.
  uint64_t index_probe_rows = 0;
  uint64_t indexes_built = 0;
  /// NDV-sketch rebuilds triggered by erase churn or compaction.
  uint64_t stats_rebuilds = 0;
};

/// Sums StorageStats over every relation of \p edb and \p idb. Callers
/// hold the engine lock in any mode: the walk reads relation sizes and
/// atomic counters only.
StorageStats CollectStorageStats(const Database& edb, const Database& idb);

/// Registers gluenail_termpool_terms and the gluenail_storage_* pulls.
/// \p pool, \p edb and \p idb must outlive \p registry; exports run
/// under the engine's shared lock.
void RegisterStorageMetrics(MetricsRegistry* registry, const TermPool* pool,
                            const Database* edb, const Database* idb);

/// One-line human-readable summary (README quickstart prints this).
std::string FormatCompileStats(const CompileStats& stats);
std::string FormatExecStats(const ExecStats& stats);
std::string FormatStorageStats(const StorageStats& stats);

}  // namespace gluenail

#endif  // GLUENAIL_API_STATS_H_
