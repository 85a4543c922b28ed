/// \file stats.h
/// \brief Incremental cardinality statistics for the cost-based planner.
///
/// Every Relation owns a RelationStats: an exact live-row count plus one
/// linear-counting sketch per column estimating the number of distinct
/// values (NDV) seen in that column. Maintenance is incremental — Insert
/// observes each column's TermId into its sketch (a handful of ns), Erase
/// only decrements the row count — so after deletions the NDV estimates
/// are upper bounds, which is the safe direction for a selectivity model
/// only while the drift stays modest. Once erases since the last rebuild
/// exceed half the live rows the owning Relation rebuilds the sketches
/// from the arena (Relation::Erase / Compact), so delete/re-insert churn
/// cannot leave the planner ordering joins off saturated stale NDVs.
///
/// The physical planner (plan/physical.h) consumes these through the
/// StatsProvider interface so the plan layer never depends on storage
/// headers.

#ifndef GLUENAIL_STORAGE_STATS_H_
#define GLUENAIL_STORAGE_STATS_H_

#include <array>
#include <cstdint>
#include <vector>

#include "src/storage/tuple.h"

namespace gluenail {

/// Point-in-time cardinality summary of one relation: live rows plus a
/// per-column distinct-value estimate. `ndv` entries are >= 1 whenever
/// `rows` > 0 so selectivity factors (1/ndv) are always well defined.
struct CardEstimate {
  double rows = 0;
  std::vector<double> ndv;
};

/// Linear-counting distinct-value sketch over TermIds (Whang et al.):
/// hash each observed value into a fixed bitmap; the estimate is
/// B * ln(B / empty_bits). 4096 bits keeps the relative error under ~4%
/// up to a few thousand distinct values and saturates gracefully above —
/// plenty of resolution for join-order decisions, at 512 bytes per column.
class ColumnNdvSketch {
 public:
  /// Folds one value into the sketch. Insert-only; duplicates are free.
  void Observe(TermId value);

  /// Estimated distinct count. Exactly 0 only when nothing was observed.
  double Estimate() const;

  void Clear();

 private:
  static constexpr uint32_t kBits = 4096;
  static constexpr uint32_t kWords = kBits / 64;

  std::array<uint64_t, kWords> words_{};
  uint32_t set_bits_ = 0;
};

/// Per-relation statistics, owned by Relation and updated on its mutation
/// path. Copyable so Relation::CopyFrom can transfer statistics wholesale.
class RelationStats {
 public:
  RelationStats() = default;
  explicit RelationStats(uint32_t arity) : columns_(arity) {}

  /// Called for every row actually added (post-dedup).
  void OnInsert(RowView t) {
    ++rows_;
    for (uint32_t c = 0; c < static_cast<uint32_t>(columns_.size()); ++c) {
      columns_[c].Observe(t[c]);
    }
  }

  /// Called for every row actually removed. Only the row count moves here:
  /// a bitmap sketch cannot un-observe a value, so each erase leaves stale
  /// bits behind and the NDV estimates drift upward. The erase debt is
  /// tracked so the owning Relation — the layer that *can* rescan — knows
  /// when the drift is bad enough to warrant a sketch rebuild
  /// (NeedsSketchRebuild); without that, delete/re-insert churn saturates
  /// the sketches and the planner mis-orders joins off NDVs that only grow.
  void OnErase() {
    if (rows_ > 0) --rows_;
    ++erased_since_rebuild_;
  }

  /// True when erases since the last rebuild exceed half the live rows:
  /// past that point the sketches count more dead values than a safe upper
  /// bound tolerates, and the O(rows) rescan is amortized against the
  /// erases that earned it.
  bool NeedsSketchRebuild() const {
    return erased_since_rebuild_ > 0 && erased_since_rebuild_ * 2 > rows_;
  }

  /// Clears the sketches (keeping the exact row count) and resets the
  /// erase debt; the caller must then ObserveForRebuild every live row.
  void BeginSketchRebuild() {
    for (auto& c : columns_) c.Clear();
    erased_since_rebuild_ = 0;
  }

  /// Re-observes one live row during a rebuild (sketches only — the row
  /// count is already exact).
  void ObserveForRebuild(RowView t) {
    for (uint32_t c = 0; c < static_cast<uint32_t>(columns_.size()); ++c) {
      columns_[c].Observe(t[c]);
    }
  }

  void Clear() {
    rows_ = 0;
    erased_since_rebuild_ = 0;
    for (auto& c : columns_) c.Clear();
  }

  uint64_t rows() const { return rows_; }
  uint64_t erased_since_rebuild() const { return erased_since_rebuild_; }

  /// Freezes the current state into a CardEstimate. NDV values are clamped
  /// into [1, rows] when the relation is non-empty.
  CardEstimate Estimate() const;

 private:
  uint64_t rows_ = 0;
  uint64_t erased_since_rebuild_ = 0;
  std::vector<ColumnNdvSketch> columns_;
};

/// The database a stored relation lives in: the EDB, or the IDB of NAIL!
/// memos and published HiLog instances. A stored relation is identified by
/// (store, name, arity).
enum class Store : uint8_t { kEdb, kIdb };

/// Planner-facing cardinality oracle. Implementations answer "how big is
/// relation (store, name, arity) right now?" without exposing storage
/// types to the plan layer. Returns false when the relation is unknown to
/// the provider; the planner then falls back to a configured default
/// cardinality.
class StatsProvider {
 public:
  virtual ~StatsProvider() = default;
  virtual bool Estimate(Store store, TermId name, uint32_t arity,
                        CardEstimate* out) const = 0;
  /// The live row count alone, without building an estimate's per-column
  /// NDVs: what a cached plan's drift check reads on every hit.
  virtual bool Rows(Store store, TermId name, uint32_t arity,
                    uint64_t* rows) const = 0;
};

}  // namespace gluenail

#endif  // GLUENAIL_STORAGE_STATS_H_
