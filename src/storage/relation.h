/// \file relation.h
/// \brief Duplicate-free, main-memory relations over ground tuples.
///
/// This is the core of the Section-10 back end: relations live in main
/// memory, support the `uniondiff` operator used by compiled recursive
/// NAIL! queries, and build hash indexes on demand under a pluggable policy
/// (see adaptive.h).
///
/// Storage layout (see docs/ARCHITECTURE.md, "Storage layout"): row data
/// lives once, contiguously, in an arity-strided TupleArena. Everything
/// else — the dedup set and every index — stores only 32-bit row ids and
/// resolves them through the arena, so inserting a tuple costs one arena
/// append and zero per-tuple heap allocations, and `row(id)` hands the
/// executors a borrowed RowView instead of a copy.
///
/// Concurrency: a Relation is single-writer. Mutations must be externally
/// serialized (the engine's writer lock does this); const methods —
/// Contains, SelectConst, iteration, version(), Snapshot() — are safe to
/// call from many threads as long as no mutation runs concurrently.
/// version() is an atomic counter so readers polling for staleness (NAIL!
/// memo invalidation, `unchanged(p)`) never see a torn increment.
///
/// Predicates never contain duplicates (paper §2), so Insert is a no-op on
/// an existing tuple and reports whether the relation changed — exactly the
/// information `repeat ... until unchanged(p)` loops need.

#ifndef GLUENAIL_STORAGE_RELATION_H_
#define GLUENAIL_STORAGE_RELATION_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/storage/adaptive.h"
#include "src/storage/index.h"
#include "src/storage/row_table.h"
#include "src/storage/snapshot.h"
#include "src/storage/stats.h"
#include "src/storage/tuple.h"
#include "src/storage/tuple_arena.h"

namespace gluenail {

class DeltaLog;

class Relation {
 public:
  Relation(std::string name, uint32_t arity);
  Relation(const Relation&) = delete;
  Relation& operator=(const Relation&) = delete;

  const std::string& name() const { return name_; }
  uint32_t arity() const { return arity_; }
  /// Number of live tuples.
  size_t size() const { return dedup_.size(); }
  bool empty() const { return dedup_.empty(); }

  /// Monotone counter bumped atomically by every successful mutation.
  /// Powers the `unchanged(p)` builtin (paper §4), NAIL! memo invalidation,
  /// and snapshot cache keys.
  uint64_t version() const { return version_.load(std::memory_order_acquire); }

  /// Inserts \p t; returns true iff the relation changed.
  bool Insert(RowView t);
  /// Erases \p t; returns true iff the relation changed.
  bool Erase(RowView t);
  bool Contains(RowView t) const;
  /// Removes all tuples (the effect of a `:=` with an empty body result).
  void Clear();

  /// Records every row that really changes from here on (Insert, Erase,
  /// Clear) into \p log under \p name. Attached while the relation is
  /// empty or the log invalid: the rows held now are not recorded. The EDB
  /// attaches its change journal this way to every relation it creates or
  /// adopts (delta_log.h).
  void AttachLog(DeltaLog* log, TermId name);

  // --- Row-level access for the executors -------------------------------

  /// Total physical rows, live or dead. Row ids are stable until Compact().
  uint32_t num_rows() const { return arena_.num_rows(); }
  bool row_live(uint32_t row_id) const { return live_[row_id]; }
  /// Borrowed view of the row's columns; valid until Clear()/Compact().
  RowView row(uint32_t row_id) const { return arena_.row(row_id); }

  /// Appends the ids of live rows whose \p mask columns equal \p key.
  ///
  /// This is the single entry point for keyed selection: it consults an
  /// existing index, or scans — and under IndexPolicy::kAdaptive it
  /// accounts the scan cost and converts to an index once the cumulative
  /// scanning reaches the modeled build cost (paper §10). Under
  /// kAlwaysIndex the index is built on first use. \p mask must be
  /// non-zero; full scans should iterate rows directly.
  ///
  /// \p visited, when non-null, accumulates the rows this selection had to
  /// look at — every physical row for a scan, the probe-chain length for
  /// an index lookup — which is what the executors charge against
  /// ResourceLimits::max_rows_scanned.
  void Select(ColumnMask mask, RowView key, std::vector<uint32_t>* out,
              uint64_t* visited = nullptr);

  /// Const selection that never builds indexes or updates statistics.
  void SelectConst(ColumnMask mask, RowView key, std::vector<uint32_t>* out,
                   uint64_t* visited = nullptr) const;

  // --- Batch-granular access (exec/vector/) ------------------------------

  /// The underlying arena: chunk geometry for the batch executor, which
  /// walks rows one 4096-row chunk at a time.
  const TupleArena& arena() const { return arena_; }

  /// Appends the ids of live rows in [\p begin, \p end) (clamped to
  /// num_rows()) — the batch executor's chunk-at-a-time row harvest, and
  /// the building block of the batched UnionDiff walk.
  void CollectLiveRows(uint32_t begin, uint32_t end,
                       std::vector<uint32_t>* out) const {
    if (end > num_rows()) end = num_rows();
    for (uint32_t r = begin; r < end; ++r) {
      if (live_[r]) out->push_back(r);
    }
  }

  /// Keyed selection into a caller-owned scratch buffer (cleared first),
  /// returned as a row-id span: the batch executor's probe entry points.
  /// Same semantics and \p visited accounting as Select / SelectConst.
  std::span<const uint32_t> SelectSpan(ColumnMask mask, RowView key,
                                       std::vector<uint32_t>* scratch,
                                       uint64_t* visited = nullptr) {
    scratch->clear();
    Select(mask, key, scratch, visited);
    return {scratch->data(), scratch->size()};
  }
  std::span<const uint32_t> SelectSpanConst(
      ColumnMask mask, RowView key, std::vector<uint32_t>* scratch,
      uint64_t* visited = nullptr) const {
    scratch->clear();
    SelectConst(mask, key, scratch, visited);
    return {scratch->data(), scratch->size()};
  }

  // --- Index management --------------------------------------------------

  const HashIndex* FindIndex(ColumnMask mask) const;
  /// Builds (if necessary) and returns the index on \p mask.
  HashIndex* EnsureIndex(ColumnMask mask);
  void set_index_policy(IndexPolicy policy) { policy_ = policy; }
  IndexPolicy index_policy() const { return policy_; }

  /// Incremental cardinality statistics (row count + per-column NDV),
  /// maintained on the Insert/Erase path — the planner's cost input.
  const RelationStats& stats() const { return stats_; }

  // --- Set operations ----------------------------------------------------

  /// The paper's `uniondiff` (§10, after [9]): inserts every tuple of
  /// \p src not already present, appending exactly the newly added tuples
  /// to \p delta (if non-null). Returns the number of tuples added.
  /// This one operator is what semi-naive loops need per iteration.
  size_t UnionDiff(const Relation& src, Relation* delta);

  /// Inserts every tuple of \p src; returns the number actually added.
  size_t UnionAll(const Relation& src);

  /// Replaces contents with a copy of \p src (arity must match), never
  /// probing the dedup table per row: when the source has no dead rows
  /// this copies whole arena chunks and its statistics; otherwise it
  /// appends the live rows without a dedup probe.
  void CopyFrom(const Relation& src);

  /// Live tuples in canonical (term-order) sorted order; for deterministic
  /// output and tests.
  std::vector<Tuple> SortedTuples(const TermPool& pool) const;

  /// Immutable snapshot of the current contents, keyed off version(): the
  /// same shared_ptr is returned until the next mutation, so repeated
  /// snapshots of an unchanged relation are O(1). Must not race with a
  /// mutation (the engine's writer lock guarantees this); the returned
  /// snapshot may outlive the relation.
  std::shared_ptr<const RelationSnapshot> Snapshot(const TermPool& pool) const;

  /// Drops dead rows and rebuilds indexes. Invalidates row ids.
  void Compact();

  // --- Iteration over live tuples ---------------------------------------

  class const_iterator {
   public:
    const_iterator(const Relation* rel, uint32_t pos) : rel_(rel), pos_(pos) {
      SkipDead();
    }
    RowView operator*() const { return rel_->row(pos_); }
    const_iterator& operator++() {
      ++pos_;
      SkipDead();
      return *this;
    }
    bool operator==(const const_iterator& o) const { return pos_ == o.pos_; }
    bool operator!=(const const_iterator& o) const { return pos_ != o.pos_; }

   private:
    void SkipDead() {
      while (pos_ < rel_->num_rows() && !rel_->live_[pos_]) ++pos_;
    }
    const Relation* rel_;
    uint32_t pos_;
  };

  const_iterator begin() const { return const_iterator(this, 0); }
  const_iterator end() const { return const_iterator(this, num_rows()); }

  /// Cumulative operation counters, reported through Engine statistics.
  /// Atomic (relaxed) because SelectConst/Contains update them from
  /// concurrent reader threads; atomic<uint64_t> converts implicitly on
  /// read, so counters().scan_rows etc. read like plain fields.
  struct Counters {
    std::atomic<uint64_t> scan_rows{0};     ///< rows visited by keyed scans
    std::atomic<uint64_t> index_lookups{0}; ///< keyed selections via index
    std::atomic<uint64_t> index_probe_rows{0};  ///< probe-chain rows walked
    std::atomic<uint64_t> indexes_built{0}; ///< indexes built (any policy)
    std::atomic<uint64_t> dedup_lookups{0}; ///< dedup-table lookups
    std::atomic<uint64_t> dedup_probes{0};  ///< dedup slots inspected
    std::atomic<uint64_t> stats_rebuilds{0};  ///< NDV sketch rebuilds
  };
  const Counters& counters() const { return counters_; }

  /// Current bytes held by the arena, the dedup table, and all indexes.
  size_t arena_bytes() const;

 private:
  void ScanSelect(ColumnMask mask, RowView key, std::vector<uint32_t>* out,
                  uint64_t* visited) const;
  /// Re-observes every live row into freshly cleared NDV sketches. Called
  /// once the erase debt crosses the NeedsSketchRebuild threshold (and on
  /// Compact, which walks the rows anyway), so delete/re-insert churn
  /// cannot leave the planner with saturated stale NDV estimates.
  void RebuildStatsSketches();
  /// Dedup lookup: live row id storing \p t, or RowIdTable::kNoRow.
  uint32_t FindRow(RowView t, uint64_t hash) const;
  /// Appends a row known to be absent: arena + dedup + indexes + version.
  void AppendNewRow(RowView t, uint64_t hash);

  /// True when a valid change journal is attached.
  bool Capturing() const;

  std::string name_;
  uint32_t arity_;
  std::atomic<uint64_t> version_{0};

  /// The attached change journal and this relation's name in it.
  DeltaLog* log_ = nullptr;
  TermId log_name_ = kNullTerm;

  /// Row data, stored exactly once.
  TupleArena arena_;
  std::vector<bool> live_;
  /// Row-id set hashing/comparing arena data directly — the dedup
  /// structure holds no tuple copies.
  RowIdTable dedup_;

  std::vector<std::unique_ptr<HashIndex>> indexes_;

  IndexPolicy policy_ = IndexPolicy::kAdaptive;
  AccessStats access_stats_;
  RelationStats stats_;
  mutable Counters counters_;

  /// Snapshot cache: valid while snap_cache_->version == version().
  mutable std::mutex snap_mu_;
  mutable std::shared_ptr<const RelationSnapshot> snap_cache_;
};

}  // namespace gluenail

#endif  // GLUENAIL_STORAGE_RELATION_H_
