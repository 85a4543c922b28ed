/// \file delta_log.h
/// \brief Captured per-relation EDB deltas for incremental view
/// maintenance (ROADMAP item 2; Brass & Stephan delta pipelines).
///
/// The engine's structured write path (Engine::ApplyBatch, which AddFact
/// and inline EDB loads use) records every tuple that actually changed an
/// EDB relation into this log as net insert/erase row sets. The NAIL!
/// refresh planner consumes them to run DRed maintenance instead of a
/// full recompute (src/nail/ivm.cc).
///
/// Validity is watermark-based: after each captured batch the log seals
/// itself at the EDB's (relation count, version-sum) snapshot. Relation
/// versions are bumped by *every* content change — Insert, Erase, Clear
/// of a non-empty relation, Compact, CopyFrom — so any mutation that
/// bypassed capture (Glue statements and procedures such as `++p`,
/// LoadProgram module facts, direct Relation calls) leaves the watermark
/// behind the live snapshot and the next refresh detects it and
/// recomputes from scratch. Recover and a replica bootstrap additionally
/// invalidate explicitly (belt and braces: a salvage recovery must never
/// serve memo rows derived from pre-recovery deltas).
///
/// Captured rows are *net* deltas against the base snapshot: an insert
/// that cancels a captured erase (or vice versa) removes the earlier
/// entry instead of accumulating both sides. Invariants the maintenance
/// algorithms rely on: erased ⊆ base, inserted ∩ base = ∅, and
/// current = base − erased ∪ inserted. Per-relation captures are capped
/// (Config::max_rows); an overflowing relation drops its row sets and is
/// marked, which forces the next refresh to full recompute.

#ifndef GLUENAIL_STORAGE_DELTA_LOG_H_
#define GLUENAIL_STORAGE_DELTA_LOG_H_

#include <cstdint>
#include <memory>
#include <unordered_map>

#include "src/storage/database.h"
#include "src/storage/relation.h"
#include "src/storage/tuple.h"

namespace gluenail {

/// The EDB's monotone (relation count, version-sum) snapshot — the same
/// pair NailEngine memoizes against.
struct EdbVersion {
  uint64_t relations = 0;
  uint64_t version_sum = 0;
  bool operator==(const EdbVersion& o) const {
    return relations == o.relations && version_sum == o.version_sum;
  }
  bool operator!=(const EdbVersion& o) const { return !(*this == o); }
};

/// Snapshots \p db's version pair (shared by the engine's sealing and the
/// NAIL! engine's staleness check).
EdbVersion SnapshotEdbVersion(const Database& db);

class DeltaLog {
 public:
  /// Net delta of one relation since the log's base snapshot.
  struct RelDelta {
    RelDelta(uint32_t arity)
        : inserted("$delta+", arity), erased("$delta-", arity) {}
    Relation inserted;
    Relation erased;
    /// The capture overflowed max_rows: row sets were discarded and the
    /// next refresh must recompute this relation's dependents fully.
    bool dropped = false;

    uint64_t rows() const { return inserted.size() + erased.size(); }
  };

  explicit DeltaLog(uint64_t max_rows_per_relation = 1u << 20)
      : max_rows_(max_rows_per_relation) {}

  /// Records a tuple that was actually inserted into / erased from the
  /// relation named \p name. No-ops while the log is invalid (nothing to
  /// maintain incrementally until a refresh rebases it).
  void CaptureInsert(TermId name, uint32_t arity, RowView row);
  void CaptureErase(TermId name, uint32_t arity, RowView row);

  /// Seals the captured state at \p watermark — call after each batch
  /// whose changes were all captured.
  void SealBatch(const EdbVersion& watermark) {
    if (valid_) watermark_ = watermark;
  }

  /// Drops everything and marks the log unusable until the next Rebase.
  void Invalidate() {
    valid_ = false;
    entries_.clear();
  }

  /// Called after a refresh: the memo now matches \p base, so deltas
  /// accumulate against it from here on.
  void Rebase(const EdbVersion& base) {
    entries_.clear();
    base_ = base;
    watermark_ = base;
    valid_ = true;
  }

  bool valid() const { return valid_; }
  const EdbVersion& base() const { return base_; }
  const EdbVersion& watermark() const { return watermark_; }

  /// True when every EDB change between \p base and \p now went through
  /// capture: the log is valid, accumulates against exactly \p base, and
  /// its watermark matches the live snapshot \p now.
  bool Covers(const EdbVersion& base, const EdbVersion& now) const {
    return valid_ && base_ == base && watermark_ == now;
  }

  const RelDelta* Find(TermId name, uint32_t arity) const {
    auto it = entries_.find(Key(name, arity));
    return it == entries_.end() ? nullptr : it->second.get();
  }

  template <typename F>  // F(TermId name, uint32_t arity, const RelDelta&)
  void ForEach(F&& f) const {
    for (const auto& [key, delta] : entries_) {
      f(static_cast<TermId>(key >> 32), static_cast<uint32_t>(key), *delta);
    }
  }

  bool any_dropped() const {
    for (const auto& [key, delta] : entries_) {
      if (delta->dropped) return true;
    }
    return false;
  }

 private:
  static uint64_t Key(TermId name, uint32_t arity) {
    return (static_cast<uint64_t>(name) << 32) | arity;
  }
  RelDelta* Entry(TermId name, uint32_t arity);

  uint64_t max_rows_;
  bool valid_ = false;
  EdbVersion base_;
  EdbVersion watermark_;
  std::unordered_map<uint64_t, std::unique_ptr<RelDelta>> entries_;
};

}  // namespace gluenail

#endif  // GLUENAIL_STORAGE_DELTA_LOG_H_
