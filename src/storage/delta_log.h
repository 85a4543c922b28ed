/// \file delta_log.h
/// \brief The EDB change journal: captured per-relation net deltas for
/// incremental view maintenance (Brass & Stephan delta pipelines; DRed).
///
/// The engine attaches its one log to the EDB Database, which attaches it
/// to every relation it creates or adopts. Relation::Insert, Erase and
/// Clear record each row that really changes, so every EDB write is
/// captured whichever layer makes it: ApplyBatch and the EDB loads,
/// replica apply, Glue statements and procedures (`:=`, `+=[K]`, `++p`,
/// HiLog writes). The NAIL! refresh planner consumes the deltas to run
/// DRed maintenance instead of a full recompute (src/nail/ivm.cc), and a
/// memo is fresh while the log is valid and nets to no change.
///
/// An invalid log captures nothing; a refresh rebases it. Recover and a
/// replica bootstrap invalidate it before they swap the EDB, and
/// LoadProgram before it inserts module facts, so those writes are never
/// captured and the next refresh recomputes in full.
///
/// Captured rows are *net* deltas against the base: an insert that
/// cancels a captured erase (or vice versa) removes the earlier entry
/// instead of accumulating both sides. Invariants the maintenance
/// algorithms rely on: erased ⊆ base, inserted ∩ base = ∅, and
/// current = base − erased ∪ inserted. Per-relation captures are capped
/// (the constructor's max rows); an overflowing relation drops its row
/// sets and is marked, which forces the next refresh to full recompute.

#ifndef GLUENAIL_STORAGE_DELTA_LOG_H_
#define GLUENAIL_STORAGE_DELTA_LOG_H_

#include <cstdint>
#include <memory>
#include <unordered_map>

#include "src/storage/relation.h"
#include "src/storage/tuple.h"

namespace gluenail {

class DeltaLog {
 public:
  /// Net delta of one relation since the last Rebase.
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

  /// Drops everything and marks the log unusable until the next Rebase.
  void Invalidate() {
    valid_ = false;
    entries_.clear();
  }

  /// Called after a refresh: the memo now matches the live EDB, so deltas
  /// accumulate against it from here on.
  void Rebase() {
    entries_.clear();
    valid_ = true;
  }

  bool valid() const { return valid_; }

  /// True when the EDB holds what it held at the last Rebase: the log is
  /// valid and every captured delta nets to nothing. O(changed relations).
  bool Unchanged() const {
    if (!valid_) return false;
    for (const auto& [key, delta] : entries_) {
      if (delta->dropped || delta->rows() != 0) return false;
    }
    return true;
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
  std::unordered_map<uint64_t, std::unique_ptr<RelDelta>> entries_;
};

}  // namespace gluenail

#endif  // GLUENAIL_STORAGE_DELTA_LOG_H_
