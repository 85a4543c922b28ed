/// \file index.h
/// \brief Hash indexes over column subsets of a relation — copy-free.
///
/// A HashIndex stores only row ids: an open-addressing table of chain
/// heads (one per distinct key) and a per-row `next` link forming the
/// chain of rows sharing that key. Key bytes are never materialized —
/// hashing and comparison project the masked columns straight out of the
/// owning relation's TupleArena, and probes compare against the caller's
/// key span (the executors' reusable scratch buffer).

#ifndef GLUENAIL_STORAGE_INDEX_H_
#define GLUENAIL_STORAGE_INDEX_H_

#include <bit>
#include <cstdint>
#include <vector>

#include "src/storage/row_table.h"
#include "src/storage/tuple.h"
#include "src/storage/tuple_arena.h"

namespace gluenail {

/// Bitmask of indexed columns; bit i set means column i is part of the key.
/// Relations are limited to 32 columns, far beyond any real program.
using ColumnMask = uint32_t;

/// Extracts the key (columns of \p mask, ascending) from \p row into \p key.
void ExtractKey(ColumnMask mask, RowView row, Tuple* key);

/// Hash of \p row's \p mask columns; equals HashRow of the extracted key.
inline uint64_t HashProjected(ColumnMask mask, RowView row) {
  uint64_t h = 0x9e3779b97f4a7c15ULL;
  for (uint32_t m = mask; m != 0; m &= m - 1) {
    h = HashCombine(h, row[static_cast<size_t>(std::countr_zero(m))]);
  }
  return h;
}

/// True iff \p row's \p mask columns (ascending) equal the packed \p key.
inline bool ProjectedEquals(ColumnMask mask, RowView row, RowView key) {
  size_t k = 0;
  for (uint32_t m = mask; m != 0; m &= m - 1) {
    if (row[static_cast<size_t>(std::countr_zero(m))] != key[k++]) {
      return false;
    }
  }
  return true;
}

/// \brief A hash multimap from projected keys to row-id chains, maintained
/// incrementally by the owning Relation on every insert and erase. Reads
/// row data exclusively through the relation's arena.
class HashIndex {
 public:
  explicit HashIndex(ColumnMask mask) : mask_(mask) {}

  ColumnMask mask() const { return mask_; }

  /// Adds \p row_id under the key projected from its arena row.
  void Add(const TupleArena& arena, uint32_t row_id);
  /// Unlinks \p row_id from its key's chain (no-op if absent).
  void Remove(const TupleArena& arena, uint32_t row_id);
  /// Appends all row ids matching \p key (the mask's columns, ascending)
  /// to \p out. Returns the number of chain rows visited — the probe cost
  /// the caller charges against ResourceLimits::max_rows_scanned, so an
  /// index-heavy query is accounted like the scan it replaced.
  size_t Find(const TupleArena& arena, RowView key,
              std::vector<uint32_t>* out) const;

  /// Bytes allocated for slots and chain links.
  size_t allocated_bytes() const;

 private:
  ColumnMask mask_;
  /// key-hash → head row id of the chain for that key.
  RowIdTable heads_;
  /// chain_next_[row] = next row with the same key, or kNoChain. Sized to
  /// the highest row id ever added.
  std::vector<uint32_t> chain_next_;

  static constexpr uint32_t kNoChain = 0xFFFFFFFFu;
};

}  // namespace gluenail

#endif  // GLUENAIL_STORAGE_INDEX_H_
