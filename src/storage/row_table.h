/// \file row_table.h
/// \brief Open-addressing hash table over row ids; keys live in the arena.
///
/// A RowIdTable stores nothing but 32-bit row ids: the key hash and
/// equality are supplied per call by the owner (Relation, HashIndex, or an
/// executor barrier op), which resolves a row id to its key through its own
/// storage. That makes the table the copy-free replacement for
/// `unordered_map<Tuple, ...>` — no duplicate tuple keys, no per-node
/// allocation, linear probing over a power-of-two slot array.
///
/// The owner's hash is a HashCombine chain over small dense TermIds, whose
/// low bits barely change from key to key. The table therefore mixes every
/// hash with Mix64 before masking it to a home slot; without that, dense
/// keys pile into a few long probe clusters.
///
/// Deletion uses tombstones; they are recycled by the next rehash (growth
/// keeps slots at most ~70% occupied by live entries + tombstones).

#ifndef GLUENAIL_STORAGE_ROW_TABLE_H_
#define GLUENAIL_STORAGE_ROW_TABLE_H_

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/common/strings.h"

namespace gluenail {

class RowIdTable {
 public:
  static constexpr uint32_t kNoRow = 0xFFFFFFFFu;
  static constexpr uint32_t kTombstone = 0xFFFFFFFEu;

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  void Clear() {
    slots_.clear();
    size_ = 0;
    used_ = 0;
  }

  /// Returns the stored row id whose key matches, or kNoRow. \p eq is
  /// called as eq(row_id) on candidate slots; \p probes (optional)
  /// accumulates the number of slots inspected.
  template <typename EqFn>
  uint32_t Find(uint64_t hash, EqFn&& eq, uint64_t* probes = nullptr) const {
    if (slots_.empty()) return kNoRow;
    size_t mask = slots_.size() - 1;
    size_t i = Home(hash, mask);
    uint64_t n = 0;
    while (true) {
      ++n;
      uint32_t s = slots_[i];
      if (s == kNoRow) break;
      if (s != kTombstone && eq(s)) {
        if (probes != nullptr) *probes += n;
        return s;
      }
      i = (i + 1) & mask;
    }
    if (probes != nullptr) *probes += n;
    return kNoRow;
  }

  /// Mutable pointer to the slot whose entry matches \p eq, or nullptr.
  /// Overwriting it with a row id of the SAME key is allowed (chain-head
  /// rotation); changing the key through it would corrupt probing.
  template <typename EqFn>
  uint32_t* FindSlot(uint64_t hash, EqFn&& eq) {
    if (slots_.empty()) return nullptr;
    size_t mask = slots_.size() - 1;
    size_t i = Home(hash, mask);
    while (true) {
      uint32_t s = slots_[i];
      if (s == kNoRow) return nullptr;
      if (s != kTombstone && eq(s)) return &slots_[i];
      i = (i + 1) & mask;
    }
  }

  /// Inserts \p row, whose key must not already be present. \p hash_of is
  /// called as hash_of(row_id) when growth forces a rehash of stored rows.
  template <typename HashFn>
  void Insert(uint64_t hash, uint32_t row, HashFn&& hash_of) {
    assert(row < kTombstone);
    if ((used_ + 1) * 10 >= slots_.size() * 7) {
      Rehash(hash_of);
    }
    size_t mask = slots_.size() - 1;
    size_t i = Home(hash, mask);
    while (slots_[i] != kNoRow && slots_[i] != kTombstone) {
      i = (i + 1) & mask;
    }
    if (slots_[i] == kNoRow) ++used_;  // tombstone reuse keeps used_ flat
    slots_[i] = row;
    ++size_;
  }

  /// Removes the entry matching \p eq; returns the removed row id or
  /// kNoRow if absent.
  template <typename EqFn>
  uint32_t Erase(uint64_t hash, EqFn&& eq) {
    if (slots_.empty()) return kNoRow;
    size_t mask = slots_.size() - 1;
    size_t i = Home(hash, mask);
    while (true) {
      uint32_t s = slots_[i];
      if (s == kNoRow) return kNoRow;
      if (s != kTombstone && eq(s)) {
        slots_[i] = kTombstone;
        --size_;
        return s;
      }
      i = (i + 1) & mask;
    }
  }

  /// Pre-sizes for \p n entries (used by bulk loads: Compact, CopyFrom).
  template <typename HashFn>
  void Reserve(size_t n, HashFn&& hash_of) {
    size_t want = 16;
    while (n * 10 >= want * 7) want <<= 1;
    if (want > slots_.size()) Grow(want, hash_of);
  }

  /// Invokes fn(row_id) for every stored entry (unspecified order).
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (uint32_t s : slots_) {
      if (s != kNoRow && s != kTombstone) fn(s);
    }
  }

  size_t allocated_bytes() const {
    return slots_.capacity() * sizeof(uint32_t);
  }

 private:
  static size_t Home(uint64_t hash, size_t mask) {
    return static_cast<size_t>(Mix64(hash)) & mask;
  }

  template <typename HashFn>
  void Rehash(HashFn&& hash_of) {
    // Grow only when live entries (not tombstones) demand it; otherwise
    // rebuild at the same size to flush tombstones.
    size_t want = slots_.empty() ? 16 : slots_.size();
    if ((size_ + 1) * 10 >= want * 7) want <<= 1;
    Grow(want, hash_of);
  }

  template <typename HashFn>
  void Grow(size_t new_cap, HashFn&& hash_of) {
    std::vector<uint32_t> old = std::move(slots_);
    slots_.assign(new_cap, kNoRow);
    size_t mask = new_cap - 1;
    for (uint32_t s : old) {
      if (s == kNoRow || s == kTombstone) continue;
      size_t i = Home(hash_of(s), mask);
      while (slots_[i] != kNoRow) i = (i + 1) & mask;
      slots_[i] = s;
    }
    used_ = size_;
  }

  std::vector<uint32_t> slots_;
  size_t size_ = 0;  ///< live entries
  size_t used_ = 0;  ///< live entries + tombstones
};

}  // namespace gluenail

#endif  // GLUENAIL_STORAGE_ROW_TABLE_H_
