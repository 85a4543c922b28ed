#include "src/storage/index.h"

#include <algorithm>
#include <bit>

namespace gluenail {

void ExtractKey(ColumnMask mask, RowView row, Tuple* key) {
  key->clear();
  for (size_t i = 0; i < row.size(); ++i) {
    if (mask & (1u << i)) key->push_back(row[i]);
  }
}

void HashIndex::Add(const TupleArena& arena, uint32_t row_id) {
  if (chain_next_.size() <= row_id) {
    chain_next_.resize(row_id + 1, kNoChain);
  }
  RowView row = arena.row(row_id);
  uint64_t h = HashProjected(mask_, row);
  uint32_t* slot = heads_.FindSlot(h, [&](uint32_t head) {
    RowView other = arena.row(head);
    for (uint32_t m = mask_; m != 0; m &= m - 1) {
      size_t c = static_cast<size_t>(std::countr_zero(m));
      if (row[c] != other[c]) return false;
    }
    return true;
  });
  if (slot != nullptr) {
    // Push-front onto the existing chain; the slot's hash is unchanged
    // because old head and new head share the projected key.
    chain_next_[row_id] = *slot;
    *slot = row_id;
    return;
  }
  chain_next_[row_id] = kNoChain;
  heads_.Insert(h, row_id, [&](uint32_t r) {
    return HashProjected(mask_, arena.row(r));
  });
}

void HashIndex::Remove(const TupleArena& arena, uint32_t row_id) {
  if (row_id >= chain_next_.size()) return;
  RowView row = arena.row(row_id);
  uint64_t h = HashProjected(mask_, row);
  uint32_t* slot = heads_.FindSlot(h, [&](uint32_t head) {
    RowView other = arena.row(head);
    for (uint32_t m = mask_; m != 0; m &= m - 1) {
      size_t c = static_cast<size_t>(std::countr_zero(m));
      if (row[c] != other[c]) return false;
    }
    return true;
  });
  if (slot == nullptr) return;
  if (*slot == row_id) {
    uint32_t next = chain_next_[row_id];
    if (next == kNoChain) {
      heads_.Erase(h, [&](uint32_t head) { return head == row_id; });
    } else {
      *slot = next;  // same key, hash invariant preserved
    }
    return;
  }
  uint32_t prev = *slot;
  uint32_t cur = chain_next_[prev];
  while (cur != kNoChain) {
    if (cur == row_id) {
      chain_next_[prev] = chain_next_[cur];
      return;
    }
    prev = cur;
    cur = chain_next_[cur];
  }
}

size_t HashIndex::Find(const TupleArena& arena, RowView key,
                       std::vector<uint32_t>* out) const {
  uint64_t h = HashRow(key);
  uint32_t head = heads_.Find(h, [&](uint32_t r) {
    return ProjectedEquals(mask_, arena.row(r), key);
  });
  if (head == RowIdTable::kNoRow) return 0;
  size_t first = out->size();
  for (uint32_t r = head; r != kNoChain; r = chain_next_[r]) {
    out->push_back(r);
  }
  // Chains are push-front (newest first); emit in insertion (ascending
  // row id) order to preserve the pre-arena executor iteration order.
  std::reverse(out->begin() + static_cast<ptrdiff_t>(first), out->end());
  return out->size() - first;
}

size_t HashIndex::allocated_bytes() const {
  return heads_.allocated_bytes() +
         chain_next_.capacity() * sizeof(uint32_t);
}

}  // namespace gluenail
