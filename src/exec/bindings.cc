#include "src/exec/bindings.h"

#include "src/storage/row_table.h"

namespace gluenail {

size_t DedupRecords(RecordSet* set) {
  std::vector<Record>& recs = set->records;
  const size_t n = recs.size();
  if (n < 2) return 0;
  // Kept records are compacted to the front, and the table holds their
  // compacted indexes, so a probe compares against a record where it now
  // lives. Position i is read before anything is moved into it.
  auto hash_of = [set](uint32_t i) {
    uint64_t h = set->group(i);
    for (TermId v : set->records[i]) h = HashCombine(h, v);
    return h;
  };
  RowIdTable seen;
  seen.Reserve(n, hash_of);
  uint32_t kept = 0;
  for (uint32_t i = 0; i < n; ++i) {
    const uint32_t g = set->group(i);
    const uint64_t h = hash_of(i);
    auto same = [&](uint32_t k) {
      return set->group(k) == g && recs[k] == recs[i];
    };
    if (seen.Find(h, same) != RowIdTable::kNoRow) continue;
    if (kept != i) {
      recs[kept] = std::move(recs[i]);
      if (!set->groups.empty()) set->groups[kept] = g;
    }
    seen.Insert(h, kept, hash_of);
    ++kept;
  }
  recs.resize(kept);
  if (!set->groups.empty()) set->groups.resize(kept);
  return n - kept;
}

void RefineGroups(RecordSet* set, const std::vector<int>& key_slots) {
  const std::vector<Record>& recs = set->records;
  // One table entry per distinct (old group, key): the index of its first
  // record, whose new id every later record of that key copies.
  auto hash_of = [&](uint32_t i) {
    uint64_t h = set->group(i);
    for (int slot : key_slots) {
      h = HashCombine(h, recs[i][static_cast<size_t>(slot)]);
    }
    return h;
  };
  RowIdTable firsts;
  std::vector<uint32_t> ids(recs.size());
  uint32_t next = 0;
  for (uint32_t i = 0; i < recs.size(); ++i) {
    const uint64_t h = hash_of(i);
    uint32_t first = firsts.Find(h, [&](uint32_t f) {
      if (set->group(f) != set->group(i)) return false;
      for (int slot : key_slots) {
        auto c = static_cast<size_t>(slot);
        if (recs[f][c] != recs[i][c]) return false;
      }
      return true;
    });
    if (first == RowIdTable::kNoRow) {
      firsts.Insert(h, i, hash_of);
      ids[i] = next++;
    } else {
      ids[i] = ids[first];
    }
  }
  set->groups = std::move(ids);
  set->num_groups = next == 0 ? 1 : next;
}

}  // namespace gluenail
