/// \file bindings.h
/// \brief Binding records: the run-time form of supplementary relations.
///
/// A Record holds one value per variable slot of a statement (kNullTerm =
/// not yet bound). A RecordSet is a materialized supplementary relation
/// sup_i (paper §3.2), with a parallel group id per record once a
/// group_by has partitioned it (§3.3.1). Cascading group_bys refine ids.

#ifndef GLUENAIL_EXEC_BINDINGS_H_
#define GLUENAIL_EXEC_BINDINGS_H_

#include <cstdint>
#include <vector>

#include "src/common/strings.h"
#include "src/term/term_pool.h"

namespace gluenail {

using Record = std::vector<TermId>;

struct RecordSet {
  std::vector<Record> records;
  /// groups[i] is the group id of records[i]; empty set <=> one implicit
  /// group 0 for everything.
  std::vector<uint32_t> groups;
  /// Number of distinct group ids (1 before any group_by).
  uint32_t num_groups = 1;

  void Clear() {
    records.clear();
    groups.clear();
    num_groups = 1;
  }
  bool empty() const { return records.empty(); }
  size_t size() const { return records.size(); }
  uint32_t group(size_t i) const { return groups.empty() ? 0 : groups[i]; }

  void Add(Record rec, uint32_t group) {
    records.push_back(std::move(rec));
    groups.push_back(group);
  }
};

/// Removes duplicate (record, group) pairs in place, preserving first
/// occurrences and their order. Returns the number removed — §9's early
/// duplicate elimination statistic.
size_t DedupRecords(RecordSet* set);

/// group_by (§3.3.1): refines \p set's groups by the values in
/// \p key_slots, so a cascade of group_bys partitions ever finer. New ids
/// are dense and numbered in first-occurrence order.
void RefineGroups(RecordSet* set, const std::vector<int>& key_slots);

}  // namespace gluenail

#endif  // GLUENAIL_EXEC_BINDINGS_H_
