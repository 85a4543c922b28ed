/// \file snapshot.h
/// \brief Immutable point-in-time views of relations and databases.
///
/// A RelationSnapshot is a frozen copy of one relation's live tuples in
/// canonical term order, stamped with the relation's version() at capture
/// time. Snapshots are cheap in steady state: Relation caches the snapshot
/// it built for its current version and hands out the same shared_ptr until
/// the next mutation, so a read-mostly workload pays the copy once per
/// write, not once per read.
///
/// A DatabaseSnapshot is a consistent set of RelationSnapshots captured
/// together (under the engine's writer exclusion), so readers never observe
/// a torn multi-relation state. Both types are immutable after construction
/// and safe to share across threads; they remain valid after the source
/// Relation/Database mutates or is destroyed.

#ifndef GLUENAIL_STORAGE_SNAPSHOT_H_
#define GLUENAIL_STORAGE_SNAPSHOT_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/storage/tuple.h"

namespace gluenail {

class TermPool;

/// Frozen contents of one relation. `tuples` is sorted by the pool's
/// canonical term order (Relation::SortedTuples).
struct RelationSnapshot {
  std::string name;
  uint32_t arity = 0;
  /// Relation::version() at capture time.
  uint64_t version = 0;
  std::vector<Tuple> tuples;

  size_t size() const { return tuples.size(); }
  bool empty() const { return tuples.empty(); }
  /// Binary search over the canonical order.
  bool Contains(const TermPool& pool, RowView t) const;
};

/// A consistent set of relation snapshots keyed by (name term, arity).
class DatabaseSnapshot {
 public:
  size_t num_relations() const { return entries_.size(); }

  /// Returns the snapshot, or nullptr if the relation did not exist at
  /// capture time. The pointer stays valid as long as any copy of this
  /// DatabaseSnapshot is alive.
  const RelationSnapshot* Find(TermId name, uint32_t arity) const;

  /// Invokes \p fn for every captured relation (iteration order
  /// unspecified).
  void ForEach(const std::function<void(TermId name, uint32_t arity,
                                        const RelationSnapshot&)>& fn) const;

 private:
  friend class Database;

  static uint64_t PackKey(TermId name, uint32_t arity) {
    return (static_cast<uint64_t>(name) << 32) | arity;
  }

  std::unordered_map<uint64_t, std::shared_ptr<const RelationSnapshot>>
      entries_;
};

}  // namespace gluenail

#endif  // GLUENAIL_STORAGE_SNAPSHOT_H_
