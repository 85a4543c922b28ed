/// \file database.h
/// \brief The Extensional Data Base: a catalog of relations keyed by
/// (name term, arity).
///
/// In Glue-Nail a predicate name is itself a term (HiLog, paper §5): the
/// relation `students(cs99)` has the compound term students(cs99) as its
/// name. Keying the catalog by TermId makes parameterized predicate
/// families first-class and makes run-time predicate dereferencing (a
/// subgoal whose predicate position is a bound variable) a single map
/// lookup.

#ifndef GLUENAIL_STORAGE_DATABASE_H_
#define GLUENAIL_STORAGE_DATABASE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/common/result.h"
#include "src/storage/relation.h"
#include "src/storage/snapshot.h"
#include "src/term/term_pool.h"

namespace gluenail {

class Database {
 public:
  /// The pool must outlive the database.
  explicit Database(TermPool* pool) : pool_(pool) {}
  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  TermPool* pool() const { return pool_; }

  /// Finds or creates the relation named by \p name with \p arity. A newly
  /// created relation receives the database's default index policy and
  /// the change journal, if one is attached.
  Relation* GetOrCreate(TermId name, uint32_t arity);

  /// Attaches \p log to every relation created or adopted from now on, so
  /// each row that really changes is recorded there (the engine's EDB
  /// change journal, delta_log.h). Called while the database is empty;
  /// Drop records nothing.
  void set_delta_log(DeltaLog* log);

  /// Returns the relation, or nullptr if it does not exist.
  Relation* Find(TermId name, uint32_t arity) const;

  /// Removes a relation entirely.
  Status Drop(TermId name, uint32_t arity);

  /// Moves every relation of \p staged (same pool) into this database and
  /// leaves \p staged empty. A relation this database lacks moves over
  /// whole (without dead rows), taking this database's default index
  /// policy and change journal; any other is unioned into the relation
  /// here, which stays the same object, so pointers to it and its version
  /// counter survive.
  void MergeFrom(Database* staged);

  /// Invokes \p fn for every relation (iteration order unspecified).
  void ForEach(
      const std::function<void(TermId name, uint32_t arity, Relation*)>& fn)
      const;

  /// All (name, relation) pairs of the given arity — used when a HiLog
  /// predicate variable must range over every known predicate name.
  std::vector<std::pair<TermId, Relation*>> RelationsWithArity(
      uint32_t arity) const;

  size_t num_relations() const { return relations_.size(); }

  /// Captures an immutable snapshot of every relation. Per-relation
  /// snapshots are cached by version, so this is cheap when little has
  /// changed. Must not race with mutations (engine writer lock).
  DatabaseSnapshot Snapshot() const;

  /// Policy applied to relations created after this call.
  void set_default_index_policy(IndexPolicy policy) {
    default_policy_ = policy;
  }

 private:
  struct Key {
    TermId name;
    uint32_t arity;
    bool operator==(const Key& o) const {
      return name == o.name && arity == o.arity;
    }
  };
  struct KeyHash {
    size_t operator()(const Key& k) const {
      return static_cast<size_t>(
          HashCombine(HashCombine(0x51ed270b2f6e69c5ULL, k.name), k.arity));
    }
  };

  TermPool* pool_;
  std::unordered_map<Key, std::unique_ptr<Relation>, KeyHash> relations_;
  IndexPolicy default_policy_ = IndexPolicy::kAdaptive;
  DeltaLog* log_ = nullptr;
};

/// A map key for the stored relation (store, name, arity).
inline uint64_t StoredRelationKey(Store store, TermId name, uint32_t arity) {
  return (static_cast<uint64_t>(name) << 32) |
         (static_cast<uint64_t>(arity) << 1) | (store == Store::kIdb ? 1 : 0);
}

/// StatsProvider over an (EDB, IDB) database pair: answers cardinality
/// queries from live relation statistics of the store asked for. Reads
/// must be externally serialized against writers (the planner runs under
/// the engine's writer/reader lock, which covers this).
class DatabasePairStatsProvider : public StatsProvider {
 public:
  DatabasePairStatsProvider(const Database* edb, const Database* idb)
      : edb_(edb), idb_(idb) {}

  bool Estimate(Store store, TermId name, uint32_t arity,
                CardEstimate* out) const override {
    const Relation* rel = Find(store, name, arity);
    if (rel != nullptr) *out = rel->stats().Estimate();
    return rel != nullptr;
  }
  bool Rows(Store store, TermId name, uint32_t arity,
            uint64_t* rows) const override {
    const Relation* rel = Find(store, name, arity);
    if (rel != nullptr) *rows = rel->stats().rows();
    return rel != nullptr;
  }

 private:
  const Relation* Find(Store store, TermId name, uint32_t arity) const {
    return (store == Store::kEdb ? edb_ : idb_)->Find(name, arity);
  }

  const Database* edb_;
  const Database* idb_;
};

}  // namespace gluenail

#endif  // GLUENAIL_STORAGE_DATABASE_H_
