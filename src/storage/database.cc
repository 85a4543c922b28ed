#include "src/storage/database.h"

#include <cassert>

namespace gluenail {

Relation* Database::GetOrCreate(TermId name, uint32_t arity) {
  Key key{name, arity};
  auto it = relations_.find(key);
  if (it != relations_.end()) return it->second.get();
  auto rel = std::make_unique<Relation>(pool_->ToString(name), arity);
  rel->set_index_policy(default_policy_);
  if (log_ != nullptr) rel->AttachLog(log_, name);
  Relation* out = rel.get();
  relations_.emplace(key, std::move(rel));
  return out;
}

void Database::set_delta_log(DeltaLog* log) {
  assert(relations_.empty());
  log_ = log;
}

Relation* Database::Find(TermId name, uint32_t arity) const {
  auto it = relations_.find(Key{name, arity});
  return it == relations_.end() ? nullptr : it->second.get();
}

Status Database::Drop(TermId name, uint32_t arity) {
  auto it = relations_.find(Key{name, arity});
  if (it == relations_.end()) {
    return Status::NotFound(StrCat("no relation ", pool_->ToString(name), "/",
                                   arity, " to drop"));
  }
  relations_.erase(it);
  return Status::OK();
}

void Database::MergeFrom(Database* staged) {
  for (auto& [key, rel] : staged->relations_) {
    auto [it, moved] = relations_.try_emplace(key, std::move(rel));
    if (moved) {
      it->second->set_index_policy(default_policy_);
      // Erases staged after an insert (a replayed log) leave dead rows; a
      // union would not have copied them, so the move drops them too.
      if (it->second->num_rows() != it->second->size()) it->second->Compact();
      if (log_ != nullptr) it->second->AttachLog(log_, key.name);
    } else {
      it->second->UnionAll(*rel);
    }
  }
  staged->relations_.clear();
}

void Database::ForEach(
    const std::function<void(TermId, uint32_t, Relation*)>& fn) const {
  for (const auto& [key, rel] : relations_) {
    fn(key.name, key.arity, rel.get());
  }
}

DatabaseSnapshot Database::Snapshot() const {
  DatabaseSnapshot snap;
  snap.entries_.reserve(relations_.size());
  for (const auto& [key, rel] : relations_) {
    snap.entries_.emplace(DatabaseSnapshot::PackKey(key.name, key.arity),
                          rel->Snapshot(*pool_));
  }
  return snap;
}

std::vector<std::pair<TermId, Relation*>> Database::RelationsWithArity(
    uint32_t arity) const {
  std::vector<std::pair<TermId, Relation*>> out;
  for (const auto& [key, rel] : relations_) {
    if (key.arity == arity) out.emplace_back(key.name, rel.get());
  }
  return out;
}

}  // namespace gluenail
