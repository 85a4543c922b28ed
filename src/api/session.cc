#include "src/api/session.h"

namespace gluenail {

Status Session::EnterRead(std::shared_lock<std::shared_mutex>* lock,
                          Engine::Request* req) {
  // Freshness retry loop: probe under a shared lock; if the engine is not
  // read-ready (no program linked yet, or the NAIL! memo is stale),
  // release, refresh under the writer lock, and re-probe. Another writer
  // can slip in between the two locks, hence the loop; it converges
  // because refreshes leave the engine read-ready and writers are finite.
  for (int attempt = 0; attempt < 64; ++attempt) {
    lock->lock();
    // Counted before any refresh this read pays for, under a lock every
    // refresh excludes.
    if (attempt == 0 && req != nullptr) {
      req->CountFrom(engine_->nail_engine_.get());
    }
    if (engine_->ReadReadyLocked()) return Status::OK();
    lock->unlock();
    {
      std::unique_lock<std::shared_mutex> writer(engine_->state_mu_);
      GLUENAIL_RETURN_NOT_OK(engine_->PrepareForReadLocked(
          req != nullptr ? req->control : nullptr));
    }
  }
  return Status::RuntimeError(
      "session read could not reach a quiescent state (writer livelock?)");
}

Result<Engine::QueryResult> Session::Query(std::string_view goal,
                                           const QueryOptions& options) {
  return engine_->QueryFor(this, goal, options);
}

Result<std::vector<Tuple>> Session::Call(std::string_view name,
                                         const std::vector<Tuple>& inputs) {
  return engine_->CallFor(this, name, inputs);
}

Result<std::vector<Tuple>> Session::RelationContents(
    std::string_view name_term, uint32_t arity) {
  std::shared_lock<std::shared_mutex> lock(engine_->state_mu_,
                                           std::defer_lock);
  GLUENAIL_RETURN_NOT_OK(EnterRead(&lock));
  return engine_->RelationContentsLocked(name_term, arity);
}

Result<EngineSnapshot> Session::Snapshot() {
  std::shared_lock<std::shared_mutex> lock(engine_->state_mu_,
                                           std::defer_lock);
  GLUENAIL_RETURN_NOT_OK(EnterRead(&lock));
  return engine_->SnapshotLocked();
}

Status Session::AddFact(std::string_view fact) {
  return engine_->AddFact(fact);
}

}  // namespace gluenail
