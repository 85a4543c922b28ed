/// \file session.h
/// \brief Per-client-thread handles for concurrent query serving.
///
/// A Session is a lightweight handle onto an Engine — open one per client
/// thread (Engine::OpenSession) and use it for the thread's queries.
/// Read operations (Query, Call, RelationContents, Snapshot) take the
/// engine's lock *shared*: any number of sessions read in parallel, each
/// through its own private read-only executor, so they never contend on
/// executor state, never build indexes, and never observe a half-applied
/// write. If the NAIL! materialization is stale (the EDB changed), the
/// first reader transparently upgrades to the writer lock, refreshes, and
/// retries — later readers piggyback on the fresh state.
///
/// AddFact delegates to the Engine's writer path and serializes behind the
/// single-writer lock; other writes go through the Engine itself
/// (Engine::ExecuteStatement, Engine::ApplyBatch).
///
/// Sessions are cheap to copy and carry no state of their own; the Engine
/// must outlive every session. A single Session instance may be shared by
/// multiple threads, but the intended pattern is one per thread.

#ifndef GLUENAIL_API_SESSION_H_
#define GLUENAIL_API_SESSION_H_

#include <memory>
#include <string>
#include <vector>

#include "src/api/command.h"
#include "src/api/engine.h"

namespace gluenail {

class Session {
 public:
  /// The one dispatch point every front end shares (in-process callers,
  /// the REPL, and the network server): executes one Command and returns
  /// its Response. Reads go through this session's shared-lock read path;
  /// mutations serialize behind the engine's writer lock. Never throws;
  /// failures come back in Response::status. See src/api/command.h.
  Response Execute(const Command& cmd);

  /// Answer set of a conjunctive goal; shared-lock read path.
  Result<Engine::QueryResult> Query(std::string_view goal,
                                    const QueryOptions& options = {});

  /// Calls an exported procedure. The procedure must be side-effect-free
  /// (local and return relations only): a statement writing a shared
  /// relation fails with a runtime error under the read-only discipline.
  Result<std::vector<Tuple>> Call(std::string_view name,
                                  const std::vector<Tuple>& inputs);

  /// Sorted contents of an EDB relation or NAIL! predicate instance.
  Result<std::vector<Tuple>> RelationContents(std::string_view name_term,
                                              uint32_t arity);

  /// Immutable view of the EDB + IDB; never observes a torn write.
  Result<EngineSnapshot> Snapshot();

  // --- Writes (serialized behind the engine's writer lock) ---------------

  Status AddFact(std::string_view fact);

  // --- Observability -----------------------------------------------------

  /// Most recent explicitly traced query on this session (traces recorded
  /// with QueryOptions::trace land in the session's private ring, so
  /// concurrent sessions never see each other's traces). Null until the
  /// first traced query finishes.
  std::shared_ptr<const QueryTrace> last_trace() const {
    return ring_->Last();
  }
  TraceRing& trace_ring() { return *ring_; }

 private:
  friend class Engine;
  explicit Session(Engine* engine)
      : engine_(engine),
        ring_(std::make_shared<TraceRing>(
            engine->options_.trace_ring_capacity)) {}

  /// Acquires \p lock (shared) with the engine read-ready, upgrading to
  /// the writer lock to refresh stale state as needed. With \p req (a
  /// request of Engine::RunObserved) the refresh runs under its guardrails
  /// and its NAIL! counters are read first. On success the shared lock is
  /// held.
  Status EnterRead(std::shared_lock<std::shared_mutex>* lock,
                   Engine::Request* req = nullptr);

  Engine* engine_;
  /// Shared so Session stays cheap to copy (copies see the same ring).
  std::shared_ptr<TraceRing> ring_;
};

}  // namespace gluenail

#endif  // GLUENAIL_API_SESSION_H_
