/// \file commit_log.h
/// \brief The commit pipeline: a Wal plus the machinery that turns an
/// appended MutationBatch record into an ack that keeps the configured
/// durability promise (DurabilityLevel).
///
/// A commit is Append (under the caller's writer lock) then Await (after
/// the caller released it):
///  * kSync fsyncs inside Append, one batch at a time;
///  * kGroupCommit appends wake a dedicated pump thread, the only
///    group-commit leader: it issues back-to-back fsyncs, so commits that
///    land during one fsync are absorbed into the next, and an adaptive
///    linger (group_linger) grows groups further. Await spins, then parks,
///    until the durable LSN covers the ticket;
///  * kAsync acks at once; Await piggybacks a background fsync at most once
///    per fsync_interval.
///
/// Lock protocol: the caller's writer lock (Engine::state_mu_, outermost)
/// -> CommitLog::mu_ -> the Wal's own mutex (innermost). Whoever fsyncs —
/// the pump, a kAsync piggyback, a Drain, or kSync's Append — holds the
/// *leader seat* (claimed under mu_), never mu_ across the fsync and never
/// the writer lock. So Drain and Rotate, called with the writer lock held,
/// can wait for the seat without deadlock, and no fsync is ever in flight
/// on a file Rotate closes.

#ifndef GLUENAIL_STORAGE_COMMIT_LOG_H_
#define GLUENAIL_STORAGE_COMMIT_LOG_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>

#include "src/common/result.h"
#include "src/obs/metrics.h"
#include "src/storage/mutation_batch.h"
#include "src/storage/wal.h"

namespace gluenail {

struct CommitLogOptions {
  /// kAsync, kSync or kGroupCommit (kNone needs no log).
  DurabilityLevel durability = DurabilityLevel::kGroupCommit;
  /// kAsync: minimum spacing between piggybacked fsyncs.
  std::chrono::microseconds fsync_interval{500};
  /// kGroupCommit: cap on the pump's pre-fsync linger (0 disables it).
  std::chrono::microseconds group_linger{50};
  /// Observes the batches made durable per fsync; may be null.
  Histogram* group_size = nullptr;
};

class CommitLog {
 public:
  /// What Append hands back and Await redeems. LSNs from different epochs
  /// are not comparable: a failed fsync rolls the log's next LSN back, so
  /// after a Rotate new LSNs can collide with old ones.
  struct Ticket {
    uint64_t lsn = 0;
    uint64_t epoch = 0;
  };

  /// Takes ownership of \p wal and, under kGroupCommit, starts the pump.
  /// If the pump thread cannot start, the log is closed again and the
  /// failure returned.
  static Result<std::unique_ptr<CommitLog>> Open(
      std::unique_ptr<Wal> wal, const CommitLogOptions& options);

  /// Stops the pump, then drains (best effort) and closes the log. No
  /// Append or Await may be in flight.
  ~CommitLog();
  CommitLog(const CommitLog&) = delete;
  CommitLog& operator=(const CommitLog&) = delete;

  /// Appends \p batch. Under kSync the record is fsynced before this
  /// returns; a failed append or fsync returns the error. Safe to call
  /// concurrently, but never concurrently with Rotate.
  Result<Ticket> Append(const MutationBatch& batch);

  /// Returns once the ticket's ack promise holds: kGroupCommit waits until
  /// the record is durable, or until a Rotate ended its epoch (the caller's
  /// checkpoint image holds the batch); kAsync piggybacks an interval-gated
  /// fsync; kSync has nothing left to do. A broken log fails the wait.
  Status Await(const Ticket& ticket);

  /// fsyncs every appended record. A broken log returns its error without
  /// issuing an fsync.
  Status Drain();

  /// Drains (best effort: a broken log is what rotation heals), swaps in a
  /// fresh log continuing the LSN sequence, re-seeds the durability
  /// watermarks from it and starts a new epoch, releasing every waiter on
  /// an older one. The caller must have saved a checkpoint image holding
  /// every appended batch first, and must not Append concurrently.
  Status Rotate();

  /// Highest LSN known durable in the current epoch.
  uint64_t durable_lsn() const {
    return durable_.load(std::memory_order_acquire);
  }
  const Wal& wal() const { return *wal_; }

 private:
  CommitLog(std::unique_ptr<Wal> wal, const CommitLogOptions& options);

  /// The one fsync routine: waits for the leader seat, claims it, fsyncs
  /// with \p ql released, folds the result into the watermarks, observes
  /// the group size and wakes the waiters. \p ql holds mu_ on entry and
  /// on return.
  Status SyncLocked(std::unique_lock<std::mutex>& ql);
  /// The pump's pre-fsync linger: yield-spins with mu_ dropped between
  /// checks, extending while new appends keep arriving.
  void LingerLocked(std::unique_lock<std::mutex>& ql);
  /// The kGroupCommit leader thread.
  void Pump();
  void MaybeAsyncSync();

  const CommitLogOptions options_;
  std::unique_ptr<Wal> wal_;

  /// Guards everything below except the atomics, which are written under
  /// it but may be read without it.
  std::mutex mu_;
  /// Signals the leader seat freeing up and the watermarks moving.
  std::condition_variable cv_;
  /// The pump's wake channel, nudged by kGroupCommit appends.
  std::condition_variable pump_cv_;
  uint64_t appended_ = 0;  ///< highest LSN appended
  /// Highest LSN fsynced. Atomic so Await's spin polls it without taking
  /// mu_: spinners hammering mu_ would starve the pump's post-fsync update
  /// they are waiting for.
  std::atomic<uint64_t> durable_{0};
  bool broken_ = false;  ///< sticky mirror of wal_->broken()
  bool leader_ = false;  ///< the leader seat: someone owns the fsync
  uint64_t epoch_ = 0;   ///< bumped by Rotate
  bool stop_ = false;    ///< tells the pump to exit
  /// kAsync's interval gate (steady_clock ns), checked before taking mu_.
  std::atomic<int64_t> last_async_sync_ns_{0};
  /// kGroupCommit only; declared last so it starts after, and is joined
  /// before, everything it reads.
  std::thread pump_;
};

}  // namespace gluenail

#endif  // GLUENAIL_STORAGE_COMMIT_LOG_H_
