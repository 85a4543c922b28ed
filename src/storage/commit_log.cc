#include "src/storage/commit_log.h"

#include <system_error>

#include "src/common/fault_injector.h"
#include "src/common/strings.h"

namespace gluenail {

CommitLog::CommitLog(std::unique_ptr<Wal> wal,
                     const CommitLogOptions& options)
    : options_(options), wal_(std::move(wal)) {
  // Everything a freshly opened log holds was read back from its file.
  // Seeding from wal_->durable_lsn() instead would leave a record-less log
  // that starts past LSN 1 with appended_ > durable_ forever, and the pump
  // spinning on no-op syncs.
  appended_ = wal_->next_lsn() - 1;
  durable_ = appended_;
}

Result<std::unique_ptr<CommitLog>> CommitLog::Open(
    std::unique_ptr<Wal> wal, const CommitLogOptions& options) {
  std::unique_ptr<CommitLog> log(new CommitLog(std::move(wal), options));
  if (options.durability != DurabilityLevel::kGroupCommit) return log;
  try {
    if (FaultInjector::enabled() &&
        FaultInjector::Instance().ShouldFail(FaultOp::kThreadStart)) {
      throw std::system_error(
          std::make_error_code(std::errc::resource_unavailable_try_again),
          "injected fault");
    }
    log->pump_ = std::thread([raw = log.get()] { raw->Pump(); });
  } catch (const std::system_error& e) {
    return Status::ResourceExhausted(
        StrCat("cannot start the commit pump: ", e.what()));
  }
  return log;
}

CommitLog::~CommitLog() {
  if (pump_.joinable()) {
    {
      std::lock_guard<std::mutex> ql(mu_);
      stop_ = true;
    }
    pump_cv_.notify_one();
    pump_.join();
  }
  (void)Drain();
}

Result<CommitLog::Ticket> CommitLog::Append(const MutationBatch& batch) {
  Result<uint64_t> lsn = wal_->Append(batch);
  std::unique_lock<std::mutex> ql(mu_);
  if (!lsn.ok()) {
    broken_ = broken_ || wal_->broken();
    cv_.notify_all();
    return lsn.status();
  }
  if (*lsn > appended_) appended_ = *lsn;
  const Ticket ticket{*lsn, epoch_};
  if (options_.durability == DurabilityLevel::kSync) {
    // The per-batch baseline group commit is measured against: the caller
    // holds its writer lock across this fsync, so commits serialize.
    GLUENAIL_RETURN_NOT_OK(SyncLocked(ql));
  } else if (options_.durability == DurabilityLevel::kGroupCommit) {
    pump_cv_.notify_one();
  }
  return ticket;
}

Status CommitLog::SyncLocked(std::unique_lock<std::mutex>& ql) {
  cv_.wait(ql, [this] { return !leader_; });
  leader_ = true;
  const uint64_t durable_before = durable_.load(std::memory_order_relaxed);
  ql.unlock();
  Status synced = wal_->Sync();
  ql.lock();
  leader_ = false;
  const uint64_t durable_now = wal_->durable_lsn();
  if (durable_now > durable_before) {
    durable_.store(durable_now, std::memory_order_release);
    if (options_.group_size != nullptr) {
      options_.group_size->Observe(durable_now - durable_before);
    }
  }
  broken_ = broken_ || wal_->broken();
  cv_.notify_all();
  // The seat is free again: appends that landed while a drain held it
  // found the pump's predicate false and must not wait for a later nudge.
  pump_cv_.notify_one();
  return synced;
}

Status CommitLog::Await(const Ticket& ticket) {
  if (options_.durability == DurabilityLevel::kAsync) MaybeAsyncSync();
  if (options_.durability != DurabilityLevel::kGroupCommit) {
    return Status::OK();
  }
  // The pump acks on fsync cadence — around a hundred microseconds — so a
  // bounded yield-spin beats a futex park+wake: yielding hands the CPU
  // straight to the pump or a fellow committer. Park only if the spin
  // overruns a few fsyncs' worth of time (slow disk, overloaded box).
  constexpr auto kSpinCap = std::chrono::microseconds(1000);
  const auto spin_deadline = std::chrono::steady_clock::now() + kSpinCap;
  while (durable_lsn() < ticket.lsn &&
         std::chrono::steady_clock::now() < spin_deadline) {
    std::this_thread::yield();
  }
  std::unique_lock<std::mutex> ql(mu_);
  cv_.wait(ql, [this, &ticket] {
    return epoch_ != ticket.epoch || durable_lsn() >= ticket.lsn || broken_;
  });
  // A newer epoch means a checkpoint image captured the batch (it was
  // applied to memory before this wait): durability by other means.
  if (epoch_ != ticket.epoch || durable_lsn() >= ticket.lsn) {
    return Status::OK();
  }
  return Status::IoError(StrCat(
      "wal is broken; commit lsn=", ticket.lsn,
      " is applied in memory but NOT durable — checkpoint to heal"));
}

void CommitLog::LingerLocked(std::unique_lock<std::mutex>& ql) {
  if (options_.group_linger.count() <= 0) return;
  // Yield-spin rather than a timed cv wait: the arrivals being collected
  // land microseconds apart, far below what timed waits can resolve. The
  // grace window refreshes on every new append.
  constexpr auto kGrace = std::chrono::microseconds(5);
  const auto start = std::chrono::steady_clock::now();
  const auto cap = start + options_.group_linger;
  auto grace_end = start + kGrace;
  uint64_t group_end = appended_;
  while (!broken_) {
    const auto now = std::chrono::steady_clock::now();
    if (now >= cap || now >= grace_end) break;
    ql.unlock();
    std::this_thread::yield();
    ql.lock();
    if (appended_ > group_end) {
      group_end = appended_;
      grace_end = std::chrono::steady_clock::now() + kGrace;
    }
  }
}

void CommitLog::Pump() {
  std::unique_lock<std::mutex> ql(mu_);
  for (;;) {
    pump_cv_.wait(ql, [this] {
      return stop_ || (!broken_ && !leader_ && durable_lsn() < appended_);
    });
    if (stop_) return;
    LingerLocked(ql);
    (void)SyncLocked(ql);  // a failure surfaces to waiters as broken_
    // Straight back to the wait: commits that landed during the fsync make
    // the predicate true at once, so the in-flight fsync is the group
    // window and follower wakeups overlap the next fsync.
  }
}

void CommitLog::MaybeAsyncSync() {
  const int64_t now = std::chrono::duration_cast<std::chrono::nanoseconds>(
                          std::chrono::steady_clock::now().time_since_epoch())
                          .count();
  const int64_t interval =
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          options_.fsync_interval)
          .count();
  int64_t last = last_async_sync_ns_.load(std::memory_order_relaxed);
  if (now - last < interval) return;
  std::unique_lock<std::mutex> ql(mu_);
  // Decide the sync will run BEFORE claiming the interval: consuming it
  // and then skipping would stretch kAsync's worst-case un-synced window
  // toward two intervals. An fsync already in flight covers our append,
  // or the next committer retries.
  if (leader_ || broken_ || durable_lsn() >= appended_) return;
  if (!last_async_sync_ns_.compare_exchange_strong(
          last, now, std::memory_order_relaxed)) {
    return;  // another committer claimed this interval's sync
  }
  (void)SyncLocked(ql);  // a failure surfaces as broken on the next append
}

Status CommitLog::Drain() {
  std::unique_lock<std::mutex> ql(mu_);
  cv_.wait(ql, [this] { return !leader_; });
  if (!broken_ && durable_lsn() < appended_) {
    Status synced = SyncLocked(ql);
    if (!synced.ok()) return synced.WithContext("draining wal commits");
  }
  if (broken_) return Status::IoError("wal is broken; checkpoint to heal");
  return Status::OK();
}

Status CommitLog::Rotate() {
  (void)Drain();
  std::unique_lock<std::mutex> ql(mu_);
  cv_.wait(ql, [this] { return !leader_; });
  GLUENAIL_RETURN_NOT_OK(wal_->Rotate(wal_->next_lsn()));
  // Re-seed from the rotated log rather than promoting durable_ to
  // appended_: a failed fsync rolled next_lsn back, so the old watermarks
  // can sit above the new numbering, and an inflated durable_ would ack
  // new appends with no fsync ever issued.
  ++epoch_;
  appended_ = wal_->next_lsn() - 1;
  durable_.store(appended_, std::memory_order_release);
  broken_ = false;
  cv_.notify_all();
  return Status::OK();
}

}  // namespace gluenail
