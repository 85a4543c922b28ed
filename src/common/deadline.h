/// \file deadline.h
/// \brief Query guardrails: deadlines, cancellation tokens, resource
/// budgets, and the ExecControl bundle threaded through the executors.
///
/// A production engine cannot let one runaway recursive query take the
/// process down (cf. the LDL++ retrospective: resource control separated
/// deployable deductive databases from prototypes). Three cooperating
/// mechanisms bound a query:
///
///  * Deadline — a wall-clock point after which evaluation aborts with
///    Status::Cancelled ("deadline exceeded");
///  * CancelToken — a shared flag another thread flips to abort an
///    in-flight query with Status::Cancelled;
///  * ResourceLimits — tuple-count and arena-byte budgets checked against
///    the materialized IDB; exceeding one aborts with
///    Status::ResourceExhausted instead of OOM-ing.
///
/// The three are bundled into an ExecControl that the Engine builds from
/// QueryOptions and hands (borrowed, per query) to the executors and the
/// semi-naive fixpoint. Checks are cooperative: the fixpoint loop checks
/// once per iteration, the executors at every op boundary and every few
/// thousand scanned rows, so an abort lands within one fixpoint iteration.
/// All state an aborted query may have half-built (partial NAIL!
/// materializations) is memo-invalidated, so the session stays usable.

#ifndef GLUENAIL_COMMON_DEADLINE_H_
#define GLUENAIL_COMMON_DEADLINE_H_

#include <atomic>
#include <chrono>
#include <memory>

#include "src/common/status.h"
#include "src/common/strings.h"

namespace gluenail {

/// A wall-clock evaluation bound. Default-constructed deadlines are
/// infinite and cost nothing to check (no clock read).
class Deadline {
 public:
  Deadline() = default;

  static Deadline After(std::chrono::nanoseconds d) {
    Deadline out;
    out.has_ = true;
    out.tp_ = std::chrono::steady_clock::now() + d;
    return out;
  }

  bool infinite() const { return !has_; }
  bool expired() const {
    return has_ && std::chrono::steady_clock::now() >= tp_;
  }

 private:
  bool has_ = false;
  std::chrono::steady_clock::time_point tp_{};
};

/// A copyable cancellation handle. A default-constructed token is inert
/// (never cancelled); Create() makes one with shared state that any copy
/// can trip from any thread.
class CancelToken {
 public:
  CancelToken() = default;

  static CancelToken Create() {
    CancelToken out;
    out.flag_ = std::make_shared<std::atomic<bool>>(false);
    return out;
  }

  /// True when this token carries shared state (i.e. can be cancelled).
  bool valid() const { return flag_ != nullptr; }
  void RequestCancel() const {
    if (flag_ != nullptr) flag_->store(true, std::memory_order_release);
  }
  bool cancelled() const {
    return flag_ != nullptr && flag_->load(std::memory_order_acquire);
  }

 private:
  std::shared_ptr<std::atomic<bool>> flag_;
};

/// Evaluation budgets; 0 means unlimited. Both are checked against the
/// materialized IDB (storage + delta relations) during fixpoint
/// evaluation — the accounting the budgets bound is the same one
/// Engine::storage_stats() reports.
struct ResourceLimits {
  /// Bound on tuples materialized in the IDB during evaluation.
  uint64_t max_tuples = 0;
  /// Bound on bytes held by IDB tuple arenas, dedup tables, and indexes.
  uint64_t max_arena_bytes = 0;
  /// Bound on rows visited while evaluating one query: full-scan rows plus
  /// index probe-chain rows, so an index-heavy query cannot dodge the
  /// budget by never scanning.
  uint64_t max_rows_scanned = 0;

  bool unlimited() const {
    return max_tuples == 0 && max_arena_bytes == 0 && max_rows_scanned == 0;
  }
};

/// The per-query control block the Engine threads through the executors.
/// Borrowed (never owned) by every executor that works for the query;
/// outlives the query evaluation it guards.
struct ExecControl {
  Deadline deadline;
  CancelToken cancel;
  ResourceLimits limits;
  /// The query's one running total of visited rows, which
  /// max_rows_scanned bounds, and the part of it charged since the last
  /// full check. Every executor working for the query charges here.
  uint64_t rows_scanned = 0;
  uint64_t rows_unchecked = 0;

  /// Cancellation + deadline; the cheap check inner loops run.
  Status Check() const {
    if (cancel.cancelled()) {
      return Status::Cancelled("query cancelled");
    }
    if (deadline.expired()) {
      return Status::Cancelled("query deadline exceeded");
    }
    return Status::OK();
  }

  Status CheckTuples(uint64_t tuples) const {
    if (limits.max_tuples != 0 && tuples > limits.max_tuples) {
      return Status::ResourceExhausted(
          StrCat("tuple budget exceeded: ", tuples, " tuples materialized, ",
                 "limit ", limits.max_tuples));
    }
    return Status::OK();
  }

  Status CheckRowsScanned(uint64_t rows) const {
    if (limits.max_rows_scanned != 0 && rows > limits.max_rows_scanned) {
      return Status::ResourceExhausted(
          StrCat("row scan budget exceeded: ", rows, " rows visited, ",
                 "limit ", limits.max_rows_scanned));
    }
    return Status::OK();
  }

  Status CheckArenaBytes(uint64_t bytes) const {
    if (limits.max_arena_bytes != 0 && bytes > limits.max_arena_bytes) {
      return Status::ResourceExhausted(
          StrCat("arena byte budget exceeded: ", bytes, " bytes held, ",
                 "limit ", limits.max_arena_bytes));
    }
    return Status::OK();
  }
};

}  // namespace gluenail

#endif  // GLUENAIL_COMMON_DEADLINE_H_
