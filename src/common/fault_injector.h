/// \file fault_injector.h
/// \brief Deterministic fault injection for robustness testing.
///
/// A process-wide seam that the storage layer's failure-prone operations
/// consult: file writes, fsyncs, renames (persistence.cc), arena chunk
/// allocations (tuple_arena.h) and the commit pump's thread start
/// (commit_log.cc). Tests arm the injector to fail the Nth
/// subsequent operation of a kind, or seed a deterministic pseudo-random
/// schedule, then assert that every injected failure yields a clean error
/// status, an intact pre-existing on-disk file, and a still-usable engine
/// (tests/fault_injection_test.cc).
///
/// The disarmed fast path is a single relaxed atomic load, so production
/// code pays nothing; Arm*/Disarm and the per-operation bookkeeping are
/// mutex-serialized, making schedules deterministic even when several
/// threads hit the seams.

#ifndef GLUENAIL_COMMON_FAULT_INJECTOR_H_
#define GLUENAIL_COMMON_FAULT_INJECTOR_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <new>
#include <string_view>

#include "src/common/status.h"

namespace gluenail {

/// Operation kinds the injector can fail.
enum class FaultOp : int {
  kWrite = 0,     ///< a file write in the persistence or WAL layer
  kFsync = 1,     ///< an fsync before the atomic rename / WAL group commit
  kRename = 2,    ///< the rename that publishes a saved file or rotated log
  kAlloc = 3,     ///< a tuple-arena chunk allocation
  kTruncate = 4,  ///< a WAL ftruncate (torn-tail or failed-append rollback)
  kThreadStart = 5,  ///< starting the group-commit pump thread
};
inline constexpr int kNumFaultOps = 6;

std::string_view FaultOpName(FaultOp op);

class FaultInjector {
 public:
  static FaultInjector& Instance();

  /// Disarmed fast path for the seams: one relaxed load, no lock.
  static bool enabled() {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Arms a one-shot trigger: the \p nth (1-based) operation of kind
  /// \p op issued after this call fails; later ones succeed again.
  void ArmNth(FaultOp op, uint64_t nth);

  /// Arms a deterministic pseudo-random schedule: every operation of any
  /// kind draws from an LCG seeded with \p seed and fails when the draw
  /// is divisible by \p period. The same seed always produces the same
  /// failure schedule.
  void ArmSeeded(uint64_t seed, uint64_t period);

  /// Disarms every trigger and resets all counters.
  void Disarm();

  /// Operations of kind \p op observed since the last Disarm().
  uint64_t operations(FaultOp op) const;
  /// Failures injected into kind \p op since the last Disarm().
  uint64_t injected(FaultOp op) const;

  /// Records one operation of kind \p op and reports whether it must
  /// fail. Only call when enabled() — the seams guard on it.
  bool ShouldFail(FaultOp op);

  /// The arena seam: simulates allocation failure exactly like a real
  /// out-of-memory condition, by throwing std::bad_alloc. The engine
  /// converts it to Status::ResourceExhausted at the query boundary.
  static void MaybeFailAlloc() {
    if (enabled() && Instance().ShouldFail(FaultOp::kAlloc)) {
      throw std::bad_alloc();
    }
  }

 private:
  FaultInjector() = default;

  mutable std::mutex mu_;
  /// Absolute operation count at which kind i fails next; 0 = not armed.
  uint64_t trigger_[kNumFaultOps] = {};
  uint64_t ops_[kNumFaultOps] = {};
  uint64_t injected_[kNumFaultOps] = {};
  bool seeded_ = false;
  uint64_t lcg_ = 0;
  uint64_t period_ = 0;

  static std::atomic<bool> enabled_;
};

/// Status-returning seam for the persistence layer: OK when disarmed or
/// not scheduled to fail, otherwise an IoError naming the operation.
Status InjectFault(FaultOp op, std::string_view what);

}  // namespace gluenail

#endif  // GLUENAIL_COMMON_FAULT_INJECTOR_H_
