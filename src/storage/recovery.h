/// \file recovery.h
/// \brief Crash recovery: checkpoint load + WAL tail replay.
///
/// The durable on-disk state of an engine is two files in its data
/// directory: a checkpoint (the v2 EDB format SaveDatabaseToFile writes)
/// and a WAL of MutationBatch records appended since that checkpoint was
/// rotated in. Recovery rebuilds the database by loading the checkpoint
/// and replaying the log in LSN order.
///
/// Replay is idempotent: batch ops are set-level inserts/erases, and the
/// last op touching an element wins, so a log tail that overlaps what the
/// checkpoint already contains (a crash between checkpoint save and log
/// rotation) replays to the identical state. That is why no separate
/// checkpoint-LSN manifest is needed — the log's own start_lsn is enough.
///
/// Damage handling mirrors the persistence layer's RecoveryMode:
///  * a torn *final* record (crashed append) is tolerated by both modes —
///    replay stops at the last good record and reports the bytes dropped;
///  * corruption with valid records *after* it fails kStrict, while
///    kSalvage replays the prefix plus every later record the resync scan
///    could validate, and flags the log for rotation (needs_reset).

#ifndef GLUENAIL_STORAGE_RECOVERY_H_
#define GLUENAIL_STORAGE_RECOVERY_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "src/common/result.h"
#include "src/storage/database.h"
#include "src/storage/persistence.h"

namespace gluenail {

class MetricsRegistry;

/// Process-wide recovery activity, exported through the engine's metrics
/// registry (global because recovery is a free function, like the
/// persistence counters).
struct RecoveryCounters {
  std::atomic<uint64_t> recoveries{0};
  std::atomic<uint64_t> failures{0};
  std::atomic<uint64_t> records_replayed{0};
  std::atomic<uint64_t> records_salvaged{0};
  std::atomic<uint64_t> torn_bytes{0};
};

RecoveryCounters& GlobalRecoveryCounters();
/// Registers the gluenail_recovery_* pulls over GlobalRecoveryCounters().
void RegisterRecoveryMetrics(MetricsRegistry* registry);

struct RecoveryOptions {
  RecoveryMode mode = RecoveryMode::kStrict;
};

struct RecoveryReport {
  bool checkpoint_found = false;
  LoadReport checkpoint;
  bool wal_found = false;
  uint64_t wal_start_lsn = 1;
  uint64_t records_replayed = 0;
  uint64_t ops_applied = 0;
  /// Records recovered past a corrupt region (kSalvage only).
  uint64_t records_salvaged = 0;
  /// Trailing bytes discarded as a torn final record.
  uint64_t torn_bytes = 0;
  /// Highest LSN applied; a fresh log should start at last_lsn + 1.
  uint64_t last_lsn = 0;
  /// The log had damage beyond a torn tail: the caller must checkpoint
  /// and rotate to a fresh log rather than keep appending to this one.
  bool needs_reset = false;
  /// Human-readable notes: what was missing, truncated, or dropped.
  std::vector<std::string> notes;

  std::string Summary() const;
};

/// Rebuilds \p db from \p checkpoint_path + \p wal_path. Facts merge into
/// \p db (callers wanting a from-scratch rebuild clear it first — the
/// engine does, in place, so relation versions stay monotone). A missing
/// checkpoint or log is fine (noted, not an error): a fresh data
/// directory recovers to an empty database.
Result<RecoveryReport> RecoverDatabase(Database* db, TermPool* pool,
                                       const std::string& checkpoint_path,
                                       const std::string& wal_path,
                                       const RecoveryOptions& options = {});

}  // namespace gluenail

#endif  // GLUENAIL_STORAGE_RECOVERY_H_
