/// \file recovery.h
/// \brief The durable EDB: crash recovery (checkpoint load + WAL tail
/// replay) and the data directory that owns the log's lifecycle.
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
///
/// DataDir is the one owner of those files. Its Recover stages the rebuild
/// in a scratch database and opens the log from the same single read and
/// scan of wal.log; only then does the new log replace the open one, and
/// the caller swaps the staged image in. A failed Recover changes nothing.
/// With durability on, only Recover opens the log, so no write can be
/// acked unlogged and no checkpoint can overwrite an image the engine
/// never loaded.

#ifndef GLUENAIL_STORAGE_RECOVERY_H_
#define GLUENAIL_STORAGE_RECOVERY_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/result.h"
#include "src/storage/commit_log.h"
#include "src/storage/database.h"
#include "src/storage/mutation_batch.h"
#include "src/storage/persistence.h"

namespace gluenail {

class MetricsRegistry;

struct RecoveryReport {
  bool checkpoint_found = false;
  LoadReport checkpoint;
  bool wal_found = false;
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

/// One consistent (checkpoint image, covered LSN) pair, for bootstrapping
/// a replica whose requested LSN was rotated away. The image is the
/// checkpoint file's bytes; covers_lsn is the last LSN folded into it
/// (the log's start_lsn - 1).
struct CheckpointImage {
  uint64_t covers_lsn = 0;
  std::string bytes;
};

/// An engine's data directory: `checkpoint.facts`, `wal.log` and the
/// commit log over the WAL. The owner's writer lock guards it: Recover,
/// Commit and Checkpoint run under it exclusively, the accessors under at
/// least a shared hold (a commit Awaits the log after releasing it; see
/// commit_log.h).
class DataDir {
 public:
  /// \p dir empty: no data directory (Recover and Checkpoint refuse).
  /// \p log_options.durability kNone keeps no log: Recover only loads.
  DataDir(std::string dir, RecoveryMode mode, CommitLogOptions log_options);
  DataDir(const DataDir&) = delete;
  DataDir& operator=(const DataDir&) = delete;

  /// Registers the gluenail_wal_* metrics (the pulls over whichever log is
  /// open, the commit counters and the group-commit histogram),
  /// gluenail_recovery_* and gluenail_checkpoints_total. Call once, before
  /// the first Recover.
  void RegisterMetrics(MetricsRegistry* registry);

  /// The one write-ahead commit of \p ops, already resolved (so a
  /// malformed batch is never logged and never half-applied). Under the
  /// caller's exclusive \p lock it appends \p record, the same ops as
  /// fact text, to the open log and applies \p ops to \p db
  /// (MutationBatch::ApplyResolved); then it releases
  /// \p lock for the ack wait, so other writers append while a group's
  /// fsync runs. With durability off it only applies, and \p record is
  /// not read.
  Result<MutationBatch::ApplyReport> Commit(
      const MutationBatch::Resolved& ops, const MutationBatch& record,
      std::unique_lock<std::shared_mutex>& lock, Database* db);

  /// Stages a rebuild into \p staged (empty, interning into \p pool) from
  /// one read and scan of wal.log; then, with durability on, opens the log
  /// from that scan — after the salvage reset (the staged image saved as
  /// the checkpoint, then a fresh log) if it found damage past a torn
  /// tail. Only then does the new log replace the open one; the caller
  /// swaps \p staged in. A failure changes nothing, except that a failed
  /// salvage reset leaves no log open. A missing checkpoint or log
  /// recovers to an empty database. Refused while a commit awaits its ack
  /// on the log this would replace.
  Result<RecoveryReport> Recover(Database* staged, TermPool* pool);

  /// With durability on, FailedPrecondition until Recover opened the log:
  /// \p what would otherwise write around it, or overwrite files the
  /// engine never loaded. OK with durability off.
  Status RequireLog(std::string_view what) const;

  /// Saves \p edb as the checkpoint and rotates the log behind it, which
  /// also heals a broken log. Refused like RequireLog.
  Status Checkpoint(const Database& edb);

  /// The checkpoint image and the LSN it covers; needs an open log.
  Result<CheckpointImage> ReadCheckpointImage() const;

  /// The open commit log; null before Recover or with durability kNone.
  CommitLog* log() const { return log_.get(); }
  std::string checkpoint_path() const;

 private:
  /// Recover's body before the swap: replays into \p staged and, with
  /// durability on, opens the log into \p log (after the salvage reset,
  /// which closes the open log).
  Result<RecoveryReport> Stage(Database* staged, TermPool* pool,
                               std::unique_ptr<CommitLog>* log);
  std::string wal_path() const;

  const std::string dir_;
  const RecoveryMode mode_;
  CommitLogOptions log_options_;
  std::unique_ptr<CommitLog> log_;
  /// Commits appended under the writer lock whose ack Commit still awaits
  /// after releasing it. Recover refuses while it is above zero, since it
  /// replaces the log they wait on.
  std::atomic<uint64_t> commits_in_flight_{0};
  /// Exported by RegisterMetrics as pull counters.
  struct Counters {
    std::atomic<uint64_t> commits{0};
    std::atomic<uint64_t> commit_failures{0};
    std::atomic<uint64_t> checkpoints{0};
    std::atomic<uint64_t> recoveries{0};
    std::atomic<uint64_t> recovery_failures{0};
    std::atomic<uint64_t> records_replayed{0};
    std::atomic<uint64_t> torn_bytes{0};
  } counters_;
};

}  // namespace gluenail

#endif  // GLUENAIL_STORAGE_RECOVERY_H_
