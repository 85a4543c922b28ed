/// \file wal.h
/// \brief Write-ahead log of MutationBatch records — the engine's
/// durability story for heavy write traffic (ROADMAP item 1).
///
/// The log is append-only and binary-framed with the same discipline as
/// the wire protocol (server/protocol.cc): a magic tag, a length prefix,
/// and an FNV-1a 64 checksum guarding every payload. Payloads are
/// MutationBatch::Serialize() text, which carries its *own* header and
/// checksum, so a record is double-checked before replay ever applies it.
///
/// File layout (all integers little-endian, written and read with
/// common/strings.h's PutFixed/DecodeFixed helpers, as the wire codecs
/// are):
///
///     header   "GNWALOG1" | start_lsn u64 | fnv1a(first 16 bytes) u64
///     record   "GNWR" | lsn u64 | payload_len u32 | fnv1a(payload) u64
///              | payload
///     record   ...
///
/// LSNs are dense and ascending: the first record carries the header's
/// start_lsn, each next record start_lsn+1, +2, ... A checkpoint rotates
/// the log (fresh header with the next LSN), which is how the log
/// truncates behind the checkpoint without a separate manifest — replay
/// after recovery is idempotent (insert/erase are set operations, so
/// re-applying a tail the checkpoint already includes is harmless).
///
/// Failure semantics (what the crash-point sweep in tests/wal_test.cc
/// proves):
///  * A failed Append rolls the partial record off the file (ftruncate
///    back to the last record boundary), so the file always ends on a
///    record boundary unless the rollback itself failed — and then the
///    torn bytes fail their checksum and recovery discards them.
///  * A failed Sync marks the log broken (sticky) and truncates back to
///    the last *synced* offset, so a batch whose commit errored cannot
///    reappear after restart. Broken logs refuse further appends until a
///    checkpoint rotates in a fresh log.
///  * A fresh log (Create, Rotate) is published by the checkpoint save's
///    own writer, ReplaceFileAtomically (persistence.h), and Append writes
///    through the same WriteAll, so the log and the checkpoint pass one
///    set of write / fsync / rename seams. Every write / fsync / rename /
///    ftruncate consults the process-wide FaultInjector first, so tests
///    can crash the log at any point.
///
/// Thread safety: all methods are safe to call concurrently. Append holds
/// the internal mutex for the (buffered) write; Sync runs its fsync
/// *outside* the mutex, so the next commit group can append while the
/// current group's leader waits on the disk.

#ifndef GLUENAIL_STORAGE_WAL_H_
#define GLUENAIL_STORAGE_WAL_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/result.h"
#include "src/storage/mutation_batch.h"

namespace gluenail {

/// How hard a Session::Execute(mutate) ack promises the batch is on disk.
enum class DurabilityLevel {
  /// No log at all: mutations live in memory until an explicit save.
  kNone,
  /// Log every batch, ack immediately, fsync lazily (at most once per
  /// fsync interval, piggybacked on commits). A crash loses at most the
  /// un-synced tail; the log still bounds the loss to whole batches.
  kAsync,
  /// fsync before every ack, one batch at a time, commits fully
  /// serialized — the honest per-batch baseline group commit is measured
  /// against.
  kSync,
  /// Group commit: concurrent committers enqueue, one leader fsyncs the
  /// whole group (committers arriving during the in-flight fsync are
  /// absorbed into the next group; an optional linger grows groups
  /// further), every waiter observes the durable LSN before its ack.
  /// Same guarantee as kSync, shared cost.
  kGroupCommit,
};

std::string_view DurabilityLevelName(DurabilityLevel level);

/// Cumulative WAL activity, exported via the engine's metrics registry.
struct WalCounters {
  std::atomic<uint64_t> appends{0};
  std::atomic<uint64_t> appended_bytes{0};
  std::atomic<uint64_t> append_failures{0};
  std::atomic<uint64_t> syncs{0};
  std::atomic<uint64_t> sync_failures{0};
  std::atomic<uint64_t> rotations{0};
  /// Torn-tail bytes discarded when opening an existing log.
  std::atomic<uint64_t> open_truncated_bytes{0};
};

/// One structurally valid record found by ScanWalBuffer. `payload` views
/// into the scanned buffer.
struct WalScanRecord {
  uint64_t lsn = 0;
  std::string_view payload;
};

enum class WalDamage {
  kNone,      ///< every byte belongs to a valid record
  kTornTail,  ///< trailing garbage after the valid prefix (crashed append)
  kMidLog,    ///< valid records exist *past* a corrupt region
};

struct WalScanResult {
  /// Size of the scanned buffer: the file as it was read.
  uint64_t scanned_bytes = 0;
  uint64_t start_lsn = 1;
  /// Header + the longest valid record prefix, in bytes. Opening a log
  /// truncates the file here when it is shorter than scanned_bytes.
  uint64_t valid_bytes = 0;
  uint64_t last_lsn = 0;  ///< last LSN of the valid prefix (0 if none)
  std::vector<WalScanRecord> records;  ///< the valid prefix, in LSN order
  WalDamage damage = WalDamage::kNone;
  std::string damage_note;
  /// Structurally valid records found past the damage by a byte-wise
  /// resync scan — what RecoveryMode::kSalvage replays in addition to the
  /// prefix. Empty unless damage == kMidLog.
  std::vector<WalScanRecord> salvaged;
};

/// Parses an in-memory WAL image. Fails only when the file header itself
/// is missing or corrupt; record-level damage is reported in the result.
Result<WalScanResult> ScanWalBuffer(std::string_view data);

class Wal {
 public:
  /// Opens \p path for appending behind \p scan, the ScanWalBuffer result
  /// of the file's bytes as they were read (recovery reads and scans the
  /// log once and replays from the same scan). A torn tail is truncated
  /// away (the crash happened mid-append); mid-log corruption is refused —
  /// recover with RecoveryMode::kSalvage and rotate to a fresh log instead.
  /// Nothing may write the file between the read and this open.
  static Result<std::unique_ptr<Wal>> Open(const std::string& path,
                                           const WalScanResult& scan);

  /// Atomically replaces \p path with a fresh empty log whose LSNs start
  /// at \p start_lsn (ReplaceFileAtomically, the checkpoint save's writer)
  /// and opens it for appending.
  static Result<std::unique_ptr<Wal>> Create(const std::string& path,
                                             uint64_t start_lsn);

  ~Wal();
  Wal(const Wal&) = delete;
  Wal& operator=(const Wal&) = delete;

  /// Hard cap on a single record's payload. Append refuses anything
  /// larger *before writing a byte*: recovery's scan rejects lengths past
  /// this cap as corruption, so an oversized record would be acked
  /// durable yet unrecoverable (and past 4 GiB the u32 length prefix
  /// would silently truncate, corrupting the framing).
  static constexpr uint64_t kMaxPayloadBytes = 256u << 20;

  /// Test-only: lowers the Append payload cap so the refusal path can be
  /// exercised without building a 256 MiB batch. Pass 0 to restore the
  /// default; returns the previous override (0 = none). The recovery
  /// scan's cap is unaffected, so the "every durable record is
  /// recoverable" invariant holds under any override.
  static uint64_t OverrideMaxPayloadForTesting(uint64_t bytes);

  /// Appends one record; returns its LSN. The record is in the OS page
  /// cache but NOT yet durable — call Sync() (or let the engine's group
  /// commit do it) before acking. Fails without side effects when the
  /// batch is invalid, its payload exceeds kMaxPayloadBytes, or the log
  /// is broken.
  Result<uint64_t> Append(const MutationBatch& batch);

  /// fsyncs everything appended so far; on return every previously
  /// appended record is durable (durable_lsn() covers it). Concurrent
  /// callers coalesce: a sync that finds nothing new is a no-op, which is
  /// what makes group commit's shared-fsync accounting honest.
  Status Sync();

  /// Swaps in a fresh empty log starting at \p start_lsn (checkpoint
  /// truncation). The caller must guarantee no concurrent Append/Sync —
  /// the engine calls this under its writer lock after draining commits.
  /// On failure the old log stays open and intact — unless the fresh log
  /// was published but could not be opened: then the old log is broken,
  /// refusing appends that would go to a replaced file, until a rotation
  /// succeeds.
  Status Rotate(uint64_t start_lsn);

  /// One record read back out of the log by ReadRecordsFrom; unlike
  /// WalScanRecord the payload is owned, so it outlives the read.
  struct TailRecord {
    uint64_t lsn = 0;
    std::string payload;
  };

  /// What one tail-follow poll observed: the log's current start LSN (so
  /// the caller can detect that its cursor was rotated away and fall back
  /// to a checkpoint bootstrap), the durable watermark, and every record
  /// in [from_lsn, durable_lsn] still present in the log. Records the
  /// log has appended but not yet synced are NOT returned — log shipping
  /// must never hand a replica a record the primary could still lose.
  struct TailChunk {
    uint64_t start_lsn = 1;
    uint64_t durable_lsn = 0;
    std::vector<TailRecord> records;
  };

  /// Reads the durable records with LSN >= \p from_lsn back out of the
  /// log (replication's tail-follow). If \p from_lsn predates start_lsn()
  /// the returned records begin at start_lsn — the caller compares and
  /// bootstraps from the checkpoint image covering the gap. Safe against
  /// concurrent Append/Sync/Rotate; cost is one full read + scan of the
  /// current log file, which checkpoint rotation keeps bounded.
  Result<TailChunk> ReadRecordsFrom(uint64_t from_lsn) const;

  uint64_t start_lsn() const;
  /// LSN the next Append will return.
  uint64_t next_lsn() const;
  /// Highest LSN known to be on disk (0 = none yet).
  uint64_t durable_lsn() const;
  /// True after a sync failure or an unrollable append failure: the log
  /// refuses appends until Rotate gives it a fresh file.
  bool broken() const;

  const WalCounters& counters() const { return counters_; }

 private:
  Wal() = default;

  /// Replaces path_ with a fresh one-header log whose LSNs start at
  /// \p start_lsn (ReplaceFileAtomically), opens it for appending and
  /// adopts it as the whole state. On failure the open log is kept (see
  /// Rotate for when it is kept broken).
  Status StartFresh(uint64_t start_lsn);
  Status TruncateLocked(uint64_t to);
  Status FailSyncLocked(Status cause);

  std::string path_;
  int fd_ = -1;

  mutable std::mutex mu_;
  uint64_t start_lsn_ = 1;
  uint64_t next_lsn_ = 1;
  uint64_t offset_ = 0;         ///< file size; end of the last full record
  uint64_t synced_offset_ = 0;  ///< prefix known durable
  uint64_t durable_lsn_ = 0;
  bool broken_ = false;

  WalCounters counters_;
};

}  // namespace gluenail

#endif  // GLUENAIL_STORAGE_WAL_H_
