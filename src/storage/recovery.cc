#include "src/storage/recovery.h"

#include <sys/stat.h>

#include <atomic>
#include <optional>

#include "src/common/strings.h"
#include "src/obs/metrics.h"
#include "src/storage/wal.h"

namespace gluenail {

namespace {

bool FileExists(const std::string& path) {
  struct stat st{};
  return ::stat(path.c_str(), &st) == 0;
}

/// Parses one WAL record's payload and resolves every op before the first
/// one changes \p db. Errors are labelled with the record's LSN.
Status ReplayRecord(Database* db, TermPool* pool, const WalScanRecord& rec,
                    RecoveryReport* report) {
  Result<MutationBatch> batch = MutationBatch::Parse(rec.payload);
  Result<MutationBatch::Resolved> ops =
      batch.ok() ? batch->Resolve(pool)
                 : Result<MutationBatch::Resolved>(batch.status());
  if (!ops.ok()) {
    return ops.status().WithContext(StrCat("wal record lsn=", rec.lsn));
  }
  ++report->records_replayed;
  report->ops_applied +=
      MutationBatch::ApplyResolved(*ops, db).applied;
  if (rec.lsn > report->last_lsn) report->last_lsn = rec.lsn;
  return Status::OK();
}

/// wal.log as one Recover read it: the bytes and their one scan, which
/// both the replay and the log's open use.
struct WalRead {
  std::string bytes;
  std::optional<WalScanResult> scan;
};

/// Merges checkpoint + log into \p db and fills \p read with the log it
/// replayed.
Result<RecoveryReport> Replay(Database* db, TermPool* pool,
                              const std::string& checkpoint_path,
                              const std::string& wal_path, RecoveryMode mode,
                              WalRead* read) {
  RecoveryReport report;

  // 1. Checkpoint: the atomic-save discipline guarantees the file is
  // either a complete old or complete new image, so kStrict is the normal
  // path; kSalvage extends to section-level damage the same way LoadEdb
  // does.
  if (FileExists(checkpoint_path)) {
    LoadOptions load_opts;
    load_opts.recovery = mode;
    Result<LoadReport> loaded =
        LoadDatabaseFromFile(db, checkpoint_path, load_opts);
    if (!loaded.ok()) return loaded.status().WithContext("recovery checkpoint");
    report.checkpoint_found = true;
    report.checkpoint = *loaded;
    for (const std::string& d : loaded->dropped) {
      report.notes.push_back(StrCat("checkpoint: dropped ", d));
    }
  } else {
    report.notes.push_back(StrCat("no checkpoint at ", checkpoint_path));
  }

  // 2. WAL tail, read and scanned once.
  if (!FileExists(wal_path)) {
    report.notes.push_back(StrCat("no wal at ", wal_path));
    return report;
  }
  report.wal_found = true;
  GLUENAIL_ASSIGN_OR_RETURN(read->bytes, ReadFileText(wal_path));
  Result<WalScanResult> scanned = ScanWalBuffer(read->bytes);
  if (!scanned.ok()) {
    if (mode == RecoveryMode::kStrict) return scanned.status();
    report.notes.push_back(
        StrCat("wal dropped entirely: ", scanned.status().message()));
    report.needs_reset = true;
    return report;
  }
  const WalScanResult& scan = read->scan.emplace(std::move(*scanned));
  report.last_lsn = scan.last_lsn;

  if (scan.damage == WalDamage::kMidLog && mode == RecoveryMode::kStrict) {
    return Status::IoError(StrCat(
        "wal '", wal_path, "': ", scan.damage_note, ", but ",
        scan.salvaged.size(),
        " valid record(s) follow — this is mid-log corruption, not a torn "
        "tail; rerun recovery with RecoveryMode::kSalvage to keep them"));
  }

  for (const WalScanRecord& rec : scan.records) {
    // A record that passed both checksums but fails to parse or apply is
    // a logic-level corruption; strict and salvage both stop trusting the
    // prefix past it — but salvage keeps what already replayed.
    Status st = ReplayRecord(db, pool, rec, &report);
    if (!st.ok()) {
      if (mode == RecoveryMode::kStrict) return st;
      report.notes.push_back(StrCat("salvage dropped: ", st.message()));
      report.needs_reset = true;
    }
  }

  if (scan.damage == WalDamage::kTornTail) {
    report.torn_bytes = scan.scanned_bytes - scan.valid_bytes;
    report.notes.push_back(StrCat(
        "torn tail: ", report.torn_bytes, " byte(s) after lsn ",
        scan.last_lsn, " discarded (", scan.damage_note, ")"));
  } else if (scan.damage == WalDamage::kMidLog) {
    // kSalvage: replay whatever the resync scan validated. Individual
    // records that fail to parse/apply are dropped with a note rather
    // than failing the whole recovery.
    for (const WalScanRecord& rec : scan.salvaged) {
      Status st = ReplayRecord(db, pool, rec, &report);
      if (!st.ok()) {
        report.notes.push_back(StrCat("salvage dropped: ", st.message()));
        continue;
      }
      ++report.records_salvaged;
    }
    report.notes.push_back(StrCat("mid-log corruption: ", scan.damage_note,
                                  "; ", report.records_salvaged,
                                  " record(s) salvaged past it"));
    report.needs_reset = true;
  }
  return report;
}

}  // namespace

std::string RecoveryReport::Summary() const {
  std::string out = StrCat(
      "recovered: checkpoint ",
      checkpoint_found
          ? StrCat(checkpoint.relations_loaded, " relation(s), ",
                   checkpoint.facts_loaded, " fact(s)")
          : std::string("absent"),
      "; wal ",
      wal_found ? StrCat(records_replayed, " record(s), ", ops_applied,
                         " op(s), last lsn ", last_lsn)
                : std::string("absent"));
  if (records_salvaged > 0) {
    out += StrCat(" (", records_salvaged, " salvaged)");
  }
  if (torn_bytes > 0) out += StrCat("; torn tail ", torn_bytes, " byte(s)");
  if (needs_reset) out += "; log needs rotation";
  return out;
}

// --- DataDir ---------------------------------------------------------------

DataDir::DataDir(std::string dir, RecoveryMode mode,
                 CommitLogOptions log_options)
    : dir_(std::move(dir)), mode_(mode), log_options_(log_options) {}

void DataDir::RegisterMetrics(MetricsRegistry* registry) {
  // Pulls over the WalCounters of whichever log is open at scrape time.
  auto wal_count = [this](std::atomic<uint64_t> WalCounters::* field) {
    return [this, field]() -> uint64_t {
      return log_ != nullptr
                 ? (log_->wal().counters().*field).load(
                       std::memory_order_relaxed)
                 : 0;
    };
  };
  registry->RegisterPullCounter("gluenail_wal_appends_total",
                                "records appended to the WAL",
                                wal_count(&WalCounters::appends));
  registry->RegisterPullCounter("gluenail_wal_appended_bytes_total",
                                "bytes appended to the WAL",
                                wal_count(&WalCounters::appended_bytes));
  registry->RegisterPullCounter("gluenail_wal_append_failures_total",
                                "failed WAL appends",
                                wal_count(&WalCounters::append_failures));
  registry->RegisterPullCounter("gluenail_wal_syncs_total", "WAL fsyncs",
                                wal_count(&WalCounters::syncs));
  registry->RegisterPullCounter("gluenail_wal_sync_failures_total",
                                "failed WAL fsyncs (log marked broken)",
                                wal_count(&WalCounters::sync_failures));
  registry->RegisterPullCounter("gluenail_wal_rotations_total",
                                "WAL rotations behind checkpoints",
                                wal_count(&WalCounters::rotations));
  log_options_.group_size = registry->RegisterHistogram(
      "gluenail_wal_group_commit_batches",
      "batches made durable per fsync (group-commit amortization)");
  const Counters& c = counters_;
  registry->RegisterPullCounter(
      "gluenail_wal_commits_total",
      "mutation batches committed through the WAL write path", &c.commits);
  registry->RegisterPullCounter(
      "gluenail_wal_commit_failures_total",
      "mutation batches rejected or not made durable", &c.commit_failures);
  registry->RegisterPullCounter("gluenail_checkpoints_total",
                                "checkpoint saves with WAL rotation",
                                &c.checkpoints);
  registry->RegisterPullCounter("gluenail_recovery_runs_total",
                                "successful crash recoveries", &c.recoveries);
  registry->RegisterPullCounter("gluenail_recovery_failures_total",
                                "failed crash recoveries",
                                &c.recovery_failures);
  registry->RegisterPullCounter("gluenail_recovery_records_replayed_total",
                                "WAL records replayed during recovery",
                                &c.records_replayed);
  registry->RegisterPullCounter("gluenail_recovery_torn_bytes_total",
                                "torn-tail bytes discarded during recovery",
                                &c.torn_bytes);
}

std::string DataDir::checkpoint_path() const {
  return StrCat(dir_, "/checkpoint.facts");
}

std::string DataDir::wal_path() const { return StrCat(dir_, "/wal.log"); }

Result<MutationBatch::ApplyReport> DataDir::Commit(
    const MutationBatch::Resolved& ops, const MutationBatch& record,
    std::unique_lock<std::shared_mutex>& lock, Database* db) {
  GLUENAIL_RETURN_NOT_OK(RequireLog("commit"));
  if (log_ == nullptr) {
    return MutationBatch::ApplyResolved(ops, db);
  }
  auto failed = [this](Status s) -> Status {
    counters_.commit_failures.fetch_add(1, std::memory_order_relaxed);
    return s;
  };
  // Write-ahead: log, then apply to memory, both before the ack wait.
  Result<CommitLog::Ticket> ticket = log_->Append(record);
  if (!ticket.ok()) return failed(ticket.status());
  MutationBatch::ApplyReport applied =
      MutationBatch::ApplyResolved(ops, db);
  // Counted under the lock, so Recover (which takes it exclusively) sees
  // every commit that may still touch `log`.
  CommitLog* log = log_.get();
  ++commits_in_flight_;
  lock.unlock();
  Status acked = log->Await(*ticket);
  --commits_in_flight_;
  if (!acked.ok()) return failed(std::move(acked));
  counters_.commits.fetch_add(1, std::memory_order_relaxed);
  return applied;
}

Result<RecoveryReport> DataDir::Recover(Database* staged, TermPool* pool) {
  if (dir_.empty()) {
    return Status::InvalidArgument("Recover needs EngineOptions::data_dir");
  }
  const uint64_t in_flight = commits_in_flight_.load();
  if (in_flight > 0) {
    return Status::FailedPrecondition(
        StrCat("cannot recover while ", in_flight,
               " commit(s) await their ack; retry once they finish"));
  }
  std::unique_ptr<CommitLog> log;
  Result<RecoveryReport> report = Stage(staged, pool, &log);
  if (!report.ok()) {
    counters_.recovery_failures.fetch_add(1, std::memory_order_relaxed);
    return report.status();
  }
  log_ = std::move(log);  // drains and closes the log it replaces
  counters_.recoveries.fetch_add(1, std::memory_order_relaxed);
  counters_.records_replayed.fetch_add(report->records_replayed,
                                       std::memory_order_relaxed);
  counters_.torn_bytes.fetch_add(report->torn_bytes,
                                 std::memory_order_relaxed);
  return report;
}

Result<RecoveryReport> DataDir::Stage(Database* staged, TermPool* pool,
                                      std::unique_ptr<CommitLog>* log) {
  WalRead read;
  GLUENAIL_ASSIGN_OR_RETURN(
      RecoveryReport report,
      Replay(staged, pool, checkpoint_path(), wal_path(), mode_, &read));
  if (log_options_.durability == DurabilityLevel::kNone) return report;
  if (report.needs_reset) {
    // The old log is damaged past repair: capture the salvaged truth as a
    // fresh checkpoint, then start a clean log behind it. That replaces
    // the open log's file, so the open log closes first: if a step below
    // fails, writes are refused instead of appended to an unlinked file.
    log_.reset();
    GLUENAIL_RETURN_NOT_OK(SaveDatabaseToFile(*staged, checkpoint_path()));
  }
  std::unique_ptr<Wal> wal;
  if (read.scan.has_value() && !report.needs_reset) {
    GLUENAIL_ASSIGN_OR_RETURN(wal, Wal::Open(wal_path(), *read.scan));
  } else {
    GLUENAIL_ASSIGN_OR_RETURN(wal,
                              Wal::Create(wal_path(), report.last_lsn + 1));
  }
  GLUENAIL_ASSIGN_OR_RETURN(*log,
                            CommitLog::Open(std::move(wal), log_options_));
  return report;
}

Status DataDir::RequireLog(std::string_view what) const {
  if (log_ != nullptr || log_options_.durability == DurabilityLevel::kNone) {
    return Status::OK();
  }
  return Status::FailedPrecondition(StrCat(
      what, " refused: durability is on and Recover has not opened the ",
      "log in '", dir_, "' yet"));
}

Status DataDir::Checkpoint(const Database& edb) {
  if (dir_.empty()) {
    return Status::InvalidArgument("Checkpoint needs EngineOptions::data_dir");
  }
  GLUENAIL_RETURN_NOT_OK(RequireLog("Checkpoint"));
  // The image holds every appended batch (each was applied to memory
  // before its ack wait), including batches whose fsync failed — so the
  // rotation behind it heals a broken log, and waiters on the old log's
  // LSNs are released by the new epoch.
  GLUENAIL_RETURN_NOT_OK(SaveDatabaseToFile(edb, checkpoint_path()));
  if (log_ != nullptr) GLUENAIL_RETURN_NOT_OK(log_->Rotate());
  counters_.checkpoints.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

Result<CheckpointImage> DataDir::ReadCheckpointImage() const {
  if (log_ == nullptr) {
    return Status::FailedPrecondition(
        "no WAL open; a primary needs durability on to ship snapshots");
  }
  CheckpointImage img;
  img.covers_lsn = log_->wal().start_lsn() - 1;
  GLUENAIL_ASSIGN_OR_RETURN(img.bytes, ReadFileText(checkpoint_path()));
  return img;
}

}  // namespace gluenail
