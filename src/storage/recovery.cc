#include "src/storage/recovery.h"

#include <sys/stat.h>

#include "src/common/strings.h"
#include "src/obs/metrics.h"
#include "src/storage/mutation_batch.h"
#include "src/storage/wal.h"

namespace gluenail {

namespace {

bool FileExists(const std::string& path) {
  struct stat st{};
  return ::stat(path.c_str(), &st) == 0;
}

/// Parses + applies one WAL record's payload. `where` labels errors.
Status ReplayRecord(Database* db, TermPool* pool, const WalScanRecord& rec,
                    RecoveryReport* report) {
  Result<MutationBatch> batch = MutationBatch::Parse(rec.payload);
  if (!batch.ok()) {
    return batch.status().WithContext(StrCat("wal record lsn=", rec.lsn));
  }
  Result<MutationBatch::Resolved> ops = batch->Resolve(pool);
  if (!ops.ok()) {
    return ops.status().WithContext(StrCat("wal record lsn=", rec.lsn));
  }
  ++report->records_replayed;
  report->ops_applied +=
      MutationBatch::ApplyResolved(*ops, db, nullptr).applied;
  if (rec.lsn > report->last_lsn) report->last_lsn = rec.lsn;
  return Status::OK();
}

}  // namespace

RecoveryCounters& GlobalRecoveryCounters() {
  static RecoveryCounters counters;
  return counters;
}

void RegisterRecoveryMetrics(MetricsRegistry* registry) {
  RecoveryCounters& c = GlobalRecoveryCounters();
  registry->RegisterPullCounter("gluenail_recovery_runs_total",
                                "successful crash recoveries", &c.recoveries);
  registry->RegisterPullCounter("gluenail_recovery_failures_total",
                                "failed crash recoveries", &c.failures);
  registry->RegisterPullCounter("gluenail_recovery_records_replayed_total",
                                "WAL records replayed during recovery",
                                &c.records_replayed);
  registry->RegisterPullCounter("gluenail_recovery_torn_bytes_total",
                                "torn-tail bytes discarded during recovery",
                                &c.torn_bytes);
}

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

Result<RecoveryReport> RecoverDatabase(Database* db, TermPool* pool,
                                       const std::string& checkpoint_path,
                                       const std::string& wal_path,
                                       const RecoveryOptions& options) {
  RecoveryCounters& counters = GlobalRecoveryCounters();
  RecoveryReport report;
  auto fail = [&counters](Status s) -> Status {
    counters.failures.fetch_add(1, std::memory_order_relaxed);
    return s;
  };

  // 1. Checkpoint: the atomic-save discipline guarantees the file is
  // either a complete old or complete new image, so kStrict is the normal
  // path; kSalvage extends to section-level damage the same way LoadEdb
  // does.
  if (FileExists(checkpoint_path)) {
    LoadOptions load_opts;
    load_opts.recovery = options.mode;
    Result<LoadReport> loaded =
        LoadDatabaseFromFile(db, checkpoint_path, load_opts);
    if (!loaded.ok()) {
      return fail(loaded.status().WithContext("recovery checkpoint"));
    }
    report.checkpoint_found = true;
    report.checkpoint = *loaded;
    if (!loaded->clean()) {
      for (const std::string& d : loaded->dropped) {
        report.notes.push_back(StrCat("checkpoint: dropped ", d));
      }
    }
  } else {
    report.notes.push_back(StrCat("no checkpoint at ", checkpoint_path));
  }

  // 2. WAL tail.
  if (!FileExists(wal_path)) {
    report.notes.push_back(StrCat("no wal at ", wal_path));
    counters.recoveries.fetch_add(1, std::memory_order_relaxed);
    return report;
  }
  report.wal_found = true;
  GLUENAIL_ASSIGN_OR_RETURN(std::string data, ReadFileText(wal_path));
  Result<WalScanResult> scanned = ScanWalBuffer(data);
  if (!scanned.ok()) {
    if (options.mode == RecoveryMode::kStrict) {
      return fail(scanned.status());
    }
    report.notes.push_back(
        StrCat("wal dropped entirely: ", scanned.status().message()));
    report.needs_reset = true;
    counters.recoveries.fetch_add(1, std::memory_order_relaxed);
    return report;
  }
  const WalScanResult& scan = *scanned;
  report.wal_start_lsn = scan.start_lsn;
  report.last_lsn = scan.last_lsn;

  if (scan.damage == WalDamage::kMidLog &&
      options.mode == RecoveryMode::kStrict) {
    return fail(Status::IoError(StrCat(
        "wal '", wal_path, "': ", scan.damage_note, ", but ",
        scan.salvaged.size(),
        " valid record(s) follow — this is mid-log corruption, not a torn "
        "tail; rerun recovery with RecoveryMode::kSalvage to keep them")));
  }

  for (const WalScanRecord& rec : scan.records) {
    // A record that passed both checksums but fails to parse or apply is
    // a logic-level corruption; strict and salvage both stop trusting the
    // prefix past it — but salvage keeps what already replayed.
    Status st = ReplayRecord(db, pool, rec, &report);
    if (!st.ok()) {
      if (options.mode == RecoveryMode::kStrict) return fail(std::move(st));
      report.notes.push_back(StrCat("salvage dropped: ", st.message()));
      report.needs_reset = true;
    }
  }

  if (scan.damage == WalDamage::kTornTail) {
    report.torn_bytes = data.size() - scan.valid_bytes;
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

  counters.recoveries.fetch_add(1, std::memory_order_relaxed);
  counters.records_replayed.fetch_add(report.records_replayed,
                                      std::memory_order_relaxed);
  counters.records_salvaged.fetch_add(report.records_salvaged,
                                      std::memory_order_relaxed);
  counters.torn_bytes.fetch_add(report.torn_bytes,
                                std::memory_order_relaxed);
  return report;
}

}  // namespace gluenail
