#include "src/storage/wal.h"

#include <fcntl.h>
#include <unistd.h>

#include <cstring>

#include "src/common/fault_injector.h"
#include "src/common/strings.h"
#include "src/storage/persistence.h"

namespace gluenail {

namespace {

constexpr char kWalMagic[8] = {'G', 'N', 'W', 'A', 'L', 'O', 'G', '1'};
constexpr char kRecordMagic[4] = {'G', 'N', 'W', 'R'};
constexpr size_t kWalHeaderSize = 24;    // magic + start_lsn + checksum
constexpr size_t kRecordHeaderSize = 24;  // magic + lsn + len + checksum
/// Per-payload sanity bound: anything larger than this is corruption, not
/// a batch (the wire protocol caps frames at 64 MiB; we allow 4x).
/// Append enforces the same cap (see Wal::kMaxPayloadBytes), so the scan
/// never rejects a record Append accepted.
constexpr uint64_t kMaxPayload = Wal::kMaxPayloadBytes;

/// Test-only Append cap override; 0 = use kMaxPayloadBytes. The scan cap
/// above stays at the default, so lowering this can only make Append
/// stricter than recovery — never the reverse.
std::atomic<uint64_t> g_max_payload_override{0};

uint64_t AppendPayloadCap() {
  uint64_t o = g_max_payload_override.load(std::memory_order_relaxed);
  return o == 0 ? Wal::kMaxPayloadBytes : o;
}

std::string EncodeHeader(uint64_t start_lsn) {
  std::string out(kWalMagic, sizeof(kWalMagic));
  PutFixed64(&out, start_lsn);
  PutFixed64(&out, Fnv1a64(out.data(), out.size()));
  return out;
}

std::string EncodeRecord(uint64_t lsn, std::string_view payload) {
  std::string out(kRecordMagic, sizeof(kRecordMagic));
  PutFixed64(&out, lsn);
  PutFixed32(&out, static_cast<uint32_t>(payload.size()));
  PutFixed64(&out, Fnv1a64(payload.data(), payload.size()));
  out.append(payload);
  return out;
}

/// Parses one record at \p pos; false on any structural or checksum
/// failure. Writes the record and the offset just past it on success.
bool ParseRecordAt(std::string_view data, size_t pos, WalScanRecord* rec,
                   size_t* end) {
  if (pos + kRecordHeaderSize > data.size()) return false;
  const char* p = data.data() + pos;
  if (std::memcmp(p, kRecordMagic, sizeof(kRecordMagic)) != 0) return false;
  uint64_t lsn = DecodeFixed64(p + 4);
  uint64_t len = DecodeFixed32(p + 12);
  uint64_t sum = DecodeFixed64(p + 16);
  if (len > kMaxPayload) return false;
  if (pos + kRecordHeaderSize + len > data.size()) return false;
  std::string_view payload = data.substr(pos + kRecordHeaderSize, len);
  if (Fnv1a64(payload.data(), payload.size()) != sum) return false;
  rec->lsn = lsn;
  rec->payload = payload;
  *end = pos + kRecordHeaderSize + len;
  return true;
}

}  // namespace

std::string_view DurabilityLevelName(DurabilityLevel level) {
  switch (level) {
    case DurabilityLevel::kNone:
      return "none";
    case DurabilityLevel::kAsync:
      return "async";
    case DurabilityLevel::kSync:
      return "sync";
    case DurabilityLevel::kGroupCommit:
      return "group";
  }
  return "unknown";
}

Result<WalScanResult> ScanWalBuffer(std::string_view data) {
  if (data.size() < kWalHeaderSize ||
      std::memcmp(data.data(), kWalMagic, sizeof(kWalMagic)) != 0) {
    return Status::IoError("wal: missing or corrupt file header");
  }
  if (Fnv1a64(data.data(), 16) != DecodeFixed64(data.data() + 16)) {
    return Status::IoError("wal: file header checksum mismatch");
  }
  WalScanResult out;
  out.scanned_bytes = data.size();
  out.start_lsn = DecodeFixed64(data.data() + 8);
  out.valid_bytes = kWalHeaderSize;
  uint64_t expect = out.start_lsn;
  size_t off = kWalHeaderSize;
  while (off < data.size()) {
    WalScanRecord rec;
    size_t end = 0;
    if (!ParseRecordAt(data, off, &rec, &end) || rec.lsn != expect) break;
    out.records.push_back(rec);
    out.last_lsn = rec.lsn;
    expect = rec.lsn + 1;
    out.valid_bytes = end;
    off = end;
  }
  if (off >= data.size()) return out;

  // Damage at byte `off`. Resync byte-by-byte: any structurally valid
  // record past here means the corruption is *inside* the log, not a torn
  // tail — strict recovery must refuse, salvage replays what it finds.
  out.damage_note =
      StrCat("bad record at byte ", off, " of ", data.size());
  for (size_t pos = off + 1; pos + kRecordHeaderSize <= data.size(); ++pos) {
    if (data[pos] != 'G') continue;
    WalScanRecord rec;
    size_t end = 0;
    if (ParseRecordAt(data, pos, &rec, &end)) {
      out.salvaged.push_back(rec);
      pos = end - 1;
    }
  }
  out.damage =
      out.salvaged.empty() ? WalDamage::kTornTail : WalDamage::kMidLog;
  return out;
}

Result<std::unique_ptr<Wal>> Wal::Open(const std::string& path,
                                       const WalScanResult& scan) {
  if (scan.damage == WalDamage::kMidLog) {
    return Status::IoError(StrCat(
        "wal '", path, "': mid-log corruption (", scan.damage_note,
        " with ", scan.salvaged.size(),
        " record(s) after it); recover with RecoveryMode::kSalvage and "
        "rotate to a fresh log"));
  }

  std::unique_ptr<Wal> wal(new Wal());
  wal->path_ = path;
  wal->fd_ = ::open(path.c_str(), O_WRONLY | O_APPEND);
  if (wal->fd_ < 0) return ErrnoError("open", path);
  wal->start_lsn_ = scan.start_lsn;
  wal->next_lsn_ = scan.records.empty() ? scan.start_lsn : scan.last_lsn + 1;
  wal->durable_lsn_ = scan.records.empty() ? 0 : scan.last_lsn;

  const uint64_t truncated = scan.scanned_bytes - scan.valid_bytes;
  if (truncated > 0) {
    // Torn tail from a crashed append: cut the file back to the last
    // record boundary before appending anything after it.
    GLUENAIL_RETURN_NOT_OK(wal->TruncateLocked(scan.valid_bytes));
    wal->counters_.open_truncated_bytes.fetch_add(
        truncated, std::memory_order_relaxed);
  }
  wal->offset_ = scan.valid_bytes;
  // One fsync so the (possibly truncated) state we computed is the state
  // on disk — from here durable_lsn_ only advances through Sync().
  if (::fsync(wal->fd_) != 0) return ErrnoError("fsync", path);
  wal->synced_offset_ = wal->offset_;
  return wal;
}

Result<std::unique_ptr<Wal>> Wal::Create(const std::string& path,
                                         uint64_t start_lsn) {
  std::unique_ptr<Wal> wal(new Wal());
  wal->path_ = path;
  GLUENAIL_RETURN_NOT_OK(wal->StartFresh(start_lsn));
  return wal;
}

Status Wal::StartFresh(uint64_t start_lsn) {
  GLUENAIL_RETURN_NOT_OK(
      ReplaceFileAtomically(path_, EncodeHeader(start_lsn)));
  int fd = ::open(path_.c_str(), O_WRONLY | O_APPEND);
  if (fd < 0) {
    // The open log's file is already replaced: an append to it would be
    // acked yet lost, so it refuses appends until a rotation succeeds.
    if (fd_ >= 0) broken_ = true;
    return ErrnoError("open", path_);
  }
  if (fd_ >= 0) ::close(fd_);  // the old log's inode; already renamed over
  fd_ = fd;
  start_lsn_ = start_lsn;
  next_lsn_ = start_lsn;
  offset_ = kWalHeaderSize;
  synced_offset_ = kWalHeaderSize;
  durable_lsn_ = 0;
  broken_ = false;
  return Status::OK();
}

Wal::~Wal() {
  if (fd_ >= 0) {
    // Best-effort: don't lose a clean shutdown's tail to a missing sync.
    if (!broken_ && synced_offset_ != offset_) ::fsync(fd_);
    ::close(fd_);
  }
}

Status Wal::TruncateLocked(uint64_t to) {
  GLUENAIL_RETURN_NOT_OK(InjectFault(FaultOp::kTruncate, path_));
  if (::ftruncate(fd_, static_cast<off_t>(to)) != 0) {
    return ErrnoError("ftruncate", path_);
  }
  return Status::OK();
}

uint64_t Wal::OverrideMaxPayloadForTesting(uint64_t bytes) {
  return g_max_payload_override.exchange(bytes, std::memory_order_relaxed);
}

Result<uint64_t> Wal::Append(const MutationBatch& batch) {
  const std::string payload = batch.Serialize();
  if (payload.size() > AppendPayloadCap()) {
    // Refuse before writing a byte: recovery rejects lengths past the cap
    // as corruption, so an oversized record would be acked durable yet
    // read back as a torn tail (and past 4 GiB the u32 length prefix
    // would silently truncate, corrupting the framing).
    return Status::InvalidArgument(
        StrCat("mutation batch serializes to ", payload.size(),
               " bytes, over the ", AppendPayloadCap(),
               "-byte wal record limit; split the batch"));
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (fd_ < 0) return Status::InvalidArgument("wal is not open");
    if (broken_) {
      return Status::IoError(StrCat(
          "wal '", path_, "' is broken after an earlier failure; "
          "checkpoint to rotate in a fresh log"));
    }
    uint64_t lsn = next_lsn_;
    std::string record = EncodeRecord(lsn, payload);
    Status st = WriteAll(fd_, record, path_);
    if (!st.ok()) {
      counters_.append_failures.fetch_add(1, std::memory_order_relaxed);
      // Roll any partial record back off the file. If even that fails the
      // file ends in torn bytes — safe for recovery (the record's checksum
      // cannot validate) but useless for appending, so mark broken.
      Status rollback = TruncateLocked(offset_);
      if (!rollback.ok()) broken_ = true;
      return st;
    }
    offset_ += record.size();
    next_lsn_ = lsn + 1;
    counters_.appends.fetch_add(1, std::memory_order_relaxed);
    counters_.appended_bytes.fetch_add(record.size(),
                                       std::memory_order_relaxed);
    return lsn;
  }
}

Status Wal::FailSyncLocked(Status cause) {
  counters_.sync_failures.fetch_add(1, std::memory_order_relaxed);
  broken_ = true;
  // The un-synced suffix was appended but its commits are about to be
  // errored — remove it so those batches cannot resurface after restart.
  // If the rollback fails too, the (valid, unacked) records stay on disk:
  // that is the one unknown-outcome window, the same one a real crash
  // between write and ack leaves, and it is documented in wal.h.
  Status rollback = TruncateLocked(synced_offset_);
  if (rollback.ok()) {
    offset_ = synced_offset_;
    next_lsn_ = durable_lsn_ == 0 ? start_lsn_ : durable_lsn_ + 1;
  }
  return cause;
}

Status Wal::Sync() {
  uint64_t target_off, target_lsn;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (fd_ < 0) return Status::InvalidArgument("wal is not open");
    if (broken_) {
      return Status::IoError(
          StrCat("wal '", path_, "' is broken; checkpoint to heal"));
    }
    if (synced_offset_ == offset_) return Status::OK();
    Status st = InjectFault(FaultOp::kFsync, path_);
    if (!st.ok()) return FailSyncLocked(std::move(st));
    target_off = offset_;
    target_lsn = next_lsn_ - 1;
  }
  // The fsync itself runs outside mu_, so concurrent Appends keep landing
  // in the page cache while this group commits; they form the next group.
  int rc = ::fsync(fd_);
  std::lock_guard<std::mutex> lock(mu_);
  if (broken_) {
    return Status::IoError(
        StrCat("wal '", path_, "' broke during a concurrent failure"));
  }
  if (rc != 0) return FailSyncLocked(ErrnoError("fsync", path_));
  if (target_off > synced_offset_) {
    synced_offset_ = target_off;
    if (target_lsn > durable_lsn_) durable_lsn_ = target_lsn;
  }
  counters_.syncs.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

Status Wal::Rotate(uint64_t start_lsn) {
  std::lock_guard<std::mutex> lock(mu_);
  if (fd_ < 0) return Status::InvalidArgument("wal is not open");
  GLUENAIL_RETURN_NOT_OK(StartFresh(start_lsn));
  counters_.rotations.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

Result<Wal::TailChunk> Wal::ReadRecordsFrom(uint64_t from_lsn) const {
  // Holding mu_ for the whole read pins a consistent (file bytes,
  // synced_offset_, durable_lsn_) triple against concurrent Append / Sync
  // / Rotate. The read is page-cache traffic, comparable to the buffered
  // writes Append already does under this mutex.
  std::lock_guard<std::mutex> lock(mu_);
  if (fd_ < 0) return Status::InvalidArgument("wal is not open");
  TailChunk chunk;
  chunk.start_lsn = start_lsn_;
  chunk.durable_lsn = durable_lsn_;
  if (durable_lsn_ == 0 || from_lsn > durable_lsn_) return chunk;
  GLUENAIL_ASSIGN_OR_RETURN(std::string data, ReadFileText(path_));
  // Only the synced prefix ships: a record past synced_offset_ is acked to
  // nobody yet and a sync failure may roll it back, so a replica that
  // applied it would hold state the primary can lose.
  if (data.size() > synced_offset_) data.resize(synced_offset_);
  GLUENAIL_ASSIGN_OR_RETURN(WalScanResult scan, ScanWalBuffer(data));
  for (const WalScanRecord& rec : scan.records) {
    if (rec.lsn < from_lsn || rec.lsn > durable_lsn_) continue;
    chunk.records.push_back(
        TailRecord{rec.lsn, std::string(rec.payload)});
  }
  return chunk;
}

uint64_t Wal::start_lsn() const {
  std::lock_guard<std::mutex> lock(mu_);
  return start_lsn_;
}

uint64_t Wal::next_lsn() const {
  std::lock_guard<std::mutex> lock(mu_);
  return next_lsn_;
}

uint64_t Wal::durable_lsn() const {
  std::lock_guard<std::mutex> lock(mu_);
  return durable_lsn_;
}

bool Wal::broken() const {
  std::lock_guard<std::mutex> lock(mu_);
  return broken_;
}

}  // namespace gluenail
