/// \file wal_test.cc
/// \brief Durability suite: WAL format + scan (and the pinned bytes of a
/// log and of a checkpoint it recovers beside), torn-tail and mid-log
/// damage, failed log creates and rotations, crash-point sweeps driven by the fault injector (with a shadow
/// oracle asserting recovery yields exactly the acked prefix), checkpoint
/// rotation, group commit under 8 concurrent writer sessions (the tsan
/// target), inline and file EDB loads on the same durable path (and past
/// the WAL record limit), Recover refusing while commits are in flight,
/// the live-snapshot guard on Recover, and the data-directory lifecycle
/// (a failed Recover changes nothing; writes before Recover are refused).
///
/// The sweep invariants, from wal.h's failure semantics:
///  * single ArmNth fault on append/fsync/rename: recovered == acked;
///  * fault + failed rollback (kTruncate armed): acked ⊆ recovered ⊆
///    acked ∪ errored — the unknown-outcome window a real crash between
///    write and ack also leaves;
///  * seeded multi-fault schedules: the subset invariant, always.

#include "src/storage/wal.h"

#include <gtest/gtest.h>

#include <dirent.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/api/command.h"
#include "src/api/engine.h"
#include "src/api/session.h"
#include "src/common/fault_injector.h"
#include "src/common/strings.h"
#include "src/storage/mutation_batch.h"
#include "src/storage/recovery.h"

namespace gluenail {
namespace {

std::string ReadFile(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  std::ostringstream out;
  out << is.rdbuf();
  return out.str();
}

void WriteFile(const std::string& path, const std::string& data) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os << data;
}

uint64_t FileSize(const std::string& path) {
  struct stat st{};
  return ::stat(path.c_str(), &st) == 0 ? static_cast<uint64_t>(st.st_size)
                                        : 0;
}

/// A fresh directory per test case, so crash/recover cycles never see a
/// neighbor's files.
std::string FreshDir(const std::string& tag) {
  std::string tmpl = testing::TempDir() + "/gluenail_wal_" + tag + "_XXXXXX";
  std::vector<char> buf(tmpl.begin(), tmpl.end());
  buf.push_back('\0');
  char* got = ::mkdtemp(buf.data());
  EXPECT_NE(got, nullptr) << tmpl;
  return std::string(buf.data());
}

MutationBatch InsertBatch(std::initializer_list<int> keys) {
  MutationBatch b;
  for (int k : keys) b.Insert(StrCat("f(", k, ")"));
  return b;
}

/// The shadow oracle's view of an engine: every f/1 fact as its integer.
std::set<int> Facts(Engine* engine) {
  Result<std::vector<Tuple>> rows = engine->RelationContents("f", 1);
  std::set<int> out;
  if (!rows.ok()) return out;  // relation never created = empty
  for (const Tuple& t : *rows) {
    out.insert(static_cast<int>(engine->terms().IntValue(t[0])));
  }
  return out;
}

EngineOptions DurableOpts(const std::string& dir, DurabilityLevel level,
                          int64_t fsync_interval_us = 200) {
  EngineOptions opts;
  opts.data_dir = dir;
  opts.durability = level;
  opts.wal_fsync_interval = std::chrono::microseconds(fsync_interval_us);
  return opts;
}

/// A DataDir that only rebuilds: durability kNone opens no log.
CommitLogOptions NoLog() {
  CommitLogOptions opts;
  opts.durability = DurabilityLevel::kNone;
  return opts;
}

class WalTest : public ::testing::Test {
 protected:
  void SetUp() override { FaultInjector::Instance().Disarm(); }
  void TearDown() override { FaultInjector::Instance().Disarm(); }
};

// --- Log format + scan -----------------------------------------------------

TEST_F(WalTest, AppendScanRoundTrip) {
  const std::string dir = FreshDir("roundtrip");
  const std::string path = dir + "/wal.log";
  {
    Result<std::unique_ptr<Wal>> wal = Wal::Create(path, 1);
    ASSERT_TRUE(wal.ok()) << wal.status();
    for (int i = 0; i < 3; ++i) {
      Result<uint64_t> lsn = (*wal)->Append(InsertBatch({i}));
      ASSERT_TRUE(lsn.ok()) << lsn.status();
      EXPECT_EQ(*lsn, static_cast<uint64_t>(i + 1));
    }
    EXPECT_EQ((*wal)->durable_lsn(), 0u);
    ASSERT_TRUE((*wal)->Sync().ok());
    EXPECT_EQ((*wal)->durable_lsn(), 3u);
    EXPECT_EQ((*wal)->counters().appends.load(), 3u);
    EXPECT_EQ((*wal)->counters().syncs.load(), 1u);
  }
  const std::string data = ReadFile(path);
  Result<WalScanResult> scan = ScanWalBuffer(data);
  ASSERT_TRUE(scan.ok()) << scan.status();
  EXPECT_EQ(scan->damage, WalDamage::kNone);
  ASSERT_EQ(scan->records.size(), 3u);
  EXPECT_EQ(scan->records[0].lsn, 1u);
  EXPECT_EQ(scan->last_lsn, 3u);
  EXPECT_EQ(scan->valid_bytes, data.size());
  // Each payload is a parseable batch.
  for (const WalScanRecord& rec : scan->records) {
    EXPECT_TRUE(MutationBatch::Parse(rec.payload).ok());
  }
}

/// \p bytes as lowercase hex, two digits a byte.
std::string Hex(std::string_view bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (unsigned char c : bytes) {
    out.push_back(kDigits[c >> 4]);
    out.push_back(kDigits[c & 15]);
  }
  return out;
}

/// The bytes of a log created at LSN 1 with the two records below
/// appended, as hex; a slip in byte order, a checksum seed or the header
/// layout made the same way on the write and scan sides would still
/// round-trip, but not match these.
std::string GoldenLogHex() {
  return StrCat(
      // header: "GNWALOG1" | start_lsn 1 | checksum of the first 16 bytes
      "474e57414c4f4731", "0100000000000000", "9402987486f40dc1",
      // record: "GNWR" | lsn 1 | payload length 77 | payload checksum
      "474e5752", "0100000000000000", "4d000000", "65c630337e426d20",
      Hex("%% gluenail-batch v1 ops=2 checksum=b9a798313042c2bf\n"
          "+ edge(1,2)\n"
          "- edge(3,4)\n"),
      // record: "GNWR" | lsn 2 | payload length 78 | payload checksum
      "474e5752", "0200000000000000", "4e000000", "6567317de87b5a6a",
      Hex("%% gluenail-batch v1 ops=1 checksum=0f3888e449fcfd08\n"
          "+ students(cs99)(wilson)\n"));
}

TEST_F(WalTest, GoldenLogBytes) {
  const std::string dir = FreshDir("golden");
  const std::string path = dir + "/wal.log";
  {
    Result<std::unique_ptr<Wal>> wal = Wal::Create(path, 1);
    ASSERT_TRUE(wal.ok()) << wal.status();
    MutationBatch first;
    first.Insert("edge(1,2)");
    first.Erase("edge(3,4)");
    MutationBatch second;
    second.Insert("students(cs99)(wilson)");
    ASSERT_TRUE((*wal)->Append(first).ok());
    ASSERT_TRUE((*wal)->Append(second).ok());
    ASSERT_TRUE((*wal)->Sync().ok());
  }
  EXPECT_EQ(Hex(ReadFile(path)), GoldenLogHex());
}

// A data directory holding the pinned log and a pinned checkpoint (the
// text PersistenceTest.GoldenCheckpointText pins) recovers to the database
// those files describe, byte for byte once saved again.
TEST_F(WalTest, GoldenFilesRecoverTheSameDatabase) {
  const std::string dir = FreshDir("golden_recover");
  std::string log;
  const std::string hex = GoldenLogHex();
  for (size_t i = 0; i < hex.size(); i += 2) {
    log.push_back(static_cast<char>(std::stoi(hex.substr(i, 2), nullptr, 16)));
  }
  WriteFile(dir + "/wal.log", log);
  WriteFile(dir + "/checkpoint.facts",
            "%% gluenail-edb v2 relations=2 tuples=2 "
            "checksum=be67da40a8ea2343\n"
            "% empty/2: 0 tuples checksum=cbf29ce484222325\n"
            "% students(cs99)/1: 2 tuples checksum=40415b82d731c7c1\n"
            "students(cs99)(adams).\n"
            "students(cs99)(wilson).\n");
  TermPool pool;
  Database db(&pool);
  DataDir data_dir(dir, RecoveryMode::kStrict, NoLog());
  Result<RecoveryReport> r = data_dir.Recover(&db, &pool);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_TRUE(r->checkpoint_found);
  EXPECT_EQ(r->records_replayed, 2u);
  Result<std::string> text = SerializeDatabase(db);
  ASSERT_TRUE(text.ok()) << text.status();
  EXPECT_EQ(*text,
            "%% gluenail-edb v2 relations=3 tuples=3 "
            "checksum=9f74a6de3a10ae9e\n"
            "% edge/2: 1 tuples checksum=234efd5460aa8ca0\n"
            "edge(1,2).\n"
            "% empty/2: 0 tuples checksum=cbf29ce484222325\n"
            "% students(cs99)/1: 2 tuples checksum=40415b82d731c7c1\n"
            "students(cs99)(adams).\n"
            "students(cs99)(wilson).\n");
}

TEST_F(WalTest, AppendRefusesOversizedPayload) {
  // A payload over the record cap must be refused before a byte is
  // written: recovery's scan rejects such lengths as corruption, so an
  // oversized record would be acked durable yet unrecoverable.
  const std::string dir = FreshDir("maxpayload");
  const std::string path = dir + "/wal.log";
  Result<std::unique_ptr<Wal>> wal = Wal::Create(path, 1);
  ASSERT_TRUE(wal.ok()) << wal.status();
  const uint64_t size_before = FileSize(path);

  const uint64_t prev = Wal::OverrideMaxPayloadForTesting(16);
  Result<uint64_t> refused = (*wal)->Append(InsertBatch({1, 2, 3, 4}));
  Wal::OverrideMaxPayloadForTesting(prev);

  EXPECT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kInvalidArgument)
      << refused.status();
  // No side effects: nothing written, numbering untouched, log healthy.
  EXPECT_EQ(FileSize(path), size_before);
  EXPECT_EQ((*wal)->next_lsn(), 1u);
  EXPECT_FALSE((*wal)->broken());
  EXPECT_EQ((*wal)->counters().appends.load(), 0u);

  // With the cap back at its default the same batch appends and recovers.
  Result<uint64_t> ok = (*wal)->Append(InsertBatch({1, 2, 3, 4}));
  ASSERT_TRUE(ok.ok()) << ok.status();
  EXPECT_EQ(*ok, 1u);
  ASSERT_TRUE((*wal)->Sync().ok());
  Result<WalScanResult> scan = ScanWalBuffer(ReadFile(path));
  ASSERT_TRUE(scan.ok()) << scan.status();
  EXPECT_EQ(scan->damage, WalDamage::kNone);
  EXPECT_EQ(scan->records.size(), 1u);
}

TEST_F(WalTest, OpenTruncatesTornTail) {
  const std::string dir = FreshDir("torntail");
  const std::string path = dir + "/wal.log";
  {
    Result<std::unique_ptr<Wal>> wal = Wal::Create(path, 1);
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE((*wal)->Append(InsertBatch({1})).ok());
    ASSERT_TRUE((*wal)->Append(InsertBatch({2})).ok());
    ASSERT_TRUE((*wal)->Sync().ok());
  }
  // A crashed append: garbage after the last full record.
  const std::string good = ReadFile(path);
  const std::string torn = good + "GNWR\x01\x02torn-mid-append";
  WriteFile(path, torn);
  Result<WalScanResult> read = ScanWalBuffer(torn);
  ASSERT_TRUE(read.ok()) << read.status();
  EXPECT_EQ(read->damage, WalDamage::kTornTail);
  EXPECT_EQ(read->records.size(), 2u);
  EXPECT_EQ(read->last_lsn, 2u);
  Result<std::unique_ptr<Wal>> wal = Wal::Open(path, *read);
  ASSERT_TRUE(wal.ok()) << wal.status();
  EXPECT_EQ((*wal)->counters().open_truncated_bytes.load(),
            torn.size() - good.size());
  EXPECT_EQ(FileSize(path), good.size());
  // Appending after the truncation continues the LSN sequence cleanly.
  Result<uint64_t> lsn = (*wal)->Append(InsertBatch({3}));
  ASSERT_TRUE(lsn.ok());
  EXPECT_EQ(*lsn, 3u);
  ASSERT_TRUE((*wal)->Sync().ok());
  Result<WalScanResult> scan = ScanWalBuffer(ReadFile(path));
  ASSERT_TRUE(scan.ok());
  EXPECT_EQ(scan->damage, WalDamage::kNone);
  EXPECT_EQ(scan->records.size(), 3u);
}

TEST_F(WalTest, MidLogCorruptionStrictRefusesSalvageReplays) {
  const std::string dir = FreshDir("midlog");
  const std::string path = dir + "/wal.log";
  {
    Result<std::unique_ptr<Wal>> wal = Wal::Create(path, 1);
    ASSERT_TRUE(wal.ok());
    for (int i = 1; i <= 5; ++i) {
      ASSERT_TRUE((*wal)->Append(InsertBatch({i})).ok());
    }
    ASSERT_TRUE((*wal)->Sync().ok());
  }
  // Corrupt one payload byte of record 3: its checksum fails, records 4-5
  // stay valid after it — mid-log damage, not a torn tail.
  std::string data = ReadFile(path);
  size_t third = data.find("GNWR", data.find("GNWR", data.find("GNWR") + 1) + 1);
  ASSERT_NE(third, std::string::npos);
  data[third + 30] ^= 0x40;  // inside record 3's payload
  WriteFile(path, data);

  Result<WalScanResult> scan = ScanWalBuffer(data);
  ASSERT_TRUE(scan.ok());
  EXPECT_EQ(scan->damage, WalDamage::kMidLog);
  EXPECT_EQ(scan->records.size(), 2u);
  EXPECT_EQ(scan->salvaged.size(), 2u);

  // Open refuses a mid-log-corrupt file outright.
  EXPECT_FALSE(Wal::Open(path, *scan).ok());

  // Strict recovery refuses; salvage replays prefix + resynced tail and
  // demands a rotation.
  {
    TermPool pool;
    Database db(&pool);
    DataDir strict(dir, RecoveryMode::kStrict, NoLog());
    Result<RecoveryReport> r = strict.Recover(&db, &pool);
    EXPECT_FALSE(r.ok());
  }
  {
    TermPool pool;
    Database db(&pool);
    DataDir salvage(dir, RecoveryMode::kSalvage, NoLog());
    Result<RecoveryReport> r = salvage.Recover(&db, &pool);
    ASSERT_TRUE(r.ok()) << r.status();
    EXPECT_EQ(r->records_replayed, 4u);  // 1,2 + salvaged 4,5
    EXPECT_EQ(r->records_salvaged, 2u);
    EXPECT_TRUE(r->needs_reset);
  }
}

TEST_F(WalTest, DuplicateReplayIsIdempotent) {
  // A crash between checkpoint save and log rotation leaves a checkpoint
  // that already contains the log's effects. Replaying the overlap must
  // reproduce the identical state — the property that lets the engine skip
  // a checkpoint-LSN manifest.
  const std::string dir = FreshDir("idem");
  const std::string wal_path = dir + "/wal.log";
  const std::string ckpt = dir + "/checkpoint.facts";

  TermPool pool;
  Database db(&pool);
  MutationBatch b1;
  b1.Insert("f(1)");
  b1.Insert("f(2)");
  MutationBatch b2;
  b2.Erase("f(1)");
  b2.Insert("f(3)");
  {
    Result<std::unique_ptr<Wal>> wal = Wal::Create(wal_path, 1);
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE((*wal)->Append(b1).ok());
    ASSERT_TRUE((*wal)->Append(b2).ok());
    ASSERT_TRUE((*wal)->Sync().ok());
  }
  for (const MutationBatch* b : {&b1, &b2}) {
    Result<MutationBatch::Resolved> ops = b->Resolve(&pool);
    ASSERT_TRUE(ops.ok());
    MutationBatch::ApplyResolved(*ops, &db);
  }
  ASSERT_TRUE(SaveDatabaseToFile(db, ckpt).ok());

  // Recover from checkpoint + the same (unrotated) log: full overlap.
  TermPool pool2;
  Database db2(&pool2);
  DataDir data_dir(dir, RecoveryMode::kStrict, NoLog());
  Result<RecoveryReport> r = data_dir.Recover(&db2, &pool2);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_TRUE(r->checkpoint_found);
  EXPECT_EQ(r->records_replayed, 2u);

  Result<TermId> name = ParseGroundTerm(&pool2, "f");
  ASSERT_TRUE(name.ok());
  Relation* rel = db2.Find(*name, 1);
  ASSERT_NE(rel, nullptr);
  std::vector<Tuple> rows = rel->SortedTuples(pool2);
  ASSERT_EQ(rows.size(), 2u);  // f(2), f(3) — f(1) inserted then erased
}

// --- Engine lifecycle ------------------------------------------------------

TEST_F(WalTest, EngineRecoverApplyCrashRecover) {
  const std::string dir = FreshDir("lifecycle");
  std::set<int> acked;
  {
    Engine engine(DurableOpts(dir, DurabilityLevel::kGroupCommit));
    Result<RecoveryReport> boot = engine.Recover();
    ASSERT_TRUE(boot.ok()) << boot.status();
    EXPECT_FALSE(boot->checkpoint_found);
    for (int i = 0; i < 5; ++i) {
      Result<MutationBatch::ApplyReport> r =
          engine.ApplyBatch(InsertBatch({i}));
      ASSERT_TRUE(r.ok()) << r.status();
      EXPECT_EQ(r->inserted, 1u);
      acked.insert(i);
    }
    // Group commit acks only at a durable LSN.
    EXPECT_EQ(engine.durable_lsn(), 5u);
    EXPECT_EQ(Facts(&engine), acked);
    // "Crash": no checkpoint, no clean shutdown beyond the destructor.
  }
  {
    Engine engine(DurableOpts(dir, DurabilityLevel::kGroupCommit));
    Result<RecoveryReport> boot = engine.Recover();
    ASSERT_TRUE(boot.ok()) << boot.status();
    EXPECT_EQ(boot->records_replayed, 5u);
    EXPECT_EQ(Facts(&engine), acked);

    // Checkpoint truncates the log to a bare header behind it.
    ASSERT_TRUE(engine.Checkpoint().ok());
    EXPECT_EQ(FileSize(dir + "/wal.log"), 24u);
  }
  {
    Engine engine(DurableOpts(dir, DurabilityLevel::kGroupCommit));
    Result<RecoveryReport> boot = engine.Recover();
    ASSERT_TRUE(boot.ok());
    EXPECT_TRUE(boot->checkpoint_found);
    EXPECT_EQ(boot->records_replayed, 0u);
    EXPECT_EQ(Facts(&engine), acked);
    // LSNs continue after the checkpoint: the next commit is lsn 6.
    ASSERT_TRUE(engine.ApplyBatch(InsertBatch({99})).ok());
    EXPECT_EQ(engine.durable_lsn(), 6u);
  }
}

TEST_F(WalTest, AsyncAcksEarlyAndDrainsOnDemand) {
  const std::string dir = FreshDir("async");
  std::set<int> acked;
  {
    // Huge interval: no piggybacked sync fires during the loop.
    Engine engine(
        DurableOpts(dir, DurabilityLevel::kAsync, 10 * 1000 * 1000));
    ASSERT_TRUE(engine.Recover().ok());
    for (int i = 0; i < 4; ++i) {
      ASSERT_TRUE(engine.ApplyBatch(InsertBatch({i})).ok());
      acked.insert(i);
    }
    // Acked but (possibly) not yet durable — that is kAsync's contract.
    EXPECT_LE(engine.durable_lsn(), 4u);
    // SaveEdbFile drains in-flight commits first.
    ASSERT_TRUE(engine.SaveEdbFile(dir + "/manual.facts").ok());
    EXPECT_EQ(engine.durable_lsn(), 4u);
  }
  Engine engine(DurableOpts(dir, DurabilityLevel::kAsync));
  ASSERT_TRUE(engine.Recover().ok());
  EXPECT_EQ(Facts(&engine), acked);
}

TEST_F(WalTest, AddFactRoutesThroughLog) {
  const std::string dir = FreshDir("addfact");
  {
    Engine engine(DurableOpts(dir, DurabilityLevel::kSync));
    ASSERT_TRUE(engine.Recover().ok());
    ASSERT_TRUE(engine.AddFact("f(7).").ok());
    EXPECT_EQ(engine.durable_lsn(), 1u);
  }
  Engine engine(DurableOpts(dir, DurabilityLevel::kSync));
  ASSERT_TRUE(engine.Recover().ok());
  EXPECT_EQ(Facts(&engine), std::set<int>{7});
}

// --- Crash-point sweeps (the fault-injector matrix) ------------------------

/// Applies numbered batches, returning which ones acked and which errored.
struct SweepRun {
  std::set<int> acked;
  std::set<int> errored;
};

SweepRun ApplyNumbered(Engine* engine, int from, int to) {
  SweepRun run;
  for (int i = from; i < to; ++i) {
    Result<MutationBatch::ApplyReport> r = engine->ApplyBatch(InsertBatch({i}));
    if (r.ok()) {
      run.acked.insert(i);
    } else {
      run.errored.insert(i);
    }
  }
  return run;
}

/// After a crash at an injected fault: recovery must yield exactly the
/// acked set (strict invariant, single fault with working rollback).
void ExpectRecoversExactly(const std::string& dir,
                           const std::set<int>& acked) {
  FaultInjector::Instance().Disarm();
  Engine engine(DurableOpts(dir, DurabilityLevel::kSync));
  Result<RecoveryReport> boot = engine.Recover();
  ASSERT_TRUE(boot.ok()) << boot.status();
  EXPECT_EQ(Facts(&engine), acked) << boot->Summary();
}

TEST_F(WalTest, CrashPointSweepFailedAppend) {
  // Fail the nth WAL write: batch n's append rolls back, every other batch
  // acks, and recovery yields exactly the acked set.
  for (uint64_t nth = 1; nth <= 5; ++nth) {
    SCOPED_TRACE(StrCat("kWrite nth=", nth));
    const std::string dir = FreshDir(StrCat("sweep_w", nth));
    std::set<int> acked;
    {
      Engine engine(DurableOpts(dir, DurabilityLevel::kSync));
      ASSERT_TRUE(engine.Recover().ok());
      FaultInjector::Instance().ArmNth(FaultOp::kWrite, nth);
      SweepRun run = ApplyNumbered(&engine, 0, 8);
      FaultInjector::Instance().Disarm();
      EXPECT_EQ(run.errored.size(), 1u);
      EXPECT_EQ(run.errored.count(static_cast<int>(nth - 1)), 1u);
      acked = run.acked;
      EXPECT_EQ(Facts(&engine), acked);  // failed batch never hit memory
    }
    ExpectRecoversExactly(dir, acked);
  }
}

TEST_F(WalTest, CrashPointSweepFailedFsync) {
  // Fail the nth fsync: that batch errors, the log goes broken (later
  // batches error too), a checkpoint heals it, and at every stage recovery
  // yields exactly the acked set.
  for (uint64_t nth = 1; nth <= 4; ++nth) {
    SCOPED_TRACE(StrCat("kFsync nth=", nth));
    const std::string dir = FreshDir(StrCat("sweep_f", nth));
    std::set<int> acked;
    {
      Engine engine(DurableOpts(dir, DurabilityLevel::kSync));
      ASSERT_TRUE(engine.Recover().ok());
      FaultInjector::Instance().ArmNth(FaultOp::kFsync, nth);
      SweepRun run = ApplyNumbered(&engine, 0, 6);
      FaultInjector::Instance().Disarm();
      acked = run.acked;
      // Batches up to the fault acked; the faulted one and everything
      // after it (broken log) errored.
      EXPECT_EQ(acked.size(), nth - 1);
      EXPECT_EQ(run.errored.size(), 6 - (nth - 1));
      EXPECT_EQ(Facts(&engine), acked);

      // The checkpoint heals the broken log and commits resume.
      ASSERT_TRUE(engine.Checkpoint().ok());
      SweepRun after = ApplyNumbered(&engine, 100, 102);
      EXPECT_EQ(after.errored.size(), 0u);
      acked.insert(after.acked.begin(), after.acked.end());
    }
    ExpectRecoversExactly(dir, acked);
  }
}

TEST_F(WalTest, CrashPointSweepInlineEdbLoad) {
  // An EDB load, inline or from a file, is one insert batch on the durable
  // write path: a failed WAL write or fsync errors the whole load, and
  // recovery yields exactly the loads that acked. n grows until a run
  // finishes without the fault firing.
  for (bool from_file : {false, true}) {
    for (FaultOp op : {FaultOp::kWrite, FaultOp::kFsync}) {
      for (uint64_t nth = 1;; ++nth) {
        SCOPED_TRACE(StrCat(from_file ? "LoadEdbFile " : "LoadEdbText ",
                            op == FaultOp::kWrite ? "kWrite" : "kFsync",
                            " nth=", nth));
        ASSERT_LT(nth, 32u) << "the fault never stopped firing";
        const std::string dir =
            FreshDir(StrCat("sweep_load", from_file ? "f" : "t",
                            static_cast<int>(op), "_", nth));
        std::set<int> acked;
        bool fired = false;
        {
          Engine engine(DurableOpts(dir, DurabilityLevel::kSync));
          ASSERT_TRUE(engine.Recover().ok());
          Session session = engine.OpenSession();
          FaultInjector::Instance().ArmNth(op, nth);
          for (int i = 0; i < 8; i += 2) {
            const std::string facts =
                StrCat("f(", i, ").\nf(", i + 1, ").\n");
            const std::string file = StrCat(dir, "/load", i, ".facts");
            if (from_file) WriteFile(file, facts);
            Response r = session.Execute(from_file
                                             ? Command::LoadEdbFile(file)
                                             : Command::LoadEdbText(facts));
            if (r.ok()) acked.insert({i, i + 1});
          }
          fired = FaultInjector::Instance().injected(op) > 0;
          FaultInjector::Instance().Disarm();
          EXPECT_EQ(Facts(&engine), acked);  // a failed load never hit memory
        }
        ExpectRecoversExactly(dir, acked);
        if (!fired) {
          EXPECT_EQ(acked.size(), 8u);
          break;
        }
        EXPECT_LT(acked.size(), 8u);
      }
    }
  }
}

TEST_F(WalTest, LoadPastTheWalRecordLimitIsRefusedAndChangesNothing) {
  // A load's rows are one WAL record, so a load whose record would pass
  // Wal::kMaxPayloadBytes is refused by the append like any oversized
  // batch: the EDB, the checkpoint and the log stay as they were.
  const std::string dir = FreshDir("big_load");
  const std::string file = dir + "/big.facts";
  std::string facts;
  for (int i = 10; i < 20; ++i) facts += StrCat("f(", i, ").\n");
  WriteFile(file, facts);
  {
    Engine engine(DurableOpts(dir, DurabilityLevel::kSync));
    ASSERT_TRUE(engine.Recover().ok());
    ASSERT_TRUE(engine.ApplyBatch(InsertBatch({1})).ok());
    ASSERT_TRUE(engine.Checkpoint().ok());
    ASSERT_TRUE(engine.ApplyBatch(InsertBatch({2})).ok());
    const std::string checkpoint = ReadFile(dir + "/checkpoint.facts");
    const std::string log = ReadFile(dir + "/wal.log");

    const uint64_t prev = Wal::OverrideMaxPayloadForTesting(64);
    Result<LoadReport> from_file = engine.LoadEdbFile(file);
    Result<LoadReport> inline_load = engine.LoadEdbText(facts);
    Wal::OverrideMaxPayloadForTesting(prev);

    for (const Result<LoadReport>* r : {&from_file, &inline_load}) {
      EXPECT_EQ(r->status().code(), StatusCode::kInvalidArgument)
          << r->status();
      EXPECT_NE(r->status().message().find("wal record limit"),
                std::string::npos)
          << r->status();
    }
    EXPECT_EQ(Facts(&engine), (std::set<int>{1, 2}));
    EXPECT_EQ(ReadFile(dir + "/checkpoint.facts"), checkpoint);
    EXPECT_EQ(ReadFile(dir + "/wal.log"), log);

    // Under the default limit the same load commits.
    ASSERT_TRUE(engine.LoadEdbFile(file).ok());
  }
  ExpectRecoversExactly(dir, {1, 2, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19});
}

TEST_F(WalTest, CheckpointHealRestartsGroupCommitFsyncs) {
  // Regression: a failed fsync rolls the log's next LSN back before the
  // checkpoint heal rotates. The heal must re-seed the engine's durability
  // watermarks from the rotated log — force-promoting the durable
  // watermark to the (higher, pre-rollback) appended watermark would make
  // post-heal group commits ack instantly against stale numbering, with
  // no fsync ever issued.
  const std::string dir = FreshDir("heal_gc");
  std::set<int> expected;
  {
    Engine engine(DurableOpts(dir, DurabilityLevel::kGroupCommit));
    ASSERT_TRUE(engine.Recover().ok());
    SweepRun pre = ApplyNumbered(&engine, 0, 3);  // lsns 1..3 durable
    ASSERT_EQ(pre.acked.size(), 3u);
    expected = pre.acked;

    FaultInjector::Instance().ArmNth(FaultOp::kFsync, 1);
    SweepRun faulted = ApplyNumbered(&engine, 10, 11);  // lsn 4 rolls back
    FaultInjector::Instance().Disarm();
    ASSERT_EQ(faulted.errored.size(), 1u);
    ASSERT_TRUE(engine.wal_status().broken);
    // The errored batch was applied to memory before its failed ack, so
    // the healing checkpoint's image legitimately captures it.
    expected.insert(10);

    ASSERT_TRUE(engine.Checkpoint().ok());
    ASSERT_FALSE(engine.wal_status().broken);
    EXPECT_EQ(engine.wal_status().durable_lsn, 0u);  // fresh rotated log

    // The first post-heal commit reuses the rolled-back LSN 4. Its ack
    // must mean a real fsync of the rotated log reached that LSN, not a
    // comparison against the stale pre-rotation watermark.
    SweepRun after = ApplyNumbered(&engine, 20, 21);
    ASSERT_EQ(after.acked.size(), 1u);
    EXPECT_GE(engine.wal_status().durable_lsn, 4u)
        << "acked with no fsync of the rotated log";
    expected.insert(20);

    // And the group-commit machinery keeps flowing afterwards.
    SweepRun more = ApplyNumbered(&engine, 30, 33);
    EXPECT_EQ(more.errored.size(), 0u);
    expected.insert(more.acked.begin(), more.acked.end());
    EXPECT_EQ(Facts(&engine), expected);
  }
  ExpectRecoversExactly(dir, expected);
}

TEST_F(WalTest, CrashPointSweepFailedAppendAndRollback) {
  // A multi-chunk record torn mid-write whose rollback ftruncate ALSO
  // fails: torn bytes stay on disk, the log is broken — but the torn
  // record cannot checksum, so recovery still yields exactly the acked
  // set.
  const std::string dir = FreshDir("sweep_wt");
  std::set<int> acked;
  {
    Engine engine(DurableOpts(dir, DurabilityLevel::kSync));
    ASSERT_TRUE(engine.Recover().ok());
    SweepRun pre = ApplyNumbered(&engine, 0, 3);
    ASSERT_EQ(pre.acked.size(), 3u);
    acked = pre.acked;

    // ~120 KiB of ops so the record spans >1 write chunk (64 KiB).
    MutationBatch big;
    for (int i = 0; i < 12000; ++i) big.Insert(StrCat("f(", 1000 + i, ")"));
    FaultInjector::Instance().ArmNth(FaultOp::kWrite, 2);
    FaultInjector::Instance().ArmNth(FaultOp::kTruncate, 1);
    Result<MutationBatch::ApplyReport> r = engine.ApplyBatch(big);
    FaultInjector::Instance().Disarm();
    EXPECT_FALSE(r.ok());
    EXPECT_TRUE(engine.wal_status().broken);
    EXPECT_EQ(Facts(&engine), acked);
  }
  ExpectRecoversExactly(dir, acked);
}

TEST_F(WalTest, CrashPointSweepFailedFsyncAndRollback) {
  // fsync fails AND the rollback truncate fails: fully written but
  // unacked records survive on disk. This is the documented
  // unknown-outcome window, so the invariant relaxes to
  // acked ⊆ recovered ⊆ acked ∪ errored.
  const std::string dir = FreshDir("sweep_ft");
  SweepRun run;
  {
    Engine engine(DurableOpts(dir, DurabilityLevel::kSync));
    ASSERT_TRUE(engine.Recover().ok());
    FaultInjector::Instance().ArmNth(FaultOp::kFsync, 3);
    FaultInjector::Instance().ArmNth(FaultOp::kTruncate, 1);
    run = ApplyNumbered(&engine, 0, 5);
    FaultInjector::Instance().Disarm();
    EXPECT_EQ(run.acked.size(), 2u);
  }
  FaultInjector::Instance().Disarm();
  Engine engine(DurableOpts(dir, DurabilityLevel::kSync));
  ASSERT_TRUE(engine.Recover().ok());
  std::set<int> recovered = Facts(&engine);
  for (int k : run.acked) EXPECT_EQ(recovered.count(k), 1u) << "lost f(" << k << ")";
  for (int k : recovered) {
    EXPECT_TRUE(run.acked.count(k) == 1 || run.errored.count(k) == 1)
        << "f(" << k << ") was never submitted";
  }
}

TEST_F(WalTest, CrashPointSweepCheckpointRename) {
  // Fail each rename inside Checkpoint(): nth=1 is the checkpoint image's
  // publishing rename, nth=2 the log rotation's. Either way the previous
  // checkpoint+log pair stays consistent and recovery equals the acks.
  for (uint64_t nth = 1; nth <= 2; ++nth) {
    SCOPED_TRACE(StrCat("kRename nth=", nth));
    const std::string dir = FreshDir(StrCat("sweep_r", nth));
    std::set<int> acked;
    {
      Engine engine(DurableOpts(dir, DurabilityLevel::kSync));
      ASSERT_TRUE(engine.Recover().ok());
      SweepRun pre = ApplyNumbered(&engine, 0, 3);
      acked = pre.acked;
      FaultInjector::Instance().ArmNth(FaultOp::kRename, nth);
      Status cp = engine.Checkpoint();
      FaultInjector::Instance().Disarm();
      EXPECT_FALSE(cp.ok());
      // The log is not broken by a failed checkpoint; commits continue.
      SweepRun post = ApplyNumbered(&engine, 10, 13);
      EXPECT_EQ(post.errored.size(), 0u);
      acked.insert(post.acked.begin(), post.acked.end());
      EXPECT_EQ(Facts(&engine), acked);
    }
    ExpectRecoversExactly(dir, acked);
  }
}

/// The names in \p dir, but . and ..
std::vector<std::string> DirEntries(const std::string& dir) {
  std::vector<std::string> out;
  if (DIR* d = ::opendir(dir.c_str())) {
    while (struct dirent* e = ::readdir(d)) {
      std::string name = e->d_name;
      if (name != "." && name != "..") out.push_back(name);
    }
    ::closedir(d);
  }
  return out;
}

TEST_F(WalTest, CreateAndRotateFailureMatrixKeepsTheOpenLog) {
  // Fail the fresh log's write, fsync or rename: Create leaves no file,
  // and Rotate leaves the open log byte-identical and appending, with no
  // temp file behind; a disarmed retry rotates.
  for (FaultOp op : {FaultOp::kWrite, FaultOp::kFsync, FaultOp::kRename}) {
    SCOPED_TRACE(StrCat("op=", FaultOpName(op)));
    const std::string dir = FreshDir(StrCat("rotate_", FaultOpName(op)));
    const std::string path = dir + "/wal.log";

    FaultInjector::Instance().ArmNth(op, 1);
    Result<std::unique_ptr<Wal>> failed = Wal::Create(path, 1);
    EXPECT_TRUE(failed.status().IsIoError()) << failed.status();
    EXPECT_EQ(FaultInjector::Instance().injected(op), 1u);
    FaultInjector::Instance().Disarm();
    EXPECT_TRUE(DirEntries(dir).empty()) << Join(DirEntries(dir), ", ");

    Result<std::unique_ptr<Wal>> wal = Wal::Create(path, 1);
    ASSERT_TRUE(wal.ok()) << wal.status();
    ASSERT_TRUE((*wal)->Append(InsertBatch({1})).ok());
    ASSERT_TRUE((*wal)->Sync().ok());
    const std::string baseline = ReadFile(path);

    FaultInjector::Instance().ArmNth(op, 1);
    Status st = (*wal)->Rotate(2);
    EXPECT_TRUE(st.IsIoError()) << st;
    EXPECT_NE(st.message().find("injected fault"), std::string::npos) << st;
    EXPECT_EQ(FaultInjector::Instance().injected(op), 1u);
    FaultInjector::Instance().Disarm();
    EXPECT_EQ(ReadFile(path), baseline);
    EXPECT_EQ(DirEntries(dir), std::vector<std::string>{"wal.log"});
    EXPECT_EQ((*wal)->counters().rotations.load(), 0u);

    // The open log still appends after the failed rotation.
    Result<uint64_t> lsn = (*wal)->Append(InsertBatch({2}));
    ASSERT_TRUE(lsn.ok()) << lsn.status();
    EXPECT_EQ(*lsn, 2u);
    ASSERT_TRUE((*wal)->Sync().ok());
    Result<WalScanResult> scan = ScanWalBuffer(ReadFile(path));
    ASSERT_TRUE(scan.ok()) << scan.status();
    EXPECT_EQ(scan->records.size(), 2u);

    ASSERT_TRUE((*wal)->Rotate(3).ok());
    scan = ScanWalBuffer(ReadFile(path));
    ASSERT_TRUE(scan.ok()) << scan.status();
    EXPECT_EQ(scan->start_lsn, 3u);
    EXPECT_TRUE(scan->records.empty());
    lsn = (*wal)->Append(InsertBatch({3}));
    ASSERT_TRUE(lsn.ok()) << lsn.status();
    EXPECT_EQ(*lsn, 3u);
  }
}

TEST_F(WalTest, SeededCrashScheduleKeepsSubsetInvariant) {
  // Pseudo-random multi-fault schedules, mid-run checkpoints included:
  // whatever fails, acked ⊆ recovered ⊆ acked ∪ errored.
  for (uint64_t seed : {11u, 23u, 47u, 91u}) {
    SCOPED_TRACE(StrCat("seed=", seed));
    const std::string dir = FreshDir(StrCat("seeded", seed));
    SweepRun run;
    {
      Engine engine(DurableOpts(dir, DurabilityLevel::kSync));
      ASSERT_TRUE(engine.Recover().ok());
      FaultInjector::Instance().ArmSeeded(seed, 5);
      for (int i = 0; i < 30; ++i) {
        Result<MutationBatch::ApplyReport> r =
            engine.ApplyBatch(InsertBatch({i}));
        if (r.ok()) {
          run.acked.insert(i);
        } else {
          run.errored.insert(i);
        }
        // Periodic checkpoints, themselves subject to the schedule.
        if (i % 10 == 9) (void)engine.Checkpoint();
      }
      FaultInjector::Instance().Disarm();
    }
    FaultInjector::Instance().Disarm();
    Engine engine(DurableOpts(dir, DurabilityLevel::kSync));
    Result<RecoveryReport> boot = engine.Recover();
    ASSERT_TRUE(boot.ok()) << boot.status();
    std::set<int> recovered = Facts(&engine);
    for (int k : run.acked) {
      EXPECT_EQ(recovered.count(k), 1u) << "acked f(" << k << ") lost";
    }
    for (int k : recovered) {
      EXPECT_TRUE(run.acked.count(k) == 1 || run.errored.count(k) == 1)
          << "f(" << k << ") was never submitted";
    }
  }
}

// --- Group commit under concurrency (tsan target) --------------------------

TEST_F(WalTest, GroupCommitEightConcurrentWriters) {
  const std::string dir = FreshDir("group8");
  constexpr int kWriters = 8;
  constexpr int kBatchesPerWriter = 25;
  std::set<int> expected;
  {
    // A small linger makes the fsync amortization deterministic: each
    // leader waits long enough for the other writers to join its group.
    EngineOptions opts = DurableOpts(dir, DurabilityLevel::kGroupCommit);
    opts.wal_group_linger = std::chrono::microseconds(300);
    Engine engine(opts);
    ASSERT_TRUE(engine.Recover().ok());
    std::atomic<int> failures{0};
    std::vector<std::thread> writers;
    writers.reserve(kWriters);
    for (int w = 0; w < kWriters; ++w) {
      writers.emplace_back([&engine, &failures, w] {
        Session session = engine.OpenSession();
        for (int i = 0; i < kBatchesPerWriter; ++i) {
          MutationBatch b;
          b.Insert(StrCat("f(", w * 1000 + i, ")"));
          Response resp = session.Execute(Command::MutateBatch(b));
          if (!resp.status.ok()) failures.fetch_add(1);
        }
      });
    }
    // A checkpoint races the writers mid-run: it must drain, rotate, and
    // leave every already-acked commit durable.
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    ASSERT_TRUE(engine.Checkpoint().ok());
    for (std::thread& t : writers) t.join();
    ASSERT_EQ(failures.load(), 0);
    // Every committed LSN was durable before its ack returned.
    EXPECT_EQ(engine.durable_lsn(),
              static_cast<uint64_t>(kWriters * kBatchesPerWriter));
    expected = Facts(&engine);
    EXPECT_EQ(expected.size(),
              static_cast<size_t>(kWriters * kBatchesPerWriter));
    // The fsync count is the amortization: far fewer syncs than commits.
    EXPECT_LT(engine.wal_status().syncs,
              static_cast<uint64_t>(kWriters * kBatchesPerWriter));
  }
  Engine engine(DurableOpts(dir, DurabilityLevel::kGroupCommit));
  ASSERT_TRUE(engine.Recover().ok());
  EXPECT_EQ(Facts(&engine), expected);
}

TEST_F(WalTest, CommitPumpStartFailureIsReturnedAndLogClosed) {
  // Regression: a pump thread that failed to start used to leave the
  // engine believing it ran — group commits waited forever and the
  // destructor joined a thread that never existed (std::terminate).
  const std::string dir = FreshDir("pump_start");
  {
    Engine engine(DurableOpts(dir, DurabilityLevel::kGroupCommit));
    // Recover is the one place that opens a log.
    FaultInjector::Instance().ArmNth(FaultOp::kThreadStart, 1);
    Result<RecoveryReport> boot = engine.Recover();
    EXPECT_EQ(boot.status().code(), StatusCode::kResourceExhausted)
        << boot.status();
    EXPECT_FALSE(engine.wal_status().open);
    EXPECT_EQ(FaultInjector::Instance().injected(FaultOp::kThreadStart), 1u);
    FaultInjector::Instance().Disarm();

    // A retry opens the log and group commits ack again.
    ASSERT_TRUE(engine.Recover().ok());
    ASSERT_TRUE(engine.wal_status().open);
    ASSERT_TRUE(engine.ApplyBatch(InsertBatch({1})).ok());
    EXPECT_EQ(engine.durable_lsn(), 1u);
  }
  ExpectRecoversExactly(dir, {1});
}

// --- Data-directory lifecycle ---------------------------------------------

/// Flips one payload byte of the \p nth record (0-based) of the log at
/// \p path in place: that record fails its checksum and every later one
/// stays valid, which is mid-log damage rather than a torn tail.
void DamageRecord(const std::string& path, int nth) {
  std::string data = ReadFile(path);
  size_t at = data.find("GNWR");
  for (int i = 0; i < nth && at != std::string::npos; ++i) {
    at = data.find("GNWR", at + 1);
  }
  ASSERT_NE(at, std::string::npos);
  data[at + 30] ^= 0x40;  // inside the record's payload
  WriteFile(path, data);
}

TEST_F(WalTest, FailedStrictRecoverAtBootRefusesWritesAndKeepsFiles) {
  // A strict Recover that refuses mid-log damage leaves the engine without
  // a log. Until a Recover succeeds, writes are refused rather than acked
  // unlogged, and no file of the data directory changes.
  const std::string dir = FreshDir("strict_boot");
  {
    Engine engine(DurableOpts(dir, DurabilityLevel::kSync));
    ASSERT_TRUE(engine.Recover().ok());
    ASSERT_TRUE(engine.ApplyBatch(InsertBatch({1, 2})).ok());
    ASSERT_TRUE(engine.Checkpoint().ok());
    for (int k : {3, 4, 5}) {
      ASSERT_TRUE(engine.ApplyBatch(InsertBatch({k})).ok());
    }
  }
  DamageRecord(dir + "/wal.log", 1);  // f(4)'s record; f(5)'s follows it
  const std::string checkpoint = ReadFile(dir + "/checkpoint.facts");
  const std::string log = ReadFile(dir + "/wal.log");
  {
    Engine engine(DurableOpts(dir, DurabilityLevel::kSync));
    EXPECT_FALSE(engine.Recover().ok());
    EXPECT_FALSE(engine.wal_status().open);
    Result<MutationBatch::ApplyReport> applied =
        engine.ApplyBatch(InsertBatch({9}));
    EXPECT_EQ(applied.status().code(), StatusCode::kFailedPrecondition)
        << applied.status();
    Status cp = engine.Checkpoint();
    EXPECT_EQ(cp.code(), StatusCode::kFailedPrecondition) << cp;
    EXPECT_EQ(engine.durable_lsn(), 0u);
  }
  EXPECT_EQ(ReadFile(dir + "/checkpoint.facts"), checkpoint);
  EXPECT_EQ(ReadFile(dir + "/wal.log"), log);

  EngineOptions salvage = DurableOpts(dir, DurabilityLevel::kSync);
  salvage.wal_recovery = RecoveryMode::kSalvage;
  Engine engine(salvage);
  Result<RecoveryReport> boot = engine.Recover();
  ASSERT_TRUE(boot.ok()) << boot.status();
  EXPECT_EQ(Facts(&engine), (std::set<int>{1, 2, 3, 5})) << boot->Summary();
}

TEST_F(WalTest, FailedStrictRecoverKeepsTheOpenLogAndTheEdb) {
  // A Recover that fails on an engine whose log is open changes nothing:
  // the EDB keeps its rows, the log stays open, and the next batch is
  // durable in it.
  const std::string dir = FreshDir("strict_open");
  {
    Engine engine(DurableOpts(dir, DurabilityLevel::kSync));
    ASSERT_TRUE(engine.Recover().ok());
    for (int k : {1, 2, 3}) {
      ASSERT_TRUE(engine.ApplyBatch(InsertBatch({k})).ok());
    }
    DamageRecord(dir + "/wal.log", 1);  // f(2)'s record; f(3)'s follows it
    EXPECT_FALSE(engine.Recover().ok());
    ASSERT_TRUE(engine.wal_status().open);
    EXPECT_EQ(Facts(&engine), (std::set<int>{1, 2, 3}));
    ASSERT_TRUE(engine.ApplyBatch(InsertBatch({4})).ok());
    EXPECT_EQ(engine.durable_lsn(), 4u);
  }
  EngineOptions salvage = DurableOpts(dir, DurabilityLevel::kSync);
  salvage.wal_recovery = RecoveryMode::kSalvage;
  Engine engine(salvage);
  Result<RecoveryReport> boot = engine.Recover();
  ASSERT_TRUE(boot.ok()) << boot.status();
  EXPECT_EQ(Facts(&engine), (std::set<int>{1, 3, 4})) << boot->Summary();
}

TEST_F(WalTest, FailedSalvageResetClosesTheLogItReplaced) {
  // A salvage reset saves the staged image and replaces wal.log. If it
  // then fails (here: the new log's pump cannot start), the open log's
  // file is gone, so the engine keeps no log and refuses writes rather
  // than append them to an unlinked file.
  const std::string dir = FreshDir("salvage_reset");
  EngineOptions opts = DurableOpts(dir, DurabilityLevel::kGroupCommit);
  opts.wal_recovery = RecoveryMode::kSalvage;
  Engine engine(opts);
  ASSERT_TRUE(engine.Recover().ok());
  for (int k : {1, 2, 3}) {
    ASSERT_TRUE(engine.ApplyBatch(InsertBatch({k})).ok());
  }
  DamageRecord(dir + "/wal.log", 1);  // f(2)'s record
  FaultInjector::Instance().ArmNth(FaultOp::kThreadStart, 1);
  Result<RecoveryReport> failed = engine.Recover();
  FaultInjector::Instance().Disarm();
  EXPECT_EQ(failed.status().code(), StatusCode::kResourceExhausted)
      << failed.status();
  EXPECT_FALSE(engine.wal_status().open);
  EXPECT_EQ(Facts(&engine), (std::set<int>{1, 2, 3}));
  Result<MutationBatch::ApplyReport> refused =
      engine.ApplyBatch(InsertBatch({4}));
  EXPECT_EQ(refused.status().code(), StatusCode::kFailedPrecondition)
      << refused.status();

  Result<RecoveryReport> boot = engine.Recover();
  ASSERT_TRUE(boot.ok()) << boot.status();
  EXPECT_EQ(Facts(&engine), (std::set<int>{1, 3})) << boot->Summary();
  ASSERT_TRUE(engine.ApplyBatch(InsertBatch({4})).ok());
}

TEST_F(WalTest, WritesBeforeRecoverAreRefusedAndChangeNoFile) {
  // Only Recover opens the log. Before it, a checkpoint would overwrite an
  // image the engine never loaded, and a batch would be acked unlogged.
  const std::string dir = FreshDir("before_recover");
  {
    Engine engine(DurableOpts(dir, DurabilityLevel::kSync));
    ASSERT_TRUE(engine.Recover().ok());
    ASSERT_TRUE(engine.ApplyBatch(InsertBatch({1})).ok());
    ASSERT_TRUE(engine.Checkpoint().ok());
    ASSERT_TRUE(engine.ApplyBatch(InsertBatch({2})).ok());
    ASSERT_TRUE(engine.SaveEdbFile(dir + "/other.facts").ok());
  }
  const std::string checkpoint = ReadFile(dir + "/checkpoint.facts");
  const std::string log = ReadFile(dir + "/wal.log");
  Engine engine(DurableOpts(dir, DurabilityLevel::kSync));
  Result<MutationBatch::ApplyReport> applied =
      engine.ApplyBatch(InsertBatch({3}));
  EXPECT_EQ(applied.status().code(), StatusCode::kFailedPrecondition)
      << applied.status();
  Status cp = engine.Checkpoint();
  EXPECT_EQ(cp.code(), StatusCode::kFailedPrecondition) << cp;
  Result<LoadReport> loaded = engine.LoadEdbFile(dir + "/other.facts");
  EXPECT_EQ(loaded.status().code(), StatusCode::kFailedPrecondition)
      << loaded.status();
  EXPECT_EQ(ReadFile(dir + "/checkpoint.facts"), checkpoint);
  EXPECT_EQ(ReadFile(dir + "/wal.log"), log);

  ASSERT_TRUE(engine.Recover().ok());
  EXPECT_EQ(Facts(&engine), (std::set<int>{1, 2}));
}

// --- Recover against in-flight commits ------------------------------------

TEST_F(WalTest, RecoverRefusesWhileCommitsAreInFlight) {
  // Recover replaces the commit log, which a commit between its append
  // and its ack still uses. While four group-commit writers run, every
  // Recover either succeeds or refuses with FailedPrecondition, and no
  // acked batch is lost.
  const std::string dir = FreshDir("recover_race");
  constexpr int kWriters = 4;
  constexpr int kBatches = 40;
  std::set<int> acked;
  {
    Engine engine(DurableOpts(dir, DurabilityLevel::kGroupCommit));
    ASSERT_TRUE(engine.Recover().ok());
    std::atomic<int> writers_left{kWriters};
    std::vector<std::set<int>> acked_by(kWriters);
    std::vector<std::thread> writers;
    for (int w = 0; w < kWriters; ++w) {
      writers.emplace_back([&engine, &writers_left, &acked_by, w] {
        for (int i = 0; i < kBatches; ++i) {
          const int key = w * 1000 + i;
          Result<MutationBatch::ApplyReport> r =
              engine.ApplyBatch(InsertBatch({key}));
          EXPECT_TRUE(r.ok()) << r.status();
          if (r.ok()) acked_by[w].insert(key);
        }
        writers_left.fetch_sub(1);
      });
    }
    int recovered = 0;
    int refused = 0;
    while (writers_left.load() > 0) {
      Result<RecoveryReport> r = engine.Recover();
      if (r.ok()) {
        ++recovered;
      } else {
        EXPECT_EQ(r.status().code(), StatusCode::kFailedPrecondition)
            << r.status();
        ++refused;
      }
      std::this_thread::yield();
    }
    for (std::thread& t : writers) t.join();
    EXPECT_GT(recovered + refused, 0);
    for (const std::set<int>& keys : acked_by) {
      acked.insert(keys.begin(), keys.end());
    }
    EXPECT_EQ(acked.size(), static_cast<size_t>(kWriters * kBatches));
    EXPECT_EQ(Facts(&engine), acked);
    // Quiescent again: Recover proceeds and keeps every acked batch.
    ASSERT_TRUE(engine.Recover().ok());
    EXPECT_EQ(Facts(&engine), acked);
  }
  ExpectRecoversExactly(dir, acked);
}

// --- Live-snapshot guard ---------------------------------------------------

TEST_F(WalTest, RecoverAndLoadRefuseWhileSnapshotsLive) {
  const std::string dir = FreshDir("guard");
  Engine engine(DurableOpts(dir, DurabilityLevel::kGroupCommit));
  ASSERT_TRUE(engine.Recover().ok());
  ASSERT_TRUE(engine.ApplyBatch(InsertBatch({1})).ok());
  WriteFile(dir + "/manual.facts", "f(2).\n");
  {
    Result<EngineSnapshot> snap = engine.snapshot();
    ASSERT_TRUE(snap.ok());
    // A reader holds a point-in-time view: the engine must refuse to swap
    // histories underneath it.
    EXPECT_FALSE(engine.Recover().ok());
    // A file load is a commit, like ApplyBatch: it proceeds, and the
    // snapshot keeps reading the view it was taken at.
    EXPECT_TRUE(engine.LoadEdbFile(dir + "/manual.facts").ok());
    EXPECT_EQ(Facts(&engine), (std::set<int>{1, 2}));
    ASSERT_EQ(snap->edb().num_relations(), 1u);
    Result<TermId> f = engine.InternTerm("f");
    ASSERT_TRUE(f.ok());
    const RelationSnapshot* rel = snap->edb().Find(*f, 1);
    ASSERT_NE(rel, nullptr);
    ASSERT_EQ(rel->size(), 1u);
    EXPECT_EQ(engine.terms().IntValue(rel->tuples[0][0]), 1);
  }
  // Snapshot dropped: Recover proceeds again and keeps the load.
  EXPECT_TRUE(engine.Recover().ok());
  EXPECT_EQ(Facts(&engine), (std::set<int>{1, 2}));
}

TEST_F(WalTest, CheckpointRefusesAFactRecoverCouldNotReadBack) {
  // A statement builds terms without reading text, so it can store a fact
  // one level past the fact reader's bound. Checkpoint refuses to save it
  // and keeps the last checkpoint, so the directory still recovers.
  const std::string dir = FreshDir("deep_fact");
  std::string fact = "r(";
  for (size_t i = 1; i < kMaxTermNesting; ++i) fact += "s(";
  fact += "0";
  fact.append(kMaxTermNesting, ')');
  {
    Engine engine(DurableOpts(dir, DurabilityLevel::kSync));
    ASSERT_TRUE(engine.Recover().ok());
    ASSERT_TRUE(engine.AddFact(fact).ok());
    ASSERT_TRUE(engine.Checkpoint().ok());  // the bound itself saves
    ASSERT_TRUE(engine.ExecuteStatement("r(s(X)) := r(X).").ok());
    Status st = engine.Checkpoint();
    EXPECT_TRUE(st.IsInvalidArgument()) << st;
    EXPECT_NE(st.message().find(StrCat("r/1 holds a fact nested ",
                                       kMaxTermNesting + 1, " levels deep")),
              std::string::npos)
        << st;
  }
  Engine engine(DurableOpts(dir, DurabilityLevel::kSync));
  Result<RecoveryReport> boot = engine.Recover();
  ASSERT_TRUE(boot.ok()) << boot.status();
  Result<std::vector<Tuple>> rows = engine.RelationContents("r", 1);
  ASSERT_TRUE(rows.ok()) << rows.status();
  ASSERT_EQ(rows->size(), 1u);
  Result<TermId> r = engine.InternTerm("r");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(FactLevels(engine.terms(), *r, (*rows)[0]), kMaxTermNesting);
}

TEST_F(WalTest, MalformedBatchNeverReachesTheLog) {
  const std::string dir = FreshDir("malformed");
  Engine engine(DurableOpts(dir, DurabilityLevel::kSync));
  ASSERT_TRUE(engine.Recover().ok());
  MutationBatch bad;
  bad.Insert("f(1)");
  bad.Insert("not a fact ((");
  EXPECT_FALSE(engine.ApplyBatch(bad).ok());
  EXPECT_EQ(engine.wal_status().appends, 0u);
  EXPECT_EQ(Facts(&engine), std::set<int>{});
}

}  // namespace
}  // namespace gluenail
