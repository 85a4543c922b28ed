/// \file commit_log_test.cc
/// \brief CommitLog on its own, with no Engine: the ack promise of every
/// durability level under injected fsync failures, epoch release on
/// Rotate, Drain on a broken log, and fsync sharing among concurrent
/// group-commit appenders (the tsan target for the commit pipeline).

#include "src/storage/commit_log.h"

#include <gtest/gtest.h>

#include <stdlib.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <fstream>
#include <future>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/common/fault_injector.h"
#include "src/common/strings.h"

namespace gluenail {
namespace {

std::string FreshLogPath(const std::string& tag) {
  std::string tmpl =
      testing::TempDir() + "/gluenail_commit_log_" + tag + "_XXXXXX";
  std::vector<char> buf(tmpl.begin(), tmpl.end());
  buf.push_back('\0');
  EXPECT_NE(::mkdtemp(buf.data()), nullptr) << tmpl;
  return std::string(buf.data()) + "/wal.log";
}

std::unique_ptr<CommitLog> OpenLog(const std::string& path,
                                   CommitLogOptions options) {
  Result<std::unique_ptr<Wal>> wal = Wal::Create(path, 1);
  EXPECT_TRUE(wal.ok()) << wal.status();
  if (!wal.ok()) return nullptr;
  Result<std::unique_ptr<CommitLog>> log =
      CommitLog::Open(std::move(*wal), options);
  EXPECT_TRUE(log.ok()) << log.status();
  return log.ok() ? std::move(*log) : nullptr;
}

MutationBatch OneFact(int k) {
  MutationBatch b;
  b.Insert(StrCat("f(", k, ")"));
  return b;
}

/// LSNs of the records that made it into the file at \p path.
std::set<uint64_t> LsnsOnDisk(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream data;
  data << in.rdbuf();
  Result<WalScanResult> scan = ScanWalBuffer(data.str());
  EXPECT_TRUE(scan.ok()) << scan.status();
  std::set<uint64_t> out;
  if (scan.ok()) {
    for (const WalScanRecord& r : scan->records) out.insert(r.lsn);
  }
  return out;
}

class CommitLogTest : public ::testing::Test {
 protected:
  void SetUp() override { FaultInjector::Instance().Disarm(); }
  void TearDown() override { FaultInjector::Instance().Disarm(); }
};

TEST_F(CommitLogTest, AckImpliesDurableUnderFsyncFailures) {
  // Fail the nth fsync. A kSync or kGroupCommit ack promises its record is
  // on disk when Await returns; a kAsync ack promises it once the durable
  // LSN covers it (a later piggybacked sync or a successful Drain). No
  // record so promised may be missing from the file.
  for (DurabilityLevel level :
       {DurabilityLevel::kSync, DurabilityLevel::kGroupCommit,
        DurabilityLevel::kAsync}) {
    for (uint64_t nth = 1; nth <= 3; ++nth) {
      SCOPED_TRACE(StrCat(DurabilityLevelName(level), " fsync nth=", nth));
      const std::string path = FreshLogPath("ack");
      CommitLogOptions opts;
      opts.durability = level;
      opts.fsync_interval = std::chrono::microseconds(0);
      std::set<uint64_t> acked;
      uint64_t promised = 0;  // every acked LSN <= this must be on disk
      int failed = 0;
      {
        std::unique_ptr<CommitLog> log = OpenLog(path, opts);
        ASSERT_NE(log, nullptr);
        FaultInjector::Instance().ArmNth(FaultOp::kFsync, nth);
        for (int i = 0; i < 5; ++i) {
          Result<CommitLog::Ticket> t = log->Append(OneFact(i));
          if (!t.ok() || !log->Await(*t).ok()) {
            ++failed;
            continue;
          }
          acked.insert(t->lsn);
          if (level == DurabilityLevel::kAsync) {
            promised = std::max(promised, log->durable_lsn());
          } else {
            EXPECT_GE(log->wal().durable_lsn(), t->lsn)
                << "acked before its fsync";
            promised = t->lsn;
          }
        }
        if (log->Drain().ok() && !acked.empty()) {
          promised = std::max(promised, *acked.rbegin());
        }
        FaultInjector::Instance().Disarm();
        EXPECT_GT(failed, 0) << "the injected fsync failure never surfaced";
      }
      const std::set<uint64_t> on_disk = LsnsOnDisk(path);
      for (uint64_t lsn : acked) {
        if (lsn > promised) continue;
        EXPECT_EQ(on_disk.count(lsn), 1u) << "acked lsn " << lsn << " lost";
      }
    }
  }
}

TEST_F(CommitLogTest, RotateReleasesWaitersByEpoch) {
  const std::string path = FreshLogPath("rotate");
  CommitLogOptions opts;
  opts.durability = DurabilityLevel::kGroupCommit;
  std::unique_ptr<CommitLog> log = OpenLog(path, opts);
  ASSERT_NE(log, nullptr);
  Result<CommitLog::Ticket> first = log->Append(OneFact(1));
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(log->Await(*first).ok());

  // A pre-rotation ticket the log will never reach in this epoch (as after
  // a failed fsync rolled the numbering back): its waiter parks.
  const CommitLog::Ticket stale{first->lsn + 5, first->epoch};
  std::future<Status> waiter = std::async(
      std::launch::async, [&log, stale] { return log->Await(stale); });
  EXPECT_EQ(waiter.wait_for(std::chrono::milliseconds(20)),
            std::future_status::timeout);

  ASSERT_TRUE(log->Rotate().ok());
  const bool released = waiter.wait_for(std::chrono::seconds(10)) ==
                        std::future_status::ready;
  EXPECT_TRUE(released) << "rotation left a pre-rotation waiter parked";
  if (!released) {
    // Unpark it by reaching its LSN, so the test fails instead of hanging.
    for (int i = 0; i < 6; ++i) {
      Result<CommitLog::Ticket> t = log->Append(OneFact(100 + i));
      if (t.ok()) (void)log->Await(*t);
    }
  }
  EXPECT_TRUE(waiter.get().ok());

  // The new epoch continues the LSN sequence and acks only after a real
  // fsync of the rotated log.
  Result<CommitLog::Ticket> next = log->Append(OneFact(2));
  ASSERT_TRUE(next.ok());
  EXPECT_EQ(next->epoch, first->epoch + 1);
  EXPECT_EQ(next->lsn, first->lsn + 1);
  ASSERT_TRUE(log->Await(*next).ok());
  EXPECT_GE(log->wal().durable_lsn(), next->lsn);
}

TEST_F(CommitLogTest, DrainOnBrokenLogFailsWithoutFsync) {
  const std::string path = FreshLogPath("broken");
  CommitLogOptions opts;
  opts.durability = DurabilityLevel::kSync;
  std::unique_ptr<CommitLog> log = OpenLog(path, opts);
  ASSERT_NE(log, nullptr);
  FaultInjector::Instance().ArmNth(FaultOp::kFsync, 1);
  EXPECT_FALSE(log->Append(OneFact(1)).ok());
  ASSERT_TRUE(log->wal().broken());

  const uint64_t fsyncs_before =
      FaultInjector::Instance().operations(FaultOp::kFsync);
  Status drained = log->Drain();
  EXPECT_EQ(drained.code(), StatusCode::kIoError) << drained;
  EXPECT_EQ(FaultInjector::Instance().operations(FaultOp::kFsync),
            fsyncs_before)
      << "Drain issued an fsync on a broken log";
}

TEST_F(CommitLogTest, ConcurrentAppendersShareFsyncs) {
  const std::string path = FreshLogPath("group");
  constexpr int kAppenders = 8;
  constexpr int kPerAppender = 25;
  MetricsRegistry registry;
  CommitLogOptions opts;
  opts.durability = DurabilityLevel::kGroupCommit;
  opts.group_linger = std::chrono::microseconds(300);
  opts.group_size = registry.RegisterHistogram(
      "gluenail_wal_group_commit_batches", "batches made durable per fsync");
  std::unique_ptr<CommitLog> log = OpenLog(path, opts);
  ASSERT_NE(log, nullptr);

  std::atomic<int> failures{0};
  std::vector<std::thread> appenders;
  for (int a = 0; a < kAppenders; ++a) {
    appenders.emplace_back([&log, &failures, a] {
      for (int i = 0; i < kPerAppender; ++i) {
        Result<CommitLog::Ticket> t = log->Append(OneFact(a * 1000 + i));
        if (!t.ok() || !log->Await(*t).ok()) {
          failures.fetch_add(1);
        } else if (log->durable_lsn() < t->lsn) {
          failures.fetch_add(1);  // acked before durable
        }
      }
    });
  }
  for (std::thread& t : appenders) t.join();
  EXPECT_EQ(failures.load(), 0);
  constexpr uint64_t kTotal = kAppenders * kPerAppender;
  EXPECT_EQ(log->durable_lsn(), kTotal);
  const Histogram& groups = *opts.group_size;
  EXPECT_EQ(groups.sum(), kTotal);
  EXPECT_LT(groups.count(), kTotal) << "no fsync was shared";
  EXPECT_LT(log->wal().counters().syncs.load(), kTotal);
}

}  // namespace
}  // namespace gluenail
