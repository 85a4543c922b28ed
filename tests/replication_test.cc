/// \file replication_test.cc
/// \brief Log-shipping replication suite: payload codecs, the replica
/// write fence (batches, inline and file EDB loads, statements, EXPLAIN
/// ANALYZE), primary->replica convergence to byte-identical query results
/// (EDB and IVM-maintained IDB), inline and file EDB loads shipped like
/// batches, rotated-log snapshot bootstrap, torn-stream and
/// primary-restart recovery, and the fault-injector sweep proving a
/// replica only ever holds an acked-durable prefix.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <fstream>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "src/api/command.h"
#include "src/api/engine.h"
#include "src/common/fault_injector.h"
#include "src/common/strings.h"
#include "src/server/client.h"
#include "src/server/protocol.h"
#include "src/server/replication.h"
#include "src/server/server.h"
#include "src/storage/mutation_batch.h"
#include "src/storage/persistence.h"

namespace gluenail {
namespace {

std::string FreshDir(const std::string& tag) {
  std::string tmpl = testing::TempDir() + "/gluenail_repl_" + tag + "_XXXXXX";
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

/// Every f/1 fact as its integer — the differential oracle's view.
std::set<int> Facts(Engine* engine) {
  Result<std::vector<Tuple>> rows = engine->RelationContents("f", 1);
  std::set<int> out;
  if (!rows.ok()) return out;
  for (const Tuple& t : *rows) {
    out.insert(static_cast<int>(engine->terms().IntValue(t[0])));
  }
  return out;
}

EngineOptions PrimaryOpts(const std::string& dir) {
  EngineOptions opts;
  opts.data_dir = dir;
  opts.durability = DurabilityLevel::kSync;
  return opts;
}

EngineOptions ReplicaOpts(const std::string& hint = "") {
  EngineOptions opts;
  opts.replica = true;
  opts.primary_hint = hint;
  return opts;
}

ReplicationClientOptions TailOpts(uint16_t port) {
  ReplicationClientOptions opts;
  opts.host = "127.0.0.1";
  opts.port = port;
  opts.reconnect_initial = std::chrono::milliseconds(5);
  opts.reconnect_max = std::chrono::milliseconds(50);
  return opts;
}

bool WaitUntil(const std::function<bool()>& pred,
               std::chrono::milliseconds timeout =
                   std::chrono::milliseconds(10000)) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return pred();
}

/// The replica has applied everything the primary acked as durable.
bool CaughtUp(Engine* primary, Engine* replica) {
  // Engine::durable_lsn is the monotonic acked watermark; the raw
  // Wal::durable_lsn resets when a checkpoint rotates the log.
  return replica->replica_applied_lsn() >= primary->durable_lsn();
}

/// Query over the wire, rows rendered to sorted text — the unit of the
/// byte-identical differential comparison.
std::vector<std::string> WireRows(Client* client, const std::string& goal) {
  Result<WireResponse> r = client->Execute(Command::Query(goal));
  EXPECT_TRUE(r.ok()) << r.status();
  if (!r.ok()) return {};
  EXPECT_TRUE(r->ok()) << r->status;
  std::vector<std::string> rows;
  for (const std::vector<std::string>& row : r->rows) {
    std::string line;
    for (const std::string& cell : row) {
      line += cell;
      line += '|';
    }
    rows.push_back(std::move(line));
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

class ReplTest : public ::testing::Test {
 protected:
  void SetUp() override { FaultInjector::Instance().Disarm(); }
  void TearDown() override { FaultInjector::Instance().Disarm(); }
};

// --- Checkpoint image bootstrap ---------------------------------------------

TEST_F(ReplTest, CorruptCheckpointImageLeavesReplicaIntact) {
  // A damaged bootstrap image is refused before the replica clears its
  // EDB: the rows and the applied LSN stay as they were.
  TermPool pool;
  Database source(&pool);
  Relation* f = source.GetOrCreate(pool.MakeSymbol("f"), 1);
  for (int k : {1, 2, 3}) f->Insert(Tuple{pool.MakeInt(k)});
  source.GetOrCreate(pool.MakeSymbol("g"), 2);  // empty, kept
  const std::string image = *SerializeDatabase(source);

  Engine replica(ReplicaOpts());
  ASSERT_TRUE(replica.ResetFromCheckpointImage(7, image).ok());
  EXPECT_EQ(Facts(&replica), (std::set<int>{1, 2, 3}));
  Result<std::vector<Tuple>> g = replica.RelationContents("g", 2);
  ASSERT_TRUE(g.ok()) << g.status();
  EXPECT_TRUE(g->empty());
  EXPECT_EQ(replica.replica_applied_lsn(), 7u);

  std::string torn = image.substr(0, image.size() - 3);
  std::string flipped = image;
  flipped[flipped.rfind('3')] = '9';
  for (const std::string& bad : {torn, flipped}) {
    EXPECT_FALSE(replica.ResetFromCheckpointImage(9, bad).ok());
    EXPECT_EQ(Facts(&replica), (std::set<int>{1, 2, 3}));
    EXPECT_EQ(replica.replica_applied_lsn(), 7u);
  }
}

// --- Payload codecs --------------------------------------------------------

TEST_F(ReplTest, SubscribeCodecRoundTripsAndValidates) {
  Result<uint64_t> from = DecodeReplSubscribe(EncodeReplSubscribe(42));
  ASSERT_TRUE(from.ok()) << from.status();
  EXPECT_EQ(*from, 42u);

  // Wrong version byte.
  std::string bad = EncodeReplSubscribe(1);
  bad[0] = 9;
  EXPECT_FALSE(DecodeReplSubscribe(bad).ok());
  // Truncated and trailing bytes.
  EXPECT_FALSE(DecodeReplSubscribe(bad.substr(0, 4)).ok());
  EXPECT_FALSE(DecodeReplSubscribe(EncodeReplSubscribe(1) + "x").ok());
}

TEST_F(ReplTest, RecordCodecRoundTripsBothKinds) {
  Result<ReplRecord> batch =
      DecodeReplRecord(EncodeReplBatch(7, "%% batch text"));
  ASSERT_TRUE(batch.ok()) << batch.status();
  EXPECT_EQ(batch->kind, ReplRecordKind::kBatch);
  EXPECT_EQ(batch->lsn, 7u);
  EXPECT_EQ(batch->body, "%% batch text");

  Result<ReplRecord> snap =
      DecodeReplRecord(EncodeReplSnapshot(12, "image bytes"));
  ASSERT_TRUE(snap.ok()) << snap.status();
  EXPECT_EQ(snap->kind, ReplRecordKind::kSnapshot);
  EXPECT_EQ(snap->lsn, 12u);
  EXPECT_EQ(snap->body, "image bytes");

  std::string unknown = EncodeReplBatch(1, "x");
  unknown[0] = 5;
  EXPECT_FALSE(DecodeReplRecord(unknown).ok());
  EXPECT_FALSE(DecodeReplRecord(EncodeReplBatch(1, "x") + "y").ok());

  Result<uint64_t> hb = DecodeReplHeartbeat(EncodeReplHeartbeat(99));
  ASSERT_TRUE(hb.ok());
  EXPECT_EQ(*hb, 99u);
  EXPECT_FALSE(DecodeReplHeartbeat("abc").ok());
}

// --- The replica write fence ----------------------------------------------

TEST_F(ReplTest, ReplicaRefusesMutationsWithFailedPrecondition) {
  Engine replica(ReplicaOpts("primary.example:4000"));
  // Direct API path.
  Result<MutationBatch::ApplyReport> direct =
      replica.ApplyBatch(InsertBatch({1}));
  ASSERT_FALSE(direct.ok());
  EXPECT_EQ(direct.status().code(), StatusCode::kFailedPrecondition);

  // Wire path: the code survives the trip and the message points the
  // client at the primary.
  Server server(&replica, ServerOptions{});
  ASSERT_TRUE(server.Start().ok());
  Result<Client> client = Client::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());
  Result<WireResponse> r =
      client->Execute(Command::MutateBatch(InsertBatch({1})));
  ASSERT_TRUE(r.ok()) << r.status();  // transport fine, engine said no
  EXPECT_FALSE(r->ok());
  EXPECT_EQ(r->status.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(r->status.message().find("primary.example:4000"),
            std::string::npos);

  // Reads still serve.
  EXPECT_TRUE(client->Ping().ok());
}

TEST_F(ReplTest, ReplicaFencesEveryEdbWriteCommand) {
  // Inline and file EDB loads, Glue statements and EXPLAIN ANALYZE (which
  // runs its statement) write the EDB too: each is answered with wire
  // error 10 and leaves the replica's EDB as the stream built it.
  const std::string file = FreshDir("fence") + "/edb.facts";
  {
    Engine source;
    ASSERT_TRUE(source.AddFact("f(7).").ok());
    ASSERT_TRUE(source.SaveEdbFile(file).ok());
  }
  Engine replica(ReplicaOpts());
  ASSERT_TRUE(replica.ApplyReplicatedBatch(1, InsertBatch({1})).ok());
  Server server(&replica, ServerOptions{});
  ASSERT_TRUE(server.Start().ok());
  Result<Client> client = Client::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());
  // A refused write is refused before its text is parsed: no term of
  // `f(fenced_only_symbol).` reaches the replica's pool.
  const size_t terms_before = replica.terms().size();
  for (const Command& cmd :
       {Command::LoadEdbText("f(fenced_only_symbol)."),
        Command::LoadEdbFile(file),
        Command::MutateStatement("f(X) += X = 3."),
        Command::Explain("f(X) += X = 3.", /*analyze=*/true)}) {
    SCOPED_TRACE(CommandKindToString(cmd.kind));
    Result<WireResponse> r = client->Execute(cmd);
    ASSERT_TRUE(r.ok()) << r.status();
    EXPECT_EQ(static_cast<int>(WireErrorFromStatus(r->status.code())), 10)
        << r->status;
  }
  EXPECT_EQ(replica.terms().size(), terms_before);
  EXPECT_EQ(Facts(&replica), std::set<int>{1});
  // A plain EXPLAIN runs nothing, so a replica still answers it.
  Result<WireResponse> plan =
      client->Execute(Command::Explain("f(X) += X = 3."));
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_TRUE(plan->ok()) << plan->status;
  EXPECT_NE(plan->text.find("head: += edb f/1"), std::string::npos)
      << plan->text;
  EXPECT_EQ(Facts(&replica), std::set<int>{1});
  server.Stop();
}

// --- Convergence (the differential test) ----------------------------------

constexpr char kGraphProgram[] = R"(
module kb;
edb edge(X,Y);
edb f(X);
reach(X,Y) :- edge(X,Y).
reach(X,Z) :- reach(X,Y) & edge(Y,Z).
end
)";

TEST_F(ReplTest, ReplicaConvergesToByteIdenticalQueryResults) {
  const std::string dir = FreshDir("converge");
  Engine primary(PrimaryOpts(dir));
  ASSERT_TRUE(primary.Recover().ok());
  ASSERT_TRUE(primary.LoadProgram(kGraphProgram).ok());
  Server primary_server(&primary, ServerOptions{});
  ASSERT_TRUE(primary_server.Start().ok());

  // The replica runs the same rules; its facts come from the stream.
  Engine replica(ReplicaOpts());
  ASSERT_TRUE(replica.LoadProgram(kGraphProgram).ok());
  Server replica_server(&replica, ServerOptions{});
  ASSERT_TRUE(replica_server.Start().ok());
  ReplicationClient tail(&replica, TailOpts(primary_server.port()));
  ASSERT_TRUE(tail.Start().ok());

  // A server_test-style workload against the primary: inserts, erases,
  // strings, several relations.
  Result<Client> writer = Client::Connect("127.0.0.1", primary_server.port());
  ASSERT_TRUE(writer.ok());
  for (int round = 0; round < 10; ++round) {
    MutationBatch batch;
    batch.Insert(StrCat("edge(", round, ",", round + 1, ")"));
    batch.Insert(StrCat("f(", round, ")"));
    batch.Insert(StrCat("tag('round_", round, "', ", round * round, ")"));
    if (round % 3 == 2) batch.Erase(StrCat("f(", round - 1, ")"));
    Result<WireResponse> r =
        writer->Execute(Command::MutateBatch(std::move(batch)));
    ASSERT_TRUE(r.ok()) << r.status();
    ASSERT_TRUE(r->ok()) << r->status;
  }

  ASSERT_TRUE(WaitUntil([&] { return CaughtUp(&primary, &replica); }))
      << "replica lag never reached zero";

  // Byte-identical answers over the wire, EDB and recursive IDB alike
  // (the replica's reach/2 memo is maintained incrementally per batch).
  Result<Client> rp = Client::Connect("127.0.0.1", primary_server.port());
  Result<Client> rr = Client::Connect("127.0.0.1", replica_server.port());
  ASSERT_TRUE(rp.ok());
  ASSERT_TRUE(rr.ok());
  for (const char* goal :
       {"edge(X,Y)", "f(X)", "tag(N,S)", "reach(X,Y)", "reach(0,Y)"}) {
    SCOPED_TRACE(goal);
    std::vector<std::string> want = WireRows(&*rp, goal);
    std::vector<std::string> got = WireRows(&*rr, goal);
    EXPECT_FALSE(want.empty());
    EXPECT_EQ(got, want);
  }

  // Replica-side observability: applied/lag metrics are exported.
  std::string dump = replica.DumpMetrics();
  EXPECT_NE(dump.find("gluenail_repl_applied_lsn"), std::string::npos);
  EXPECT_NE(dump.find("gluenail_repl_lag"), std::string::npos);
  EXPECT_NE(dump.find("gluenail_repl_batches_applied_total"),
            std::string::npos);
  // Primary-side: subscriber + shipped counters.
  std::string pdump = primary.DumpMetrics();
  EXPECT_NE(pdump.find("gluenail_repl_subscribers"), std::string::npos);
  EXPECT_NE(pdump.find("gluenail_repl_records_shipped_total"),
            std::string::npos);

  tail.Stop();
  replica_server.Stop();
  primary_server.Stop();
}

TEST_F(ReplTest, InlineEdbLoadReachesTheReplica) {
  // An inline load is an insert batch on the primary's one durable write
  // path, so it ships like any other commit.
  const std::string dir = FreshDir("inline_load");
  Engine primary(PrimaryOpts(dir));
  ASSERT_TRUE(primary.Recover().ok());
  Server server(&primary, ServerOptions{});
  ASSERT_TRUE(server.Start().ok());
  Engine replica(ReplicaOpts());
  ReplicationClient tail(&replica, TailOpts(server.port()));
  ASSERT_TRUE(tail.Start().ok());

  Result<Client> client = Client::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());
  Result<WireResponse> r =
      client->Execute(Command::LoadEdbText("f(1).\nf(2).\nf(3).\n"));
  ASSERT_TRUE(r.ok()) << r.status();
  ASSERT_TRUE(r->ok()) << r->status;
  ASSERT_TRUE(WaitUntil([&] { return CaughtUp(&primary, &replica); }));
  EXPECT_EQ(Facts(&replica), (std::set<int>{1, 2, 3}));
  EXPECT_EQ(replica.replica_applied_lsn(), 1u);  // one load, one record

  tail.Stop();
  server.Stop();
}

TEST_F(ReplTest, FileEdbLoadReachesTheReplica) {
  // A file load commits its facts as one logged batch between the batches
  // around it, so a caught-up replica receives it in LSN order, without a
  // snapshot bootstrap.
  const std::string dir = FreshDir("file_load");
  const std::string file = dir + "/load.facts";
  {
    std::ofstream os(file);
    os << "f(7).\nf(8).\n";
  }
  Engine primary(PrimaryOpts(dir));
  ASSERT_TRUE(primary.Recover().ok());
  Server server(&primary, ServerOptions{});
  ASSERT_TRUE(server.Start().ok());
  Engine replica(ReplicaOpts());
  ReplicationClient tail(&replica, TailOpts(server.port()));
  ASSERT_TRUE(tail.Start().ok());

  ASSERT_TRUE(primary.ApplyBatch(InsertBatch({1, 2})).ok());
  ASSERT_TRUE(WaitUntil([&] { return CaughtUp(&primary, &replica); }));
  Result<LoadReport> loaded = primary.LoadEdbFile(file);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->facts_loaded, 2u);
  ASSERT_TRUE(primary.ApplyBatch(InsertBatch({3})).ok());
  ASSERT_TRUE(WaitUntil([&] { return CaughtUp(&primary, &replica); }));
  EXPECT_EQ(Facts(&primary), (std::set<int>{1, 2, 3, 7, 8}));
  EXPECT_EQ(Facts(&replica), Facts(&primary));
  EXPECT_EQ(replica.replica_applied_lsn(), 3u);  // batch, load, batch
  EXPECT_EQ(tail.snapshots_applied(), 0u);

  tail.Stop();
  server.Stop();
}

TEST_F(ReplTest, SubscriberFollowsTheLogAcrossAPrimaryRecover) {
  // Recover replaces the primary's commit log. A subscriber that kept the
  // old log would read freed memory and never see later commits; it must
  // look the current log up on every poll.
  const std::string dir = FreshDir("recover");
  Engine primary(PrimaryOpts(dir));
  ASSERT_TRUE(primary.Recover().ok());
  Server server(&primary, ServerOptions{});
  ASSERT_TRUE(server.Start().ok());
  Engine replica(ReplicaOpts());
  ReplicationClient tail(&replica, TailOpts(server.port()));
  ASSERT_TRUE(tail.Start().ok());

  ASSERT_TRUE(primary.ApplyBatch(InsertBatch({1, 2})).ok());
  ASSERT_TRUE(WaitUntil([&] { return CaughtUp(&primary, &replica); }));
  ASSERT_TRUE(primary.Recover().ok());
  ASSERT_TRUE(primary.ApplyBatch(InsertBatch({3})).ok());
  ASSERT_TRUE(WaitUntil([&] { return CaughtUp(&primary, &replica); }));
  EXPECT_EQ(Facts(&replica), Facts(&primary));
  EXPECT_EQ(Facts(&replica), (std::set<int>{1, 2, 3}));

  tail.Stop();
  server.Stop();
}

// --- Snapshot bootstrap ----------------------------------------------------

TEST_F(ReplTest, ReplicaBehindARotatedLogBootstrapsFromTheCheckpoint) {
  const std::string dir = FreshDir("bootstrap");
  Engine primary(PrimaryOpts(dir));
  ASSERT_TRUE(primary.Recover().ok());
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(primary.ApplyBatch(InsertBatch({i})).ok());
  }
  // The checkpoint rotates the WAL: LSNs 1..3 are no longer in the log,
  // so a replica subscribing from 1 cannot be served by records alone.
  ASSERT_TRUE(primary.Checkpoint().ok());
  ASSERT_TRUE(primary.ApplyBatch(InsertBatch({10})).ok());
  ASSERT_TRUE(primary.ApplyBatch(InsertBatch({11})).ok());

  Server server(&primary, ServerOptions{});
  ASSERT_TRUE(server.Start().ok());
  Engine replica(ReplicaOpts());
  ReplicationClient tail(&replica, TailOpts(server.port()));
  ASSERT_TRUE(tail.Start().ok());

  ASSERT_TRUE(WaitUntil([&] { return CaughtUp(&primary, &replica); }));
  EXPECT_EQ(Facts(&replica), (std::set<int>{0, 1, 2, 10, 11}));
  EXPECT_GE(tail.snapshots_applied(), 1u);
  EXPECT_EQ(tail.batches_applied(), 2u);  // only the post-rotation tail
  EXPECT_EQ(replica.replica_applied_lsn(), primary.durable_lsn());
  EXPECT_NE(replica.DumpMetrics().find("gluenail_repl_snapshot_bootstraps"),
            std::string::npos);

  tail.Stop();
  server.Stop();
}

// --- Stream damage ---------------------------------------------------------

/// A fake primary that serves each accepted connection one canned blob,
/// then closes it. Exercises the replica's torn-stream handling without a
/// real engine in the loop.
class FakePrimary {
 public:
  explicit FakePrimary(std::vector<std::string> blobs)
      : blobs_(std::move(blobs)) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd_, 0);
    int one = 1;
    ::setsockopt(fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr = {};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    EXPECT_EQ(::bind(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
              0);
    EXPECT_EQ(::listen(fd_, 8), 0);
    socklen_t len = sizeof(addr);
    EXPECT_EQ(::getsockname(fd_, reinterpret_cast<sockaddr*>(&addr), &len),
              0);
    port_ = ntohs(addr.sin_port);
    thread_ = std::thread([this] { Serve(); });
  }
  ~FakePrimary() {
    ::shutdown(fd_, SHUT_RDWR);
    ::close(fd_);
    thread_.join();
  }
  uint16_t port() const { return port_; }
  int served() const { return served_.load(std::memory_order_acquire); }

 private:
  void Serve() {
    for (size_t i = 0; i < blobs_.size(); ++i) {
      int conn = ::accept(fd_, nullptr, nullptr);
      if (conn < 0) return;
      // Swallow the subscribe frame, then serve the canned bytes.
      char buf[1024];
      (void)::recv(conn, buf, sizeof(buf), 0);
      (void)::send(conn, blobs_[i].data(), blobs_[i].size(), MSG_NOSIGNAL);
      ::shutdown(conn, SHUT_RDWR);
      ::close(conn);
      served_.fetch_add(1, std::memory_order_release);
    }
  }

  std::vector<std::string> blobs_;
  int fd_ = -1;
  uint16_t port_ = 0;
  std::thread thread_;
  std::atomic<int> served_{0};
};

TEST_F(ReplTest, TornAndCorruptStreamsResubscribeWithoutApplyingAnything) {
  // Stream 1: a record frame torn mid-payload. Stream 2: a frame whose
  // checksum is flipped. Neither may reach the apply path.
  std::string torn =
      EncodeFrame(FrameType::kReplRecord, EncodeReplBatch(1, "half"));
  torn.resize(torn.size() / 2);
  std::string corrupt =
      EncodeFrame(FrameType::kReplRecord, EncodeReplBatch(1, "flip"));
  corrupt[corrupt.size() - 1] ^= 0x40;  // damage the payload vs checksum
  FakePrimary fake({torn, corrupt});

  Engine replica(ReplicaOpts());
  ReplicationClient tail(&replica, TailOpts(fake.port()));
  ASSERT_TRUE(tail.Start().ok());
  ASSERT_TRUE(WaitUntil([&] { return fake.served() >= 2; }));
  // Both streams died without advancing the replica an inch.
  ASSERT_TRUE(WaitUntil([&] { return tail.reconnects() >= 2; }));
  tail.Stop();
  EXPECT_EQ(tail.batches_applied(), 0u);
  EXPECT_EQ(replica.replica_applied_lsn(), 0u);
  EXPECT_TRUE(Facts(&replica).empty());
}

// --- Primary restart -------------------------------------------------------

TEST_F(ReplTest, ReplicaRidesOutAPrimaryRestartMidStream) {
  const std::string dir = FreshDir("restart");
  Engine replica(ReplicaOpts());
  std::unique_ptr<ReplicationClient> tail;  // outlives both primaries
  uint16_t port = 0;
  {
    Engine primary(PrimaryOpts(dir));
    ASSERT_TRUE(primary.Recover().ok());
    Server server(&primary, ServerOptions{});
    ASSERT_TRUE(server.Start().ok());
    port = server.port();
    tail = std::make_unique<ReplicationClient>(&replica, TailOpts(port));
    ASSERT_TRUE(tail->Start().ok());
    ASSERT_TRUE(primary.ApplyBatch(InsertBatch({1, 2})).ok());
    ASSERT_TRUE(WaitUntil([&] { return CaughtUp(&primary, &replica); }));
    EXPECT_EQ(Facts(&replica), (std::set<int>{1, 2}));
    server.Stop();
    ASSERT_TRUE(primary.Checkpoint().ok());  // clean shutdown
  }
  // The primary is down; the replica keeps dialing with backoff.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  {
    Engine primary(PrimaryOpts(dir));
    ASSERT_TRUE(primary.Recover().ok());
    ServerOptions opts;
    opts.port = port;  // same address, SO_REUSEADDR in the listener
    Server server(&primary, opts);
    ASSERT_TRUE(server.Start().ok());
    ASSERT_TRUE(primary.ApplyBatch(InsertBatch({3})).ok());
    ASSERT_TRUE(WaitUntil([&] {
      return Facts(&replica) == std::set<int>{1, 2, 3};
    })) << "replica never reconverged after the restart";
    EXPECT_GE(tail->reconnects(), 1u);
    tail->Stop();
    server.Stop();
  }
}

// --- Fault-injection sweep -------------------------------------------------

TEST_F(ReplTest, ReplicaHoldsExactlyTheAckedPrefixUnderPrimaryFaults) {
  const std::string dir = FreshDir("faults");
  Engine primary(PrimaryOpts(dir));
  ASSERT_TRUE(primary.Recover().ok());
  Server server(&primary, ServerOptions{});
  ASSERT_TRUE(server.Start().ok());
  Engine replica(ReplicaOpts());
  ReplicationClient tail(&replica, TailOpts(server.port()));
  ASSERT_TRUE(tail.Start().ok());

  // Seeded fault schedule on the primary's WAL I/O: some batches fail to
  // commit. The replication contract: only acked (durable) batches may
  // ever appear on the replica.
  std::set<int> acked;
  FaultInjector::Instance().ArmSeeded(0xfeedULL, 5);
  for (int i = 0; i < 30; ++i) {
    Result<MutationBatch::ApplyReport> r = primary.ApplyBatch(InsertBatch({i}));
    if (r.ok()) {
      acked.insert(i);
    } else {
      // A failed fsync leaves the log broken; the checkpoint heals it.
      // A failed commit is ambiguous to the writer (the record may be
      // durable and already tailed by the replica even though memory
      // rejected it), so after healing, settle the ambiguity the way a
      // real client would: retry the idempotent batch until it commits.
      FaultInjector::Instance().Disarm();
      Status healed = primary.Checkpoint();
      ASSERT_TRUE(healed.ok()) << healed;
      Result<MutationBatch::ApplyReport> retried =
          primary.ApplyBatch(InsertBatch({i}));
      ASSERT_TRUE(retried.ok()) << retried.status();
      acked.insert(i);
      FaultInjector::Instance().ArmSeeded(0xfeedULL + i, 5);
    }
    // Sampled invariant: the replica never runs ahead of the ack point.
    EXPECT_LE(replica.replica_applied_lsn(), primary.durable_lsn());
  }
  FaultInjector::Instance().Disarm();
  ASSERT_TRUE(WaitUntil([&] { return CaughtUp(&primary, &replica); }));
  // Converged: exactly the acked set, nothing the primary rolled back.
  EXPECT_EQ(Facts(&replica), acked);
  EXPECT_EQ(Facts(&primary), acked);

  tail.Stop();
  server.Stop();
}

}  // namespace
}  // namespace gluenail
