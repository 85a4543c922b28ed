/// \file server_test.cc
/// \brief The service-layer suite: wire framing (torn / truncated /
/// corrupted / oversized frames, seeded malformed-bytes fuzz), the stable
/// wire error enum, the Command/Response codecs, MutationBatch
/// round-trips, Session::Execute dispatch, and end-to-end Server/Client
/// runs including the N-clients-concurrent test the tsan config exercises.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <condition_variable>
#include <cstring>
#include <memory>
#include <random>
#include <thread>

#include "gtest/gtest.h"
#include "src/api/command.h"
#include "src/api/engine.h"
#include "src/common/strings.h"
#include "src/server/client.h"
#include "src/server/protocol.h"
#include "src/server/server.h"
#include "src/storage/mutation_batch.h"

namespace gluenail {
namespace {

// --- Wire error enum -----------------------------------------------------

constexpr StatusCode kAllCodes[] = {
    StatusCode::kOk,           StatusCode::kParseError,
    StatusCode::kCompileError, StatusCode::kRuntimeError,
    StatusCode::kIoError,      StatusCode::kInvalidArgument,
    StatusCode::kInternal,     StatusCode::kNotFound,
    StatusCode::kCancelled,    StatusCode::kResourceExhausted,
    StatusCode::kFailedPrecondition,
};

TEST(WireErrorTest, RoundTripsEveryStatusCode) {
  for (StatusCode code : kAllCodes) {
    WireError wire = WireErrorFromStatus(code);
    EXPECT_EQ(StatusCodeFromWireError(static_cast<uint8_t>(wire)), code)
        << "code " << static_cast<int>(code);
  }
}

TEST(WireErrorTest, WireValuesAreFrozen) {
  // These bytes are the protocol; changing them breaks deployed clients.
  EXPECT_EQ(static_cast<uint8_t>(WireErrorFromStatus(StatusCode::kOk)), 0);
  EXPECT_EQ(
      static_cast<uint8_t>(WireErrorFromStatus(StatusCode::kParseError)), 1);
  EXPECT_EQ(
      static_cast<uint8_t>(WireErrorFromStatus(StatusCode::kCancelled)), 8);
  EXPECT_EQ(static_cast<uint8_t>(
                WireErrorFromStatus(StatusCode::kResourceExhausted)),
            9);
  EXPECT_EQ(static_cast<uint8_t>(
                WireErrorFromStatus(StatusCode::kFailedPrecondition)),
            10);
}

TEST(WireErrorTest, UnknownBytesDecodeAsInternal) {
  EXPECT_EQ(StatusCodeFromWireError(200), StatusCode::kInternal);
  EXPECT_EQ(StatusCodeFromWireError(11), StatusCode::kInternal);
}

// --- Framing -------------------------------------------------------------

TEST(FramingTest, RoundTripsAFrame) {
  std::string bytes = EncodeFrame(FrameType::kCommand, "hello");
  ASSERT_EQ(bytes.size(), kFrameHeaderSize + 5);
  FrameDecoder dec;
  dec.Feed(bytes);
  Result<std::optional<WireFrame>> frame = dec.Next();
  ASSERT_TRUE(frame.ok()) << frame.status();
  ASSERT_TRUE(frame->has_value());
  EXPECT_EQ((*frame)->type, FrameType::kCommand);
  EXPECT_EQ((*frame)->payload, "hello");
  EXPECT_EQ(dec.buffered(), 0u);
}

// The exact bytes of a frame: magic, type, little-endian length and
// payload checksum, payload. Pinned so that the encoder and decoder
// cannot drift together.
TEST(FramingTest, GoldenFrameBytes) {
  using namespace std::string_literals;
  EXPECT_EQ(EncodeFrame(FrameType::kCommand, "abc"),
            "GNP1"s + "\x01"s +                        // magic, kCommand
                "\x03\x00\x00\x00"s +                 // payload length 3
                "\x4b\x57\x41\x05\x19\xa2\x1f\xe7"s +  // fnv1a("abc")
                "abc"s);
}

TEST(FramingTest, TornDeliveryByteByByte) {
  // A frame arriving one byte at a time must parse exactly once, with
  // Next() reporting "need more" at every interior offset.
  std::string bytes = EncodeFrame(FrameType::kResponse, "torn payload");
  FrameDecoder dec;
  for (size_t i = 0; i + 1 < bytes.size(); ++i) {
    dec.Feed(std::string_view(&bytes[i], 1));
    Result<std::optional<WireFrame>> r = dec.Next();
    ASSERT_TRUE(r.ok()) << "offset " << i << ": " << r.status();
    ASSERT_FALSE(r->has_value()) << "offset " << i;
  }
  dec.Feed(std::string_view(&bytes[bytes.size() - 1], 1));
  Result<std::optional<WireFrame>> r = dec.Next();
  ASSERT_TRUE(r.ok()) << r.status();
  ASSERT_TRUE(r->has_value());
  EXPECT_EQ((*r)->payload, "torn payload");
}

TEST(FramingTest, MultipleFramesInOneChunk) {
  std::string bytes = EncodeFrame(FrameType::kCommand, "one");
  bytes += EncodeFrame(FrameType::kCommand, "two");
  bytes += EncodeFrame(FrameType::kResponse, "three");
  FrameDecoder dec;
  dec.Feed(bytes);
  std::vector<std::string> payloads;
  while (true) {
    Result<std::optional<WireFrame>> r = dec.Next();
    ASSERT_TRUE(r.ok()) << r.status();
    if (!r->has_value()) break;
    payloads.push_back((*r)->payload);
  }
  EXPECT_EQ(payloads, (std::vector<std::string>{"one", "two", "three"}));
}

TEST(FramingTest, TruncatedFrameIsNotAFrame) {
  std::string bytes = EncodeFrame(FrameType::kCommand, "truncated");
  FrameDecoder dec;
  dec.Feed(std::string_view(bytes).substr(0, bytes.size() - 3));
  Result<std::optional<WireFrame>> r = dec.Next();
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_FALSE(r->has_value());
  EXPECT_GT(dec.buffered(), 0u);
}

TEST(FramingTest, BadMagicFailsTheStream) {
  std::string bytes = EncodeFrame(FrameType::kCommand, "x");
  bytes[0] = 'X';
  FrameDecoder dec;
  dec.Feed(bytes);
  Result<std::optional<WireFrame>> r = dec.Next();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(FramingTest, UnknownFrameTypeFailsTheStream) {
  std::string bytes = EncodeFrame(FrameType::kCommand, "x");
  bytes[4] = 9;
  FrameDecoder dec;
  dec.Feed(bytes);
  EXPECT_FALSE(dec.Next().ok());
}

TEST(FramingTest, CorruptedPayloadFailsChecksum) {
  std::string bytes = EncodeFrame(FrameType::kCommand, "checksummed");
  bytes[kFrameHeaderSize + 2] ^= 0x40;  // flip one payload bit
  FrameDecoder dec;
  dec.Feed(bytes);
  Result<std::optional<WireFrame>> r = dec.Next();
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("checksum"), std::string::npos);
}

TEST(FramingTest, CorruptedLengthFailsChecksumOrBound) {
  std::string bytes = EncodeFrame(FrameType::kCommand, "length field");
  bytes[5] ^= 0x01;  // low byte of the declared length
  FrameDecoder dec;
  dec.Feed(bytes);
  // Depending on the flip direction this is either a short read (need
  // more bytes — and the stream then stalls) or a checksum mismatch;
  // what it must never be is a successfully decoded frame.
  Result<std::optional<WireFrame>> r = dec.Next();
  if (r.ok()) {
    EXPECT_FALSE(r->has_value());
  }
}

TEST(FramingTest, OversizedLengthRejectedBeforeAllocation) {
  // Header declaring a 4 GiB payload, with no payload bytes behind it: the
  // decoder must reject from the header alone (nothing to allocate from).
  FrameDecoder dec(/*max_payload=*/1024);
  std::string header;
  header.append(kFrameMagic, sizeof(kFrameMagic));
  header.push_back(1);                                       // kCommand
  header += std::string("\xff\xff\xff\xff", 4);              // length
  header += std::string(8, '\0');                            // checksum
  ASSERT_EQ(header.size(), kFrameHeaderSize);
  dec.Feed(header);
  Result<std::optional<WireFrame>> r = dec.Next();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
}

TEST(FramingTest, DefaultMaxPayloadAlsoEnforced) {
  FrameDecoder dec;
  std::string header;
  header.append(kFrameMagic, sizeof(kFrameMagic));
  header.push_back(2);
  header += std::string("\x01\x00\x00\x05", 4);  // ~83 MiB > 64 MiB cap
  header += std::string(8, '\0');
  dec.Feed(header);
  EXPECT_FALSE(dec.Next().ok());
}

TEST(FramingTest, SeededFuzzNeverCrashesAndBoundsMemory) {
  // Malformed random bytes must only ever yield "need more" or a clean
  // error — never a crash, hang, or giant allocation. Seeded so a failure
  // reproduces.
  std::mt19937_64 rng(424242);
  std::uniform_int_distribution<int> byte(0, 255);
  std::uniform_int_distribution<int> chunk_len(1, 64);
  for (int round = 0; round < 200; ++round) {
    FrameDecoder dec(/*max_payload=*/4096);
    size_t fed = 0;
    bool dead = false;
    while (fed < 512 && !dead) {
      std::string chunk;
      int n = chunk_len(rng);
      for (int i = 0; i < n; ++i) {
        chunk.push_back(static_cast<char>(byte(rng)));
      }
      // Bias some rounds toward valid-looking prefixes so the fuzz also
      // reaches the length/checksum paths, not just bad magic.
      if (round % 3 == 0 && fed == 0) {
        chunk = std::string(kFrameMagic, sizeof(kFrameMagic)) +
                std::string(1, '\x01') + chunk;
      }
      dec.Feed(chunk);
      fed += chunk.size();
      Result<std::optional<WireFrame>> r = dec.Next();
      if (!r.ok()) dead = true;  // stream failed cleanly: done
      ASSERT_LE(dec.buffered(), 4096u + kFrameHeaderSize + 600)
          << "decoder buffered far more than it was fed";
    }
  }
}

TEST(FramingTest, FuzzedMutationsOfValidFramesNeverCrash) {
  std::mt19937_64 rng(7);
  Command cmd = Command::Query("path(1,X)");
  std::string valid = EncodeFrame(FrameType::kCommand, EncodeCommand(cmd));
  std::uniform_int_distribution<size_t> pos(0, valid.size() - 1);
  std::uniform_int_distribution<int> byte(0, 255);
  for (int round = 0; round < 500; ++round) {
    std::string mutated = valid;
    int flips = 1 + static_cast<int>(rng() % 4);
    for (int i = 0; i < flips; ++i) {
      mutated[pos(rng)] = static_cast<char>(byte(rng));
    }
    FrameDecoder dec;
    dec.Feed(mutated);
    Result<std::optional<WireFrame>> r = dec.Next();
    if (r.ok() && r->has_value()) {
      // Checksum happened to survive (e.g. the mutation hit the payload
      // and checksum consistently — astronomically rare — or flipped a
      // byte to itself). The decoded payload must still either parse or
      // fail cleanly.
      Result<Command> decoded = DecodeCommand((*r)->payload);
      (void)decoded;
    }
  }
}

// --- Payload scalar codec ------------------------------------------------

TEST(ByteCodecTest, RoundTripsScalarsAndStrings) {
  ByteWriter w;
  w.PutU8(0xab);
  w.PutU32(0xdeadbeef);
  w.PutU64(0x0123456789abcdefULL);
  w.PutString("νγλ");  // non-ASCII bytes survive untouched
  w.PutString("");
  ByteReader r(w.bytes());
  EXPECT_EQ(*r.GetU8(), 0xab);
  EXPECT_EQ(*r.GetU32(), 0xdeadbeefu);
  EXPECT_EQ(*r.GetU64(), 0x0123456789abcdefULL);
  EXPECT_EQ(*r.GetString(), "νγλ");
  EXPECT_EQ(*r.GetString(), "");
  EXPECT_TRUE(r.exhausted());
}

TEST(ByteCodecTest, TruncationFailsEveryGetter) {
  ByteReader r("ab");
  EXPECT_FALSE(r.GetU32().ok());
  EXPECT_FALSE(r.GetU64().ok());
  ByteWriter w;
  w.PutU32(100);  // string length prefix promising 100 bytes
  ByteReader r2(w.bytes());
  EXPECT_FALSE(r2.GetString().ok());
}

// --- Command codec -------------------------------------------------------

TEST(CommandCodecTest, RoundTripsQueryWithOptions) {
  WireQueryOptions opts;
  opts.strategy = QueryStrategy::kMagic;
  opts.timeout_millis = 1500;
  opts.max_tuples = 10;
  opts.max_arena_bytes = 1 << 20;
  opts.max_rows_scanned = 999;
  opts.trace = true;
  Command cmd = Command::Query("path(1,X) & X != 3", opts);
  Result<Command> rt = DecodeCommand(EncodeCommand(cmd));
  ASSERT_TRUE(rt.ok()) << rt.status();
  EXPECT_EQ(rt->kind, CommandKind::kQuery);
  EXPECT_EQ(rt->goal, "path(1,X) & X != 3");
  EXPECT_EQ(rt->options.strategy, QueryStrategy::kMagic);
  EXPECT_EQ(rt->options.timeout_millis, 1500u);
  EXPECT_EQ(rt->options.max_tuples, 10u);
  EXPECT_EQ(rt->options.max_arena_bytes, 1u << 20);
  EXPECT_EQ(rt->options.max_rows_scanned, 999u);
  EXPECT_TRUE(rt->options.trace);
}

TEST(CommandCodecTest, RoundTripsEveryKind) {
  MutationBatch batch;
  batch.Insert("edge(1,2)");
  batch.Erase("edge(3,4)");
  Command mutate = Command::MutateBatch(std::move(batch));
  mutate.statement = "p(X) := q(X).";

  const Command cmds[] = {
      Command::Ping(),
      Command::Query("q(X)"),
      std::move(mutate),
      Command::Explain("p(X) := q(X).", /*analyze=*/true),
      Command::LoadProgramText("q(1).\nq(2)."),
      Command::LoadProgramFile("/tmp/prog.gn"),
      Command::LoadEdbText("edge(1,2)."),
      Command::LoadEdbFile("/tmp/data.facts"),
      Command::SaveEdb("/tmp/out.facts"),
      Command::Metrics(MetricsFormat::kJson),
      Command::Slowlog(),
  };
  for (const Command& cmd : cmds) {
    Result<Command> rt = DecodeCommand(EncodeCommand(cmd));
    ASSERT_TRUE(rt.ok()) << CommandKindToString(cmd.kind) << ": "
                         << rt.status();
    EXPECT_EQ(rt->kind, cmd.kind);
    EXPECT_EQ(rt->goal, cmd.goal);
    EXPECT_EQ(rt->statement, cmd.statement);
    EXPECT_EQ(rt->analyze, cmd.analyze);
    EXPECT_EQ(rt->load_target, cmd.load_target);
    EXPECT_EQ(rt->path, cmd.path);
    EXPECT_EQ(rt->source, cmd.source);
    EXPECT_EQ(rt->metrics_format, cmd.metrics_format);
    EXPECT_EQ(rt->batch.Serialize(), cmd.batch.Serialize());
  }
}

TEST(CommandCodecTest, RejectsTrailingBytesAndEmptyPayload) {
  std::string payload = EncodeCommand(Command::Ping());
  EXPECT_FALSE(DecodeCommand(payload + "x").ok());
  EXPECT_FALSE(DecodeCommand("").ok());
}

TEST(CommandCodecTest, RejectsOutOfRangeEnums) {
  std::string payload = EncodeCommand(Command::Query("q(X)"));
  std::string bad = payload;
  bad[0] = 77;  // command kind byte
  EXPECT_FALSE(DecodeCommand(bad).ok());
}

// --- Response codec ------------------------------------------------------

TEST(ResponseCodecTest, RoundTripsRowsAsTermText) {
  Engine engine;
  ASSERT_TRUE(engine.AddFact("r(1, 'a b', f(2)).").ok());
  Session session = engine.OpenSession();
  Response resp = session.Execute(Command::Query("r(X, Y, Z)"));
  ASSERT_TRUE(resp.ok()) << resp.status;
  ASSERT_EQ(resp.rows.size(), 1u);

  Result<WireResponse> rt =
      DecodeResponse(EncodeResponse(resp, engine.terms()));
  ASSERT_TRUE(rt.ok()) << rt.status();
  EXPECT_TRUE(rt->ok());
  EXPECT_EQ(rt->vars, resp.vars);
  ASSERT_EQ(rt->rows.size(), 1u);
  ASSERT_EQ(rt->rows[0].size(), 3u);
  EXPECT_EQ(rt->rows[0][0], "1");
  EXPECT_EQ(rt->rows[0][1], "'a b'");
  EXPECT_EQ(rt->rows[0][2], "f(2)");
}

TEST(ResponseCodecTest, PreservesErrorCodeAndMessage) {
  TermPool pool;
  Response resp = Response::Error(Status::ParseError("unexpected ')'"));
  Result<WireResponse> rt = DecodeResponse(EncodeResponse(resp, pool));
  ASSERT_TRUE(rt.ok()) << rt.status();
  EXPECT_EQ(rt->status.code(), StatusCode::kParseError);
  EXPECT_NE(rt->status.message().find("unexpected ')'"), std::string::npos);
}

TEST(ResponseCodecTest, PreservesMutationCounts) {
  TermPool pool;
  Response resp = Response::Ok("done");
  resp.applied = 7;
  resp.inserted = 5;
  resp.erased = 2;
  Result<WireResponse> rt = DecodeResponse(EncodeResponse(resp, pool));
  ASSERT_TRUE(rt.ok()) << rt.status();
  EXPECT_EQ(rt->applied, 7u);
  EXPECT_EQ(rt->inserted, 5u);
  EXPECT_EQ(rt->erased, 2u);
  EXPECT_EQ(rt->text, "done");
}

TEST(ResponseCodecTest, RejectsRowCountLyingAboutPayloadSize) {
  // A hand-built payload whose row count field promises more data than
  // the payload holds must fail cleanly, not allocate 2^32 rows.
  TermPool pool;
  Response resp;
  std::string payload = EncodeResponse(resp, pool);
  // vars count is the first u32 after status byte + message; simpler:
  // truncate a valid payload at every length and require clean failure.
  Engine engine;
  ASSERT_TRUE(engine.AddFact("s(1).").ok());
  ASSERT_TRUE(engine.AddFact("s(2).").ok());
  ASSERT_TRUE(engine.AddFact("s(3).").ok());
  Session session = engine.OpenSession();
  Response full = session.Execute(Command::Query("s(X)"));
  std::string bytes = EncodeResponse(full, engine.terms());
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    Result<WireResponse> r =
        DecodeResponse(std::string_view(bytes).substr(0, cut));
    EXPECT_FALSE(r.ok()) << "prefix of " << cut << " bytes decoded";
  }
}

// --- MutationBatch -------------------------------------------------------

TEST(MutationBatchTest, SerializeParseRoundTrip) {
  MutationBatch batch;
  batch.Insert("edge(1,2)");
  batch.Insert("label(3, 'hello world')");
  batch.Erase("edge(9,9)");
  std::string text = batch.Serialize();
  Result<MutationBatch> rt = MutationBatch::Parse(text);
  ASSERT_TRUE(rt.ok()) << rt.status();
  EXPECT_EQ(rt->size(), 3u);
  EXPECT_EQ(rt->Serialize(), text);
}

// The exact text of a batch, pinned so that its header, op lines and
// checksum cannot drift together on the write and parse sides.
TEST(MutationBatchTest, GoldenSerializedText) {
  MutationBatch batch;
  batch.Insert("edge(1,2)");
  batch.Erase("edge(3,4)");
  batch.Insert("label(5, 'hello world')");
  EXPECT_EQ(batch.Serialize(),
            "%% gluenail-batch v1 ops=3 checksum=1e087d9bbb6f3364\n"
            "+ edge(1,2)\n"
            "- edge(3,4)\n"
            "+ label(5, 'hello world')\n");
}

TEST(MutationBatchTest, ParseRejectsCorruption) {
  MutationBatch batch;
  batch.Insert("edge(1,2)");
  std::string text = batch.Serialize();
  // Flip a byte in the body: checksum must catch it.
  std::string corrupt = text;
  corrupt[corrupt.size() - 3] ^= 1;
  EXPECT_FALSE(MutationBatch::Parse(corrupt).ok());
  // Wrong op count.
  std::string twice = text + "+ edge(5,6)\n";
  EXPECT_FALSE(MutationBatch::Parse(twice).ok());
  // Garbage header.
  EXPECT_FALSE(MutationBatch::Parse("nope\n+ edge(1,2)\n").ok());
}

TEST(MutationBatchTest, ApplyIsAllOrNothingOnValidation) {
  TermPool pool;
  MutationBatch batch;
  batch.Insert("edge(1,2)");
  batch.Insert("X");  // a variable is not a ground fact
  // Resolve refuses the batch as a whole and returns no ops, so the valid
  // first op never reaches ApplyResolved.
  EXPECT_FALSE(batch.Resolve(&pool).ok());
}

TEST(MutationBatchTest, InsertEraseCounts) {
  Engine engine;
  Session session = engine.OpenSession();
  MutationBatch batch;
  batch.Insert("edge(1,2)");
  batch.Insert("edge(1,2)");  // duplicate: applied but not inserted
  batch.Insert("edge(2,3)");
  batch.Erase("edge(7,7)");  // absent: applied but not erased
  Response resp = session.Execute(Command::MutateBatch(std::move(batch)));
  ASSERT_TRUE(resp.ok()) << resp.status;
  EXPECT_EQ(resp.applied, 4u);
  EXPECT_EQ(resp.inserted, 2u);
  EXPECT_EQ(resp.erased, 0u);
}

// --- End-to-end over a real socket ---------------------------------------

class ServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    server_ = std::make_unique<Server>(&engine_, ServerOptions{});
    ASSERT_TRUE(server_->Start().ok());
  }

  Client MustConnect() {
    Result<Client> c = Client::Connect("127.0.0.1", server_->port());
    EXPECT_TRUE(c.ok()) << c.status();
    return std::move(*c);
  }

  Engine engine_;
  std::unique_ptr<Server> server_;
};

TEST_F(ServerTest, PingPongs) {
  Client client = MustConnect();
  EXPECT_TRUE(client.Ping().ok());
}

TEST_F(ServerTest, QueryMatchesInProcessResults) {
  ASSERT_TRUE(engine_
                  .LoadProgram(R"(
module kb;
edb edge(X,Y);
path(X,Y) :- edge(X,Y).
path(X,Z) :- path(X,Y) & edge(Y,Z).
edge(1,2). edge(2,3). edge(3,4).
end
)")
                  .ok());
  Client client = MustConnect();
  Result<WireResponse> remote = client.Execute(Command::Query("path(1,X)"));
  ASSERT_TRUE(remote.ok()) << remote.status();
  ASSERT_TRUE(remote->ok()) << remote->status;

  Result<Engine::QueryResult> local = engine_.Query("path(1,X)");
  ASSERT_TRUE(local.ok());
  ASSERT_EQ(remote->vars, local->vars);
  ASSERT_EQ(remote->rows.size(), local->rows.size());
  for (size_t i = 0; i < local->rows.size(); ++i) {
    ASSERT_EQ(remote->rows[i].size(), local->rows[i].size());
    for (size_t c = 0; c < local->rows[i].size(); ++c) {
      EXPECT_EQ(remote->rows[i][c], engine_.terms().ToString(local->rows[i][c]));
    }
  }
}

TEST_F(ServerTest, MutateThenQueryOverTheWire) {
  Client client = MustConnect();
  MutationBatch batch;
  batch.Insert("stock('acme', 42)");
  batch.Insert("stock('globex', 7)");
  Result<WireResponse> m = client.Execute(Command::MutateBatch(std::move(batch)));
  ASSERT_TRUE(m.ok()) << m.status();
  ASSERT_TRUE(m->ok()) << m->status;
  EXPECT_EQ(m->inserted, 2u);

  Result<WireResponse> q = client.Execute(Command::Query("stock(N, K)"));
  ASSERT_TRUE(q.ok());
  ASSERT_TRUE(q->ok());
  EXPECT_EQ(q->rows.size(), 2u);
}

TEST_F(ServerTest, TooDeeplyNestedFactIsRefusedAndTheConnectionLives) {
  // A fact nested 100,000 deep fits one frame; the fact reader refuses it
  // at its nesting bound instead of recursing off the worker's stack. The
  // HiLog chain p(1)(1)...(1) nests no parentheses, but each link is a
  // level of the name it builds, which printing would recurse through.
  std::string deep = "p(";
  for (int i = 1; i < 100000; ++i) deep += "f(";
  deep += "1";
  deep.append(100000, ')');
  std::string chain = "p";
  for (int i = 0; i < 100000; ++i) chain += "(1)";
  Client client = MustConnect();
  for (const std::string& fact : {deep, chain}) {
    MutationBatch bad;
    bad.Insert(fact);
    Result<WireResponse> r =
        client.Execute(Command::MutateBatch(std::move(bad)));
    ASSERT_TRUE(r.ok()) << r.status();
    EXPECT_FALSE(r->ok());
    EXPECT_EQ(r->status.code(), StatusCode::kParseError);
    EXPECT_NE(r->status.message().find("term nests deeper than"),
              std::string::npos);

    MutationBatch good;
    good.Insert("stock('acme', 42)");
    Result<WireResponse> m =
        client.Execute(Command::MutateBatch(std::move(good)));
    ASSERT_TRUE(m.ok()) << m.status();
    ASSERT_TRUE(m->ok()) << m->status;
  }
  Result<WireResponse> q = client.Execute(Command::Query("stock(N, K)"));
  ASSERT_TRUE(q.ok()) << q.status();
  ASSERT_TRUE(q->ok()) << q->status;
  EXPECT_EQ(q->rows.size(), 1u);
}

TEST_F(ServerTest, LoadProgramTextAndExplain) {
  Client client = MustConnect();
  Result<WireResponse> load = client.Execute(Command::LoadProgramText(R"(
module kb;
edb q(X);
p(X) :- q(X).
q(1). q(2).
end
)"));
  ASSERT_TRUE(load.ok());
  ASSERT_TRUE(load->ok()) << load->status;
  EXPECT_NE(load->text.find("loaded"), std::string::npos);

  Result<WireResponse> q = client.Execute(Command::Query("p(X)"));
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->rows.size(), 2u);

  Result<WireResponse> ex =
      client.Execute(Command::Explain("out(X) := q(X) & X > 1."));
  ASSERT_TRUE(ex.ok());
  ASSERT_TRUE(ex->ok()) << ex->status;
  EXPECT_FALSE(ex->text.empty());
}

TEST_F(ServerTest, MetricsAndSlowlogOverTheWire) {
  Client client = MustConnect();
  Result<WireResponse> m = client.Execute(Command::Metrics());
  ASSERT_TRUE(m.ok());
  ASSERT_TRUE(m->ok());
  EXPECT_NE(m->text.find("gluenail_"), std::string::npos);
  Result<WireResponse> s = client.Execute(Command::Slowlog());
  ASSERT_TRUE(s.ok());
  EXPECT_TRUE(s->ok());
}

TEST_F(ServerTest, ErrorCodesSurviveTheWire) {
  Client client = MustConnect();
  Result<WireResponse> r = client.Execute(Command::Query("p(X) &&& wat"));
  ASSERT_TRUE(r.ok()) << r.status();  // transport fine, engine said no
  EXPECT_FALSE(r->ok());
  EXPECT_EQ(r->status.code(), StatusCode::kParseError);
}

TEST_F(ServerTest, QueryGuardrailsApplyRemotely) {
  // A big enough relation that the row-scan budget must trip (the charge
  // is batched, so tiny scans can finish before the first check).
  MutationBatch batch;
  for (int i = 0; i < 5000; ++i) {
    batch.Insert(StrCat("nums(", i, ")"));
  }
  Client client = MustConnect();
  Result<WireResponse> ins =
      client.Execute(Command::MutateBatch(std::move(batch)));
  ASSERT_TRUE(ins.ok());
  ASSERT_TRUE(ins->ok()) << ins->status;
  ASSERT_EQ(ins->inserted, 5000u);

  WireQueryOptions opts;
  opts.max_rows_scanned = 1000;
  Result<WireResponse> r =
      client.Execute(Command::Query("nums(X) & X > 1", opts));
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r->ok());
  EXPECT_EQ(r->status.code(), StatusCode::kResourceExhausted);

  // The same query without guardrails returns the full answer.
  Result<WireResponse> full =
      client.Execute(Command::Query("nums(X) & X > 1"));
  ASSERT_TRUE(full.ok());
  ASSERT_TRUE(full->ok()) << full->status;
  EXPECT_EQ(full->rows.size(), 4998u);
}

TEST_F(ServerTest, GarbageBytesGetAnErrorResponseThenDisconnect) {
  int fd = socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server_->port());
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  std::string garbage = "this is definitely not a GNP1 frame";
  ASSERT_EQ(send(fd, garbage.data(), garbage.size(), 0),
            static_cast<ssize_t>(garbage.size()));
  // The server answers with one final error response frame, then closes.
  std::string got;
  char buf[4096];
  ssize_t n;
  while ((n = recv(fd, buf, sizeof(buf), 0)) > 0) got.append(buf, n);
  close(fd);
  FrameDecoder dec;
  dec.Feed(got);
  Result<std::optional<WireFrame>> frame = dec.Next();
  ASSERT_TRUE(frame.ok()) << frame.status();
  ASSERT_TRUE(frame->has_value());
  Result<WireResponse> resp = DecodeResponse((*frame)->payload);
  ASSERT_TRUE(resp.ok()) << resp.status();
  EXPECT_FALSE(resp->ok());
  EXPECT_EQ(server_->protocol_errors(), 1u);
}

TEST_F(ServerTest, StopIsIdempotentAndCountsWork) {
  Client client = MustConnect();
  ASSERT_TRUE(client.Ping().ok());
  client.Close();
  server_->Stop();
  server_->Stop();
  EXPECT_EQ(server_->connections_accepted(), 1u);
  EXPECT_EQ(server_->commands_served(), 1u);
  EXPECT_FALSE(server_->running());
}

TEST_F(ServerTest, ServerMetricsExported) {
  Client client = MustConnect();
  ASSERT_TRUE(client.Ping().ok());
  std::string dump = engine_.DumpMetrics();
  EXPECT_NE(dump.find("gluenail_server_connections_total"),
            std::string::npos);
  EXPECT_NE(dump.find("gluenail_server_commands_total"), std::string::npos);
}

// The tsan-labelled concurrency check: 8 clients hammer the same server —
// reads in parallel under the shared lock, mutations serialized behind
// the writer lock — while the admin surface is scraped. Run under
// -DGLUENAIL_TSAN=ON via tools/run_tests.sh tsan.
TEST_F(ServerTest, EightConcurrentClients) {
  ASSERT_TRUE(engine_
                  .LoadProgram(R"(
module kb;
edb edge(X,Y);
reach(X,Y) :- edge(X,Y).
reach(X,Z) :- reach(X,Y) & edge(Y,Z).
edge(1,2). edge(2,3). edge(3,1).
end
)")
                  .ok());
  constexpr int kClients = 8;
  constexpr int kRounds = 25;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (int t = 0; t < kClients; ++t) {
    threads.emplace_back([&, t] {
      Result<Client> c = Client::Connect("127.0.0.1", server_->port());
      if (!c.ok()) {
        ++failures;
        return;
      }
      for (int i = 0; i < kRounds; ++i) {
        if (t % 2 == 0) {
          // Readers: the recursive closure has 9 answers, always.
          Result<WireResponse> r = c->Execute(Command::Query("reach(X,Y)"));
          if (!r.ok() || !r->ok() || r->rows.size() != 9) ++failures;
        } else {
          // Writers: insert/erase a private fact, then check it's gone.
          MutationBatch ins;
          ins.Insert(StrCat("scratch(", t, ",", i, ")"));
          Result<WireResponse> r1 =
              c->Execute(Command::MutateBatch(std::move(ins)));
          if (!r1.ok() || !r1->ok() || r1->inserted != 1) ++failures;
          MutationBatch del;
          del.Erase(StrCat("scratch(", t, ",", i, ")"));
          Result<WireResponse> r2 =
              c->Execute(Command::MutateBatch(std::move(del)));
          if (!r2.ok() || !r2->ok() || r2->erased != 1) ++failures;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(server_->connections_accepted(),
            static_cast<uint64_t>(kClients));
  // Every scratch fact was erased by its writer.
  Result<Engine::QueryResult> q = engine_.Query("scratch(X,Y)");
  ASSERT_TRUE(q.ok());
  EXPECT_TRUE(q->rows.empty());
}

// --- Admission control ---------------------------------------------------

TEST(AdmissionControlTest, MaxConnectionsRejectsWithWireError) {
  Engine engine;
  ServerOptions opts;
  opts.max_connections = 2;
  Server server(&engine, opts);
  ASSERT_TRUE(server.Start().ok());

  // Fill both slots; Ping proves each worker is registered, so the next
  // accept sees conns_.size() == 2 deterministically.
  Result<Client> c1 = Client::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(c1.ok());
  ASSERT_TRUE(c1->Ping().ok());
  Result<Client> c2 = Client::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(c2.ok());
  ASSERT_TRUE(c2->Ping().ok());

  // The third connection is turned away with one wire-level error frame —
  // read it raw so the test never races the server's close.
  int fd = socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server.port());
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  std::string got;
  char buf[4096];
  ssize_t n;
  while ((n = recv(fd, buf, sizeof(buf), 0)) > 0) got.append(buf, n);
  close(fd);
  FrameDecoder dec;
  dec.Feed(got);
  Result<std::optional<WireFrame>> frame = dec.Next();
  ASSERT_TRUE(frame.ok()) << frame.status();
  ASSERT_TRUE(frame->has_value());
  Result<WireResponse> resp = DecodeResponse((*frame)->payload);
  ASSERT_TRUE(resp.ok()) << resp.status();
  EXPECT_FALSE(resp->ok());
  EXPECT_EQ(resp->status.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(server.connections_rejected(), 1u);
  EXPECT_NE(
      engine.DumpMetrics().find("gluenail_server_rejected_connections_total"),
      std::string::npos);

  // The slots still serve their owners.
  EXPECT_TRUE(c1->Ping().ok());
  EXPECT_TRUE(c2->Ping().ok());

  // Freeing a slot readmits: the next accept reaps the finished worker.
  c1->Close();
  bool admitted = false;
  for (int attempt = 0; attempt < 100 && !admitted; ++attempt) {
    Result<Client> c3 = Client::Connect("127.0.0.1", server.port());
    if (c3.ok() && c3->Ping().ok()) {
      admitted = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_TRUE(admitted);
}

// Regression: the rejection response used to be written on the accept
// thread while holding conns_mu_. A rejected peer that never drains its
// receive buffer could park that send forever, wedging every future
// accept (and Stop()) behind one bad client. The stall hook emulates such
// a peer; the server must keep admitting clients while it blocks.
TEST(AdmissionControlTest, AcceptLoopSurvivesAPeerThatNeverReadsItsRejection) {
  Engine engine;
  ServerOptions opts;
  opts.max_connections = 1;
  struct Stall {
    std::mutex mu;
    std::condition_variable cv;
    bool release = false;
  };
  // shared_ptr: the hook runs on detached sender threads that can outlive
  // this test body.
  auto stall = std::make_shared<Stall>();
  opts.reject_send_stall_for_testing = [stall] {
    std::unique_lock<std::mutex> lock(stall->mu);
    stall->cv.wait_for(lock, std::chrono::seconds(10),
                       [&] { return stall->release; });
  };
  Server server(&engine, opts);
  ASSERT_TRUE(server.Start().ok());

  Result<Client> holder = Client::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(holder.ok());
  ASSERT_TRUE(holder->Ping().ok());

  // The rejected peer: connects, never reads. Its rejection send is now
  // stalled inside the hook.
  sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server.port());
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  int bad = socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(bad, 0);
  ASSERT_EQ(connect(bad, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  for (int i = 0; i < 500 && server.connections_rejected() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_GE(server.connections_rejected(), 1u);

  // While that send is still stalled: free the slot and prove a fresh
  // client is accepted and served. Raw socket + receive timeout, so a
  // wedged server surfaces as a clean failure rather than a hang.
  holder->Close();
  bool admitted = false;
  for (int attempt = 0; attempt < 20 && !admitted; ++attempt) {
    int fd = socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    timeval tv{};
    tv.tv_usec = 100 * 1000;
    setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0) {
      std::string ping =
          EncodeFrame(FrameType::kCommand, EncodeCommand(Command::Ping()));
      if (send(fd, ping.data(), ping.size(), MSG_NOSIGNAL) ==
          static_cast<ssize_t>(ping.size())) {
        char buf[512];
        admitted = recv(fd, buf, sizeof(buf), 0) > 0;
      }
    }
    close(fd);
    if (!admitted) std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_TRUE(admitted) << "accept loop wedged behind a stalled rejection";

  {
    std::lock_guard<std::mutex> lock(stall->mu);
    stall->release = true;
  }
  stall->cv.notify_all();
  close(bad);
  server.Stop();
}

// --- Client reconnect ----------------------------------------------------

TEST(ClientJitterSeedTest, SeedDerivationIsGuardedAwayFromZero) {
  // Nonzero candidates pass through; zero — xorshift64's fixed point,
  // which would freeze the backoff jitter fleet-wide — is remapped.
  EXPECT_EQ(internal::SanitizeJitterSeed(7), 7u);
  EXPECT_NE(internal::SanitizeJitterSeed(0), 0u);

  // An explicit seed wins verbatim.
  EXPECT_EQ(internal::DeriveJitterSeed(42, "primary", 4000), 42u);

  // Derived seeds follow the documented fold, sanitized.
  for (const char* host : {"", "localhost", "primary", "10.0.0.1"}) {
    for (uint16_t port : {uint16_t{0}, uint16_t{80}, uint16_t{65535}}) {
      const uint64_t seed = internal::DeriveJitterSeed(0, host, port);
      EXPECT_NE(seed, 0u) << host << ":" << port;
      EXPECT_EQ(seed,
                internal::SanitizeJitterSeed(
                    Fnv1a64(host, std::strlen(host)) ^ (port + 1)))
          << host << ":" << port;
    }
  }
}

TEST(ClientReconnectTest, ReconnectsToALiveServer) {
  Engine engine;
  Server server(&engine, ServerOptions{});
  ASSERT_TRUE(server.Start().ok());
  ClientOptions copts;
  copts.max_retries = 3;
  copts.backoff_initial = std::chrono::milliseconds(1);
  copts.backoff_max = std::chrono::milliseconds(5);
  Result<Client> c = Client::Connect("127.0.0.1", server.port(), copts);
  ASSERT_TRUE(c.ok()) << c.status();
  ASSERT_TRUE(c->Ping().ok());

  // Transport loss (here: locally closed) → Execute fails fast, Reconnect
  // restores service on a fresh connection with a clean frame decoder.
  c->Close();
  EXPECT_FALSE(c->connected());
  EXPECT_FALSE(c->Execute(Command::Ping()).ok());
  ASSERT_TRUE(c->Reconnect().ok());
  EXPECT_TRUE(c->connected());
  EXPECT_TRUE(c->Ping().ok());
}

TEST(ClientReconnectTest, RetriesAreBoundedAgainstADeadServer) {
  // Grab a port that refuses connections: bind a listener, note its port,
  // close it.
  Engine engine;
  Server server(&engine, ServerOptions{});
  ASSERT_TRUE(server.Start().ok());
  uint16_t dead_port = server.port();
  ClientOptions copts;
  copts.max_retries = 2;
  copts.backoff_initial = std::chrono::milliseconds(1);
  copts.backoff_max = std::chrono::milliseconds(4);
  Result<Client> live = Client::Connect("127.0.0.1", dead_port, copts);
  ASSERT_TRUE(live.ok());
  server.Stop();

  // Dial-with-retry against the dead port: bounded, and the error says
  // how many attempts were made.
  Result<Client> c = Client::Connect("127.0.0.1", dead_port, copts);
  ASSERT_FALSE(c.ok());
  EXPECT_NE(c.status().message().find("3 attempts"), std::string::npos);

  // Reconnect() of the previously-live client is bounded the same way.
  Status s = live->Reconnect();
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("3 attempts"), std::string::npos);
}

TEST(ClientFrameCapTest, ConfiguredCapSurvivesConnectAndReconnect) {
  Engine engine;
  Server server(&engine, ServerOptions{});
  ASSERT_TRUE(server.Start().ok());
  {
    // Enough rows that the query response frame clears any small cap.
    Session session = engine.OpenSession();
    MutationBatch batch;
    for (int i = 0; i < 200; ++i) batch.Insert(StrCat("wide(", i, ")"));
    ASSERT_TRUE(session.Execute(Command::MutateBatch(std::move(batch))).ok());
  }

  // A client with a small configured cap refuses the oversized (but
  // perfectly legal) response.
  ClientOptions small;
  small.max_frame_payload = 128;
  Result<Client> capped = Client::Connect("127.0.0.1", server.port(), small);
  ASSERT_TRUE(capped.ok()) << capped.status();
  EXPECT_TRUE(capped->Ping().ok());  // small frames are fine
  Result<WireResponse> r = capped->Execute(Command::Query("wide(X)"));
  EXPECT_FALSE(r.ok());

  // Reconnect() must keep the configured cap: it used to reset the
  // decoder to the default, silently raising the bound the caller chose.
  ASSERT_TRUE(capped->Reconnect().ok());
  EXPECT_TRUE(capped->Ping().ok());
  Result<WireResponse> r2 = capped->Execute(Command::Query("wide(X)"));
  EXPECT_FALSE(r2.ok()) << "cap was lost across Reconnect()";

  // The same response decodes fine under the default cap.
  Result<Client> roomy = Client::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(roomy.ok());
  Result<WireResponse> full = roomy->Execute(Command::Query("wide(X)"));
  ASSERT_TRUE(full.ok()) << full.status();
  ASSERT_TRUE(full->ok()) << full->status;
  EXPECT_EQ(full->rows.size(), 200u);
}

// --- HTTP admin surface --------------------------------------------------

std::string HttpRequest(uint16_t port, const std::string& request) {
  int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    close(fd);
    return "";
  }
  (void)send(fd, request.data(), request.size(), 0);
  std::string got;
  char buf[8192];
  ssize_t n;
  while ((n = recv(fd, buf, sizeof(buf), 0)) > 0) got.append(buf, n);
  close(fd);
  return got;
}

TEST(AdminHttpTest, ServesHealthMetricsAndSlowlog) {
  Engine engine;
  ServerOptions opts;
  opts.admin_port = 0;
  Server server(&engine, opts);
  ASSERT_TRUE(server.Start().ok());
  uint16_t port = server.admin_port();

  std::string health = HttpRequest(port, "GET /healthz HTTP/1.0\r\n\r\n");
  EXPECT_NE(health.find("200"), std::string::npos);
  EXPECT_NE(health.find("ok"), std::string::npos);

  std::string metrics = HttpRequest(port, "GET /metrics HTTP/1.0\r\n\r\n");
  EXPECT_NE(metrics.find("200"), std::string::npos);
  EXPECT_NE(metrics.find("gluenail_"), std::string::npos);

  std::string json =
      HttpRequest(port, "GET /metrics?format=json HTTP/1.0\r\n\r\n");
  EXPECT_NE(json.find("application/json"), std::string::npos);

  std::string slowlog = HttpRequest(port, "GET /slowlog HTTP/1.0\r\n\r\n");
  EXPECT_NE(slowlog.find("200"), std::string::npos);

  std::string missing = HttpRequest(port, "GET /nope HTTP/1.0\r\n\r\n");
  EXPECT_NE(missing.find("404"), std::string::npos);

  std::string post = HttpRequest(port, "POST /metrics HTTP/1.0\r\n\r\n");
  EXPECT_NE(post.find("405"), std::string::npos);
}

// --- Session::Execute dispatch (in-process, no socket) -------------------

TEST(SessionExecuteTest, PingQueryMutateExplainThroughOneEntryPoint) {
  Engine engine;
  Session session = engine.OpenSession();

  Response ping = session.Execute(Command::Ping());
  ASSERT_TRUE(ping.ok());
  EXPECT_EQ(ping.text, "pong");

  MutationBatch batch;
  batch.Insert("edge(1,2)");
  batch.Insert("edge(2,3)");
  Response mut = session.Execute(Command::MutateBatch(std::move(batch)));
  ASSERT_TRUE(mut.ok()) << mut.status;
  EXPECT_EQ(mut.inserted, 2u);

  Response q = session.Execute(Command::Query("edge(X,Y)"));
  ASSERT_TRUE(q.ok()) << q.status;
  EXPECT_EQ(q.rows.size(), 2u);
  EXPECT_EQ(q.vars, (std::vector<std::string>{"X", "Y"}));

  Response ex = session.Execute(
      Command::Explain("closure(X,Y) := edge(X,Y)."));
  ASSERT_TRUE(ex.ok()) << ex.status;
  EXPECT_FALSE(ex.text.empty());

  Response bad = session.Execute(Command::Query("((("));
  EXPECT_FALSE(bad.ok());
}

TEST(SessionExecuteTest, SaveAndReloadEdbThroughCommands) {
  std::string path = ::testing::TempDir() + "/server_test_edb.facts";
  {
    Engine engine;
    Session session = engine.OpenSession();
    MutationBatch batch;
    batch.Insert("city('berlin', 3600000)");
    batch.Insert("city('tallinn', 460000)");
    ASSERT_TRUE(
        session.Execute(Command::MutateBatch(std::move(batch))).ok());
    ASSERT_TRUE(session.Execute(Command::SaveEdb(path)).ok());
  }
  Engine engine;
  Session session = engine.OpenSession();
  ASSERT_TRUE(session.Execute(Command::LoadEdbFile(path)).ok());
  Response q = session.Execute(Command::Query("city(N, P)"));
  ASSERT_TRUE(q.ok()) << q.status;
  EXPECT_EQ(q.rows.size(), 2u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace gluenail
