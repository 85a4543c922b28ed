/// write_ivm: an in-process Server over a data directory with group
/// commit and incremental view maintenance (engine defaults apart from the
/// durability level and the data directory). One client connection sends
/// the streams of three writers' 64-op batches in turn, in a closed loop;
/// after every round of batches it reads `path` or `seen` once, so every
/// read pays a delta refresh (DRed for the recursive `path`, counting for
/// `seen`). Afterwards a fresh Engine recovers from the data directory and
/// must hold exactly the acknowledged state.
///
/// With one request in flight, the process CPU time from a request's send
/// to its answer is that request's cost (client, server worker and commit
/// pump together). It leaves out the wait for fsync, which is the shared
/// disk's; the wall times, fsync included, are printed as details.

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <memory>

#include "bench/workloads/generators.h"
#include "bench/workloads/workloads.h"
#include "src/api/session.h"
#include "src/common/strings.h"
#include "src/server/server.h"
#include "src/storage/persistence.h"
#include "src/storage/wal.h"

namespace gluenail {
namespace workloads {
namespace {

ChurnShape FullShape() { return ChurnShape{}; }
ChurnShape TinyShape() {
  ChurnShape s;
  s.chains = 60;
  s.live_events = 64;
  s.live_shortcuts = 32;
  return s;
}

constexpr std::string_view kProgram =
    "module kb;\nedb edge(X,Y), event(I,N), warm(X);\n"
    "path(X,Y) :- edge(X,Y).\n"
    "path(X,Z) :- path(X,Y) & edge(Y,Z).\n"
    "seen(N) :- event(_,N).\nend\n";

/// A round is this many batches, one writer's after another, then one
/// read that pays the delta refresh of the whole round. Tying reads to
/// commits, not to the clock, keeps the ratio of refresh work to commit
/// work fixed.
constexpr uint64_t kBatchesPerRound = 64;

/// A run does a fixed amount of work, --seconds times this many rounds
/// (about what the introducing commit managed per second on a 4-vCPU VM),
/// so the term pool, and with it peak_rss_mb, grows by the same amount in
/// every run whatever the machine's speed. A run that takes this many
/// times longer than --seconds stops early.
constexpr double kRoundsPerSecond = 15;
constexpr double kDeadlineFactor = 3;

EngineOptions DurableOptions(const std::string& data_dir) {
  EngineOptions o;
  o.data_dir = data_dir;
  o.durability = DurabilityLevel::kGroupCommit;
  return o;
}

struct SetupSplit {
  double compile_s = 0;
  double edb_load_s = 0;
};

/// Loads the program and \p edb, warms both memos and builds the indexes
/// the reads probe. Read sessions never build indexes; the writer path
/// builds one once its scans have cost as much as the build, and a no-op
/// statement over a relation that already exists leaves the memo fresh.
SetupSplit LoadAndWarm(Session& session, MutationBatch edb) {
  SetupSplit split;
  split.compile_s = LoadProgramTimed(session, std::string(kProgram));
  edb.Insert("warm(-1)");
  Command load_edb = Command::MutateBatch(std::move(edb));
  Clock::time_point t0 = Clock::now();
  MustOk(session.Execute(load_edb).status, "write_ivm EDB");
  split.edb_load_s = Seconds(Clock::now() - t0);
  MustOk(session.Execute(Command::Query("path(0,Y)")).status, "memo warm-up");
  for (const char* probe : {"warm(Y) += path(1,Y) & Y < 0.",
                            "warm(N) += seen(N) & N = 1 & N < 0."}) {
    for (int i = 0; i < 2; ++i) {
      MustOk(session.Execute(Command::MutateStatement(probe)).status,
             "index warm-up");
    }
  }
  return split;
}

MutationBatch InitialEdb(const ChurnShape& shape,
                         const std::vector<ChurnWriter>& writers) {
  MutationBatch edb;
  AddFacts("edge", ChainEdges(shape.chains, shape.length), &edb);
  for (const ChurnWriter& w : writers) w.AddInitialFacts(&edb);
  return edb;
}

struct Served {
  std::unique_ptr<Engine> engine;
  std::unique_ptr<Server> server;
  SetupSplit split;
};

/// A fresh data directory, engine and server over the initial EDB,
/// checkpointed.
Served SetUp(const ChurnShape& shape, const std::string& data_dir,
             const std::vector<ChurnWriter>& writers) {
  std::filesystem::remove_all(data_dir);
  std::filesystem::create_directories(data_dir);
  Served s;
  s.engine = std::make_unique<Engine>(DurableOptions(data_dir));
  MustOk(s.engine->Recover().status(), "open data directory");
  Session session = s.engine->OpenSession();
  s.split = LoadAndWarm(session, InitialEdb(shape, writers));
  MustOk(s.engine->Checkpoint(), "checkpoint");
  s.server = std::make_unique<Server>(s.engine.get(), ServerOptions{});
  MustOk(s.server->Start(), "server start");
  return s;
}

std::vector<ChurnWriter> MakeWriters(const ChurnShape& shape, uint64_t seed) {
  std::vector<ChurnWriter> out;
  for (int w = 0; w < shape.writers; ++w) {
    out.emplace_back(shape, w, Rng(seed, 20 + static_cast<uint64_t>(w))());
  }
  return out;
}

/// One acknowledged request, for the replay.
struct Logged {
  bool write;
  MutationBatch batch;  // write
  Command read;         // read
};

struct PhaseResult {
  std::vector<Interval> commits, reads;  ///< acknowledged requests
  Calibration calibration;
  uint64_t ops = 0;
  uint64_t user_bytes = 0;
  uint64_t answers = 0;
  double elapsed_s = 0;
  std::vector<Logged> log;  ///< in the order sent, when traced

  /// CPU times at reference speed, in microseconds.
  std::vector<double> ScaledUs(const std::vector<Interval>& times) const {
    std::vector<double> out;
    for (const Interval& t : times) out.push_back(calibration.Scaled(t) * 1e6);
    return out;
  }
};

std::vector<double> WallUs(const std::vector<Interval>& times) {
  std::vector<double> out;
  for (const Interval& t : times) out.push_back(t.wall_s() * 1e6);
  return out;
}

/// Runs the rounds of \p seconds over one connection, with calibration
/// probes between requests. With \p spans, records a span per request and
/// logs it for the replay.
PhaseResult RunPhase(const Served& served, const ChurnShape& shape,
                     std::vector<ChurnWriter>* writers, uint64_t seed,
                     double seconds, SpanLog* spans, Report* report) {
  PhaseResult out;
  uint64_t attempted = 0, failed = 0;
  auto error = [&](const std::string& what) {
    ++failed;
    report->Fail(what);
  };
  Result<Client> client = Client::Connect("127.0.0.1", served.server->port());
  if (!client.ok()) {
    ++attempted;
    error(client.status().ToString());
    report->AddAttempts(attempted, failed);
    return out;
  }
  const uint64_t rounds = static_cast<uint64_t>(
      std::max(1.0, std::round(seconds * kRoundsPerSecond)));
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + SecondsToDuration(seconds * kDeadlineFactor);
  std::mt19937_64 rng = Rng(seed, 30);
  std::uniform_int_distribution<int64_t> chain(0, shape.chains - 1);
  std::uniform_int_distribution<int> position(0, shape.length - 1);
  uint64_t id = 0, batches = 0;
  for (uint64_t round = 0; round < rounds && Clock::now() < deadline; ++round) {
    for (uint64_t b = 0; b < kBatchesPerRound; ++b) {
      out.calibration.MaybeProbe();
      ChurnWriter& writer = (*writers)[batches++ % writers->size()];
      const MutationBatch& batch = writer.Propose();
      const uint64_t n = batch.size();
      TimedResponse t = TimedExecute(*client, Command::MutateBatch(batch));
      const Result<WireResponse>& r = t.response;
      ++attempted;
      ++id;
      if (!r.ok() || !r->ok()) {
        error(!r.ok() ? r.status().ToString() : r->status.ToString());
        continue;
      }
      // Every insert is fresh and every erase hits a live fact.
      if (r->applied != n || r->inserted != n / 2 || r->erased != n / 2) {
        error(StrCat("commit reported applied=", r->applied, " inserted=",
                     r->inserted, " erased=", r->erased, " of ", n));
        continue;
      }
      if (spans != nullptr) {
        spans->Add("commit", t.time.start, t.time.end, -1, id);
        out.log.push_back({true, batch, {}});
      }
      out.ops += n;
      out.user_bytes += writer.proposed_bytes();
      writer.Commit();
      out.commits.push_back(t.time);
    }

    out.calibration.MaybeProbe();
    const int64_t c = chain(rng);
    const int pos = position(rng);
    const int64_t k = ChainNode(c, pos);
    const bool path = round % 2 == 0;
    Command cmd = Command::Query(path ? StrCat("path(", k, ",Y)")
                                      : StrCat("seen(", k, ")"));
    TimedResponse t = TimedExecute(*client, cmd);
    const Result<WireResponse>& r = t.response;
    ++attempted;
    ++id;
    if (!r.ok() || !r->ok()) {
      error(StrCat(cmd.goal, ": ",
                   !r.ok() ? r.status().ToString() : r->status.ToString()));
      continue;
    }
    // Shortcuts never add reachability, so `path` answers are the chain's
    // tail; `seen(k)` changes with the events, so only its shape is
    // checked here and its contents after the run.
    bool ok = true;
    if (path) {
      Rows want;
      for (int q = pos + 1; q <= shape.length; ++q) want.push_back({ChainNode(c, q)});
      ok = IntRows(r->rows) == want;
    } else {
      ok = r->rows.empty() || (r->rows.size() == 1 && r->rows[0].empty());
    }
    if (!ok) {
      error(StrCat(cmd.goal, ": wrong answer"));
      continue;
    }
    if (spans != nullptr) {
      spans->Add("read", t.time.start, t.time.end, -1, id);
      out.log.push_back({false, {}, cmd});
    }
    out.answers += r->rows.size();
    out.reads.push_back(t.time);
  }
  out.elapsed_s = Seconds(Clock::now() - start);
  out.calibration.Probe();  // so the last requests have probes after them too
  report->AddAttempts(attempted, failed);
  return out;
}

/// Checks the engine's EDB and both memos against the acked state.
void CheckState(Engine& engine, const ChurnShape& shape,
                const std::vector<ChurnWriter>& writers, const char* when,
                Report* report) {
  ChurnState want = ExpectedChurnState(shape, writers);
  Session session = engine.OpenSession();
  auto rows = [&](const char* goal) {
    Response r = session.Execute(Command::Query(goal));
    report->Expect(r.ok(), StrCat(when, ": ", goal, ": ", r.status.ToString()));
    return IntRows(r.rows, engine.terms());
  };
  Rows edges, events, seen;
  for (const Edge& e : want.edges) edges.push_back({e.from, e.to});
  for (const Event& e : want.events) events.push_back({e.id, e.node});
  for (int64_t n : want.seen) seen.push_back({n});
  report->Expect(rows("edge(X,Y)") == edges, StrCat(when, ": edge differs from the acked set"));
  report->Expect(rows("event(I,N)") == events, StrCat(when, ": event differs from the acked set"));
  report->Expect(rows("seen(N)") == seen, StrCat(when, ": seen differs from the acked events"));
  Rows path = rows("path(X,Y)");
  bool path_ok = path.size() == ChainClosureSize(shape.chains, shape.length);
  for (size_t i = 0; path_ok && i < path.size(); ++i) {
    const auto& row = path[i];
    path_ok = row.size() == 2 && row[0] / kChainStride == row[1] / kChainStride &&
              row[0] < row[1] &&
              row[1] % kChainStride <= shape.length;
  }
  report->Expect(path_ok, StrCat(when, ": path differs from the chain closure"));
}

struct Recovery {
  double seconds = 0;
  uint64_t records_replayed = 0;
  /// A second load of the checkpoint alone, into a scratch database.
  double checkpoint_load_s = 0;
};

/// Stops the server and engine, then recovers a fresh engine from the data
/// directory alone and checks it holds exactly the acked state.
Recovery Restart(Served* served, const ChurnShape& shape,
                 const std::string& data_dir,
                 const std::vector<ChurnWriter>& writers, Report* report) {
  served->server.reset();
  served->engine.reset();
  Engine engine(DurableOptions(data_dir));
  Clock::time_point t0 = Clock::now();
  Result<RecoveryReport> r = engine.Recover();
  Recovery out;
  out.seconds = Seconds(Clock::now() - t0);
  MustOk(r.status(), "recovery");
  out.records_replayed = r->records_replayed;
  TermPool pool;
  Database scratch(&pool);
  t0 = Clock::now();
  MustOk(LoadDatabaseFromFile(&scratch, engine.checkpoint_path()),
         "checkpoint load");
  out.checkpoint_load_s = Seconds(Clock::now() - t0);
  MustOk(engine.OpenSession()
             .Execute(Command::LoadProgramText(std::string(kProgram)))
             .status,
         "program after recovery");
  CheckState(engine, shape, writers, "after recovery", report);
  return out;
}

/// Phase B: replays the logged requests single-threaded on a scratch
/// engine (no WAL) that starts from the phase's initial state. A commit is
/// split into the codec, Validate (parser), Wal::Append and Wal::Sync on a
/// scratch log, and the apply through Session::Execute (storage) — the
/// same work the durable path does; a read into the codec and the engine's
/// own spans.
void Replay(const ChurnShape& shape, const std::vector<ChurnWriter>& initial,
            const std::vector<Logged>& log, const std::string& work_dir,
            double budget_s, LayerTimes* times, SpanLog* spans,
            std::vector<double>* read_us) {
  Engine engine;
  Session session = engine.OpenSession();
  LoadAndWarm(session, InitialEdb(shape, initial));
  Result<std::unique_ptr<Wal>> wal = Wal::Create(work_dir + "/replay.wal", 1);
  MustOk(wal.status(), "scratch WAL");
  TermPool scratch;
  const Clock::time_point end = Clock::now() + SecondsToDuration(budget_s);
  uint64_t id = 0;
  for (const Logged& e : log) {
    if (Clock::now() >= end) break;
    Response resp;
    size_t bytes = 0;
    Clock::time_point t0 = Clock::now();
    if (e.write) {
      Command cmd = Command::MutateBatch(e.batch);
      ReplayRequest req(times, spans, id++, "commit");
      req.Time(Layer::kServer, "server.command_codec", [&] { CommandRoundTrip(cmd); });
      req.Time(Layer::kParser, "parser.validate",
               [&] { MustOk(e.batch.Validate(&scratch), "validate"); });
      req.Time(Layer::kStorage, "storage.wal_append",
               [&] { MustOk((*wal)->Append(e.batch).status(), "append"); });
      req.Time(Layer::kStorage, "storage.wal_sync",
               [&] { MustOk((*wal)->Sync(), "sync"); });
      req.Time(Layer::kStorage, "api.mutate", [&] { resp = session.Execute(cmd); });
      MustOk(resp.status, "replayed commit");
      req.Time(Layer::kServer, "server.response_codec",
               [&] { bytes = ResponseRoundTrip(resp, engine.terms()); });
    } else {
      Command cmd = e.read;
      cmd.options.trace = true;
      {
        ReplayRequest req(times, spans, id++, "read");
        req.Time(Layer::kServer, "server.command_codec", [&] { CommandRoundTrip(cmd); });
        req.TimeTraced(
            Layer::kApi, "api.read", [&] { resp = session.Execute(cmd); },
            [&] { return session.last_trace(); });
        req.Time(Layer::kServer, "server.response_codec",
                 [&] { bytes = ResponseRoundTrip(resp, engine.terms()); });
      }
      read_us->push_back(Micros(Clock::now() - t0));
    }
    times->Note("server.response_bytes", static_cast<double>(bytes));
  }
  std::filesystem::remove(work_dir + "/replay.wal");
}

}  // namespace

void RunWriteIvm(const RunConfig& config, Report* report) {
  const ChurnShape shape = config.tiny ? TinyShape() : FullShape();
  const std::string data_dir = config.work_dir + "/data";
  report->Context("sizes", StrCat("chains=", shape.chains, " length=",
                                  shape.length, " writers=", shape.writers,
                                  " live_events_per_writer=", shape.live_events,
                                  " live_shortcuts_per_writer=",
                                  shape.live_shortcuts, " batch_ops=",
                                  4 * shape.per_kind));
  report->Context("connections", "1 (closed loop)");
  report->Context("engine_options",
                  "durability=kGroupCommit data_dir=<work>/data; rest default "
                  "(wal_group_linger=50us, ivm_mode=kAuto)");
  report->Context("flush_policy", "fsync per commit group");

  // Five full set-ups, as their file writes and removals spread them more
  // than served_reads' three; the last one runs.
  std::vector<ChurnWriter> writers;
  Served served;
  double setup_wall_s = 0;
  const double setup_s = MedianSetupS(
      5,
      [&] {
        served = Served{};
        writers = MakeWriters(shape, config.seed);
        served = SetUp(shape, data_dir, writers);
      },
      &setup_wall_s);
  report->Context("data_dir_fs", FilesystemType(data_dir));
  const double rss_after_setup = CurrentRssMb();

  if (!config.trace) {
    PhaseResult run = RunPhase(served, shape, &writers, config.seed,
                               config.seconds, nullptr, report);
    EngineCounters counters = EngineCounters::Take(*served.engine);
    const double rss_growth = CurrentRssMb() - rss_after_setup;
    // Taken before the answer checks and the restart, whose allocations
    // are the benchmark's own and a second engine's.
    const double peak_rss = PeakRssMb();
    CheckState(*served.engine, shape, writers, "after the run", report);
    Recovery rec = Restart(&served, shape, data_dir, writers, report);
    const std::vector<double> commit_us = run.ScaledUs(run.commits);
    const std::vector<double> read_us = run.ScaledUs(run.reads);
    report->Set("setup_s", setup_s);
    report->Set("cpu_latency_p50_us", Percentile(commit_us, 50));
    report->Set("cpu_latency_p95_us", Percentile(commit_us, 95));
    // Mutation ops per CPU second, the refreshes the reads paid included.
    report->Set("cpu_throughput_per_s",
                static_cast<double>(run.ops) /
                    ((Sum(commit_us) + Sum(read_us)) / 1e6));
    report->Set("peak_rss_mb", peak_rss);
    std::vector<double> raw_commit_us;
    for (const Interval& t : run.commits) raw_commit_us.push_back(t.cpu_s * 1e6);
    report->Detail("commits", static_cast<double>(run.commits.size()), "count");
    report->Detail("commit_raw_cpu_p50_us", Percentile(raw_commit_us, 50), "us");
    report->Detail("commit_wall_p50_us", Percentile(WallUs(run.commits), 50), "us");
    report->Detail("commit_wall_p99_us", Percentile(WallUs(run.commits), 99), "us");
    report->Detail("fresh_reads", static_cast<double>(run.reads.size()), "count");
    report->Detail("fresh_read_cpu_p50_us", Percentile(read_us, 50), "us");
    report->Detail("fresh_read_wall_p50_us", Percentile(WallUs(run.reads), 50), "us");
    report->Detail("ops_per_wall_s", static_cast<double>(run.ops) / run.elapsed_s, "1/s");
    report->Detail("window_s", run.elapsed_s, "s");
    report->Detail("calibration_us", run.calibration.median_us(), "us");
    report->Detail("setup_wall_s", setup_wall_s, "s");
    report->Detail("recovery_s", rec.seconds, "s");
    report->Detail("records_replayed", static_cast<double>(rec.records_replayed), "count");
    report->Detail("rss_growth_mb", rss_growth, "MB");
    report->Detail("ivm_fallbacks", counters.Value("gluenail_nail_ivm_fallbacks_total"), "count");
    report->Detail("full_refreshes", counters.Value("gluenail_nail_full_refresh_total"), "count");
    std::filesystem::remove_all(data_dir);
    return;
  }

  const Clock::time_point epoch = Clock::now();
  const double phase_s = config.seconds / 3;
  PhaseResult plain = RunPhase(served, shape, &writers, config.seed, phase_s,
                               nullptr, report);
  const std::vector<ChurnWriter> before_a = writers;
  SpanLog spans(1, epoch);
  EngineCounters before = EngineCounters::Take(*served.engine);
  PhaseResult traced = RunPhase(served, shape, &writers, config.seed + 1,
                                phase_s, &spans, report);
  EngineCounters after = EngineCounters::Take(*served.engine);
  CheckState(*served.engine, shape, writers, "after the run", report);
  const double ping_us = PingRttUs(served.server->port(), 1000);
  const SetupSplit split = served.split;
  Recovery rec = Restart(&served, shape, data_dir, writers, report);

  LayerTimes times;
  SpanLog replay_spans(2, epoch);
  std::vector<double> replay_read_us;
  Replay(shape, before_a, traced.log, config.work_dir, phase_s, &times,
         &replay_spans, &replay_read_us);

  SetLayerMetrics(times, report);
  CounterDelta d;
  d.Add(before, after);
  SetCounterMetrics(d, static_cast<double>(traced.answers),
                    static_cast<double>(traced.ops),
                    static_cast<double>(traced.user_bytes),
                    static_cast<double>(traced.commits.size() +
                                        traced.reads.size()),
                    report);
  report->Set("storage.bytes_per_tuple", BytesPerTuple(after));
  report->Set("server.transport_us",
              std::max(0.0, Percentile(WallUs(traced.reads), 50) -
                                Percentile(replay_read_us, 50)));
  report->Set("server.ping_rtt_us", ping_us);
  report->Set("plan.compile_s", split.compile_s);
  report->Set("storage.edb_load_s", split.edb_load_s);
  report->Set("storage.checkpoint_load_s", rec.checkpoint_load_s);
  report->Set("storage.records_replayed", static_cast<double>(rec.records_replayed));
  report->Set("obs.trace_overhead_frac",
              Median(traced.ScaledUs(traced.commits)) /
                      Median(plain.ScaledUs(plain.commits)) -
                  1);

  std::string trace_path = config.work_dir + "/trace-write_ivm.json";
  if (WriteChromeTrace(trace_path, {&spans, &replay_spans})) {
    report->Context("chrome_trace", trace_path);
  }
  std::filesystem::remove_all(data_dir);
}

}  // namespace workloads
}  // namespace gluenail
