/// served_reads: an in-process Server with no WAL answering point reads
/// over one connection. The EDB is 20,000 disjoint 10-edge chains, so the
/// warm `path` memo holds 1.1M tuples (about 30 MB with its index, far more
/// than a core's L2 cache) while the Zipf-hot head fits in cache. The wire
/// codec, the loopback socket, per-query parse and plan, session locking
/// and index probes do the work; the memo is always fresh, so no fixpoint
/// runs (nail.refreshes reads 0).
///
/// One client sends reads in a closed loop for the whole window. With one
/// read in flight, the process CPU time from its send to its answer is
/// that read's cost: client, kernel and server worker together.

#include <algorithm>
#include <memory>
#include <numeric>

#include "bench/workloads/generators.h"
#include "bench/workloads/workloads.h"
#include "src/api/session.h"
#include "src/common/strings.h"
#include "src/server/client.h"
#include "src/server/server.h"

namespace gluenail {
namespace workloads {
namespace {

struct Shape {
  int64_t chains;
  int length;
  double warmup_s;  ///< reads sent before the measured window
};
constexpr Shape kFull = {20000, 10, 0.5};
constexpr Shape kTiny = {200, 10, 0.05};

/// One read of the mix: 70% path(k,Y), 20% edge(k,Y), 10% the two-hop
/// join edge(k,Y) & edge(Y,Z).
struct Read {
  int kind;
  int64_t chain;
  int pos;
};

class ReadMix {
 public:
  ReadMix(const Shape& shape, uint64_t seed)
      : shape_(shape), zipf_(shape.chains, 1.1), chain_of_rank_(shape.chains) {
    // Hot chains are scattered over the id space, not packed at its start.
    std::iota(chain_of_rank_.begin(), chain_of_rank_.end(), int64_t{0});
    std::mt19937_64 rng = Rng(seed, 10);
    std::shuffle(chain_of_rank_.begin(), chain_of_rank_.end(), rng);
  }

  Read Next(std::mt19937_64& rng) const {
    int roll = std::uniform_int_distribution<int>(0, 9)(rng);
    int kind = roll < 7 ? 0 : roll < 9 ? 1 : 2;
    int64_t chain = chain_of_rank_[static_cast<size_t>(zipf_.Next(rng))];
    int pos = std::uniform_int_distribution<int>(0, shape_.length - 1)(rng);
    return {kind, chain, pos};
  }

  static Command ToCommand(const Read& r) {
    int64_t k = ChainNode(r.chain, r.pos);
    switch (r.kind) {
      case 0: return Command::Query(StrCat("path(", k, ",Y)"));
      case 1: return Command::Query(StrCat("edge(", k, ",Y)"));
      default: return Command::Query(StrCat("edge(", k, ",Y) & edge(Y,Z)"));
    }
  }

  /// The closed-form answer over the chains.
  Rows Expected(const Read& r) const {
    Rows out;
    if (r.kind == 0) {
      for (int q = r.pos + 1; q <= shape_.length; ++q) {
        out.push_back({ChainNode(r.chain, q)});
      }
    } else if (r.kind == 1) {
      out.push_back({ChainNode(r.chain, r.pos + 1)});
    } else if (r.pos + 2 <= shape_.length) {
      out.push_back({ChainNode(r.chain, r.pos + 1), ChainNode(r.chain, r.pos + 2)});
    }
    return out;
  }

 private:
  Shape shape_;
  Zipf zipf_;
  std::vector<int64_t> chain_of_rank_;
};

struct Served {
  std::unique_ptr<Engine> engine;
  std::unique_ptr<Server> server;
  double compile_s = 0;
  double edb_load_s = 0;
};

/// Starts an engine and server over the chains with a warm memo.
Served SetUp(const Shape& shape) {
  Served s;
  s.engine = std::make_unique<Engine>();
  Session session = s.engine->OpenSession();
  s.compile_s = LoadProgramTimed(session,
                                 "module kb;\nedb edge(X,Y), warm(Y);\n"
                                 "path(X,Y) :- edge(X,Y).\n"
                                 "path(X,Z) :- path(X,Y) & edge(Y,Z).\nend\n");
  MutationBatch edb;
  AddFacts("edge", ChainEdges(shape.chains, shape.length), &edb);
  // `warm` exists from the start, so the no-op statements below change no
  // relation and leave the memo fresh.
  edb.Insert("warm(-1)");
  Command load_edb = Command::MutateBatch(std::move(edb));
  Clock::time_point t0 = Clock::now();
  MustOk(session.Execute(load_edb).status, "served_reads EDB");
  s.edb_load_s = Seconds(Clock::now() - t0);
  MustOk(session.Execute(Command::Query("path(0,Y)")).status, "memo warm-up");
  // Read sessions never build indexes; the writer path builds one once its
  // scans have cost as much as the build. Two no-op writer statements over
  // a bound `path` get the memo its index before serving starts.
  for (int i = 0; i < 2; ++i) {
    MustOk(session
               .Execute(Command::MutateStatement(
                   "warm(Y) += path(1,Y) & Y < 0."))
               .status,
           "index warm-up");
  }
  EngineCounters before = EngineCounters::Take(*s.engine);
  MustOk(session.Execute(Command::Query("path(2,Y)")).status, "index check");
  EngineCounters after = EngineCounters::Take(*s.engine);
  if (after.Value("gluenail_storage_index_lookups_total") ==
      before.Value("gluenail_storage_index_lookups_total")) {
    SetupFailed("index warm-up", Status::Internal("path is still scanned"));
  }
  s.server = std::make_unique<Server>(s.engine.get(), ServerOptions{});
  MustOk(s.server->Start(), "server start");
  return s;
}

/// What the client measured over the window.
struct ClientLog {
  std::vector<Interval> times;  ///< per answered read, send to answer
  std::vector<Read> reads;      ///< the reads sent, when traced
  Calibration calibration;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t answers = 0;
  std::string first_error;

  /// Each read's CPU time at reference speed, in microseconds.
  std::vector<double> ScaledUs() const {
    std::vector<double> out;
    for (const Interval& t : times) out.push_back(calibration.Scaled(t) * 1e6);
    return out;
  }
};

/// Sends reads over one connection in a closed loop: \p warmup_s unmeasured,
/// then \p seconds measured, with calibration probes between reads. With
/// \p spans, records a span per read.
ClientLog Drive(const Served& served, const ReadMix& mix, uint64_t seed,
                double warmup_s, double seconds, SpanLog* spans) {
  ClientLog out;
  Result<Client> client = Client::Connect("127.0.0.1", served.server->port());
  if (!client.ok()) {
    out.failed = out.attempted = 1;
    out.first_error = client.status().ToString();
    return out;
  }
  // Room for far more reads than one connection sends, so the samples are
  // never copied and the memory they take grows only with the pages
  // written: peak_rss_mb barely depends on how fast the machine was.
  out.times.reserve(static_cast<size_t>(seconds * 200000));
  std::mt19937_64 rng = Rng(seed, 100);
  const Clock::time_point measure_from =
      Clock::now() + SecondsToDuration(warmup_s);
  const Clock::time_point end = measure_from + SecondsToDuration(seconds);
  for (uint64_t i = 0;; ++i) {
    out.calibration.MaybeProbe();
    Read read = mix.Next(rng);
    Command cmd = ReadMix::ToCommand(read);
    TimedResponse t = TimedExecute(*client, cmd);
    if (t.time.start >= end) break;
    if (t.time.start < measure_from) continue;
    const Result<WireResponse>& r = t.response;
    ++out.attempted;
    bool ok = r.ok() && r->ok() && IntRows(r->rows) == mix.Expected(read);
    if (!ok) {
      ++out.failed;
      if (out.first_error.empty()) {
        out.first_error = StrCat(cmd.goal, ": ",
                                 !r.ok()     ? r.status().ToString()
                                 : !r->ok() ? r->status.ToString()
                                            : "wrong answer");
      }
      continue;
    }
    out.answers += r->rows.size();
    out.times.push_back(t.time);
    if (spans != nullptr) {
      int32_t root = spans->Open("read", t.time.start, -1, i);
      spans->Add("client.execute", t.time.start, t.time.end, root, i);
      spans->Close(root, t.time.end);
      out.reads.push_back(read);
    }
  }
  out.calibration.Probe();  // so the last reads have probes after them too
  return out;
}

std::vector<double> WallUs(const std::vector<Interval>& times) {
  std::vector<double> out;
  for (const Interval& t : times) out.push_back(t.wall_s() * 1e6);
  return out;
}

void Count(const ClientLog& log, Report* report) {
  if (!log.first_error.empty()) report->Fail(log.first_error);
  report->AddAttempts(log.attempted, log.failed);
}

/// Phase B: replays the logged reads single-threaded through the codec and
/// an in-process Session with the engine's tracing on, until the log or
/// \p budget_s runs out.
void Replay(Engine& engine, const std::vector<Read>& reads, double budget_s,
            LayerTimes* times, SpanLog* spans, std::vector<double>* replay_us) {
  Session session = engine.OpenSession();
  const Clock::time_point end = Clock::now() + SecondsToDuration(budget_s);
  uint64_t id = 0;
  for (const Read& read : reads) {
    if (Clock::now() >= end) break;
    Command cmd = ReadMix::ToCommand(read);
    cmd.options.trace = true;
    Clock::time_point t0 = Clock::now();
    {
      ReplayRequest req(times, spans, id++, "read");
      req.Time(Layer::kServer, "server.command_codec",
               [&] { CommandRoundTrip(cmd); });
      Response resp;
      req.TimeTraced(
          Layer::kApi, "api.read", [&] { resp = session.Execute(cmd); },
          [&] { return session.last_trace(); });
      size_t bytes = 0;
      req.Time(Layer::kServer, "server.response_codec",
               [&] { bytes = ResponseRoundTrip(resp, engine.terms()); });
      times->Note("server.response_bytes", static_cast<double>(bytes));
    }
    replay_us->push_back(Micros(Clock::now() - t0));
  }
}

}  // namespace

void RunServedReads(const RunConfig& config, Report* report) {
  const Shape& shape = config.tiny ? kTiny : kFull;
  ReadMix mix(shape, config.seed);
  report->Context("sizes", StrCat("chains=", shape.chains, " length=",
                                  shape.length, " path_tuples=",
                                  ChainClosureSize(shape.chains, shape.length)));
  report->Context("connections", "1 (closed loop)");

  // Three full set-ups; the last one serves.
  Served served;
  double setup_wall_s = 0;
  const double setup_s = MedianSetupS(
      3,
      [&] {
        served = Served{};  // stop and free the previous one first
        served = SetUp(shape);
      },
      &setup_wall_s);
  const double rss_after_setup = CurrentRssMb();

  if (!config.trace) {
    ClientLog run =
        Drive(served, mix, config.seed, shape.warmup_s, config.seconds, nullptr);
    // Before the percentiles below copy the samples.
    const double peak_rss = PeakRssMb();
    Count(run, report);
    const std::vector<double> scaled_us = run.ScaledUs();
    const std::vector<double> wall_us = WallUs(run.times);
    std::vector<double> raw_us;
    for (const Interval& t : run.times) raw_us.push_back(t.cpu_s * 1e6);
    const double reads = static_cast<double>(run.times.size());
    report->Set("setup_s", setup_s);
    report->Set("cpu_latency_p50_us", Percentile(scaled_us, 50));
    report->Set("cpu_latency_p95_us", Percentile(scaled_us, 95));
    report->Set("cpu_throughput_per_s", reads / (Sum(scaled_us) / 1e6));
    report->Set("peak_rss_mb", peak_rss);
    report->Detail("reads", reads, "count");
    report->Detail("raw_cpu_p50_us", Percentile(raw_us, 50), "us");
    report->Detail("wall_p50_us", Percentile(wall_us, 50), "us");
    report->Detail("wall_p99_us", Percentile(wall_us, 99), "us");
    report->Detail("reads_per_wall_s", reads / config.seconds, "1/s");
    report->Detail("calibration_us", run.calibration.median_us(), "us");
    report->Detail("setup_wall_s", setup_wall_s, "s");
    report->Detail("rss_growth_mb", CurrentRssMb() - rss_after_setup, "MB");
    return;
  }

  const Clock::time_point epoch = Clock::now();
  const double phase_s = config.seconds / 3;
  ClientLog plain =
      Drive(served, mix, config.seed, shape.warmup_s, phase_s, nullptr);
  Count(plain, report);
  SpanLog spans(1, epoch);
  EngineCounters before = EngineCounters::Take(*served.engine);
  ClientLog traced = Drive(served, mix, config.seed + 2, 0, phase_s, &spans);
  EngineCounters after = EngineCounters::Take(*served.engine);
  Count(traced, report);

  const double ping_us = PingRttUs(served.server->port(), 1000);

  LayerTimes times;
  SpanLog replay_spans(2, epoch);
  std::vector<double> replay_us;
  Replay(*served.engine, traced.reads, phase_s, &times, &replay_spans,
         &replay_us);

  SetLayerMetrics(times, report);
  CounterDelta d;
  d.Add(before, after);
  const double sent = static_cast<double>(traced.attempted);
  SetCounterMetrics(d, static_cast<double>(traced.answers), sent, 0, sent, report);
  report->Set("storage.bytes_per_tuple", BytesPerTuple(after));
  report->Set("server.transport_us",
              std::max(0.0, Percentile(WallUs(traced.times), 50) -
                                Percentile(replay_us, 50)));
  report->Set("server.ping_rtt_us", ping_us);
  report->Set("plan.compile_s", served.compile_s);
  report->Set("storage.edb_load_s", served.edb_load_s);
  report->Set("obs.trace_overhead_frac",
              Median(traced.ScaledUs()) / Median(plain.ScaledUs()) - 1);

  std::string trace_path = config.work_dir + "/trace-served_reads.json";
  if (WriteChromeTrace(trace_path, {&spans, &replay_spans})) {
    report->Context("chrome_trace", trace_path);
  }
}

}  // namespace workloads
}  // namespace gluenail
