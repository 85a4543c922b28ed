#include "bench/workloads/harness.h"

#include <sys/resource.h>
#include <sys/statfs.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <optional>
#include <regex>

#include "src/common/strings.h"
#include "src/parser/parser.h"
#include "src/server/client.h"
#include "src/server/protocol.h"

namespace gluenail {
namespace workloads {

void SetupFailed(std::string_view what, const Status& status) {
  fprintf(stderr, "bench_workloads: set-up failed: %.*s: %s\n",
          static_cast<int>(what.size()), what.data(),
          status.ToString().c_str());
  std::exit(2);
}

double ProcessCpuSeconds() {
  timespec ts;
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  size_t rank = static_cast<size_t>(p / 100.0 * static_cast<double>(v.size()));
  if (rank >= v.size()) rank = v.size() - 1;
  std::nth_element(v.begin(), v.begin() + static_cast<ptrdiff_t>(rank),
                   v.end());
  return v[rank];
}

namespace {

/// The calibration routine: the same work on every call.
uint64_t CalibrationRoutine() {
  const std::regex fact(R"((\w+)\((-?\d+),(-?\d+)\))");
  std::map<std::string, int> counts;
  std::vector<std::string> facts;
  uint64_t sum = 0;
  char buf[64];
  for (int i = 0; i < 150; ++i) {
    snprintf(buf, sizeof buf, "edge(%d,%d)", (i * 7919) % 100003, i * 7);
    std::cmatch m;
    if (std::regex_match(buf, m, fact)) {
      sum += static_cast<uint64_t>(strtol(m[2].first, nullptr, 10));
    }
    counts[buf] += i;
    facts.emplace_back(buf);
    snprintf(buf, sizeof buf, "%.6g", i * 3.14159);
    sum += static_cast<uint64_t>(strtod(buf, nullptr));
  }
  std::stable_sort(facts.begin(), facts.end());
  return sum + counts.size() + facts.front().size();
}

/// Where the routine's result goes, so the compiler cannot drop the work.
volatile uint64_t calibration_sink = 0;

}  // namespace

void Calibration::Probe() {
  // The first runs in a process also load the library code and its data
  // (about 1.6x slower); a few more untimed runs keep them out.
  for (int i = us_.empty() ? 5 : 1; i > 0; --i) {
    calibration_sink = calibration_sink + CalibrationRoutine();
  }
  const double cpu0 = ProcessCpuSeconds();
  calibration_sink = calibration_sink + CalibrationRoutine();
  const double cpu1 = ProcessCpuSeconds();
  const Clock::time_point now = Clock::now();
  at_.push_back(now);
  us_.push_back((cpu1 - cpu0) * 1e6);
  next_ = now + kInterval;
}

double Calibration::Scaled(const Interval& interval) const {
  if (us_.empty()) return interval.cpu_s;
  const auto lo = std::lower_bound(at_.begin(), at_.end(), interval.start - kWindow);
  const auto hi = std::upper_bound(at_.begin(), at_.end(), interval.end + kWindow);
  const double local =
      lo < hi ? Median(std::vector<double>(us_.begin() + (lo - at_.begin()),
                                           us_.begin() + (hi - at_.begin())))
              : Median(us_);
  return interval.cpu_s * kReferenceUs / local;
}

double MedianSetupS(int n, const std::function<void()>& set_up,
                    double* wall_s) {
  Calibration calibration;
  std::vector<Interval> times;
  // A set-up is one long stretch, so it is calibrated only by the probes
  // at its ends: three on each side keep one slow probe from counting.
  auto probes = [&calibration] {
    for (int i = 0; i < 3; ++i) calibration.Probe();
  };
  for (int i = 0; i < n; ++i) {
    probes();
    Stopwatch clock;
    set_up();
    times.push_back(clock.Stop());
    probes();
  }
  std::vector<double> cpu_s, wall;
  for (const Interval& t : times) {
    cpu_s.push_back(calibration.Scaled(t));
    wall.push_back(t.wall_s());
  }
  *wall_s = Median(wall);
  return Median(cpu_s);
}

double PeakRssMb() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

double CurrentRssMb() {
  std::ifstream in("/proc/self/statm");
  long pages = 0, resident = 0;
  in >> pages >> resident;
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

std::mt19937_64 Rng(uint64_t seed, uint64_t stream) {
  // SplitMix64 over (seed, stream): nearby seeds and labels give unrelated
  // streams.
  uint64_t z = seed * 0x9E3779B97F4A7C15ULL + stream * 0xBF58476D1CE4E5B9ULL +
               0x94D049BB133111EBULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return std::mt19937_64(z ^ (z >> 31));
}

namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

const std::vector<MetricSpec>& EndToEndMetrics() {
  static const std::vector<MetricSpec> kSpecs = {
      {"setup_s", "s"},
      {"cpu_latency_p50_us", "us"},
      {"cpu_latency_p95_us", "us"},
      {"cpu_throughput_per_s", "1/s"},
      {"peak_rss_mb", "MB"},
  };
  return kSpecs;
}

const std::vector<MetricSpec>& PerLayerMetrics() {
  static const std::vector<MetricSpec> kSpecs = {
      {"server.self_frac", "frac"},
      {"server.codec_us", "us"},
      {"server.transport_us", "us"},
      {"server.ping_rtt_us", "us"},
      {"server.response_bytes", "B"},
      {"api.self_frac", "frac"},
      {"api.read_execute_us", "us"},
      {"api.mutate_execute_us", "us"},
      {"parser.self_frac", "frac"},
      {"parser.goal_us", "us"},
      {"parser.batch_validate_us", "us"},
      {"plan.self_frac", "frac"},
      {"plan.query_plan_us", "us"},
      {"plan.bodies_planned", "count"},
      {"plan.compile_s", "s"},
      {"exec.self_frac", "frac"},
      {"exec.query_execute_us", "us"},
      {"exec.rows_scanned_per_answer", "count"},
      {"exec.dup_frac", "frac"},
      {"exec.batch_row_frac", "frac"},
      {"exec.join_ladder_s", "s"},
      {"runtime.group_agg_s", "s"},
      {"nail.self_frac", "frac"},
      {"nail.tc_cycle_s", "s"},
      {"nail.tc_complete_s", "s"},
      {"nail.sg_tree_s", "s"},
      {"nail.neg_reach_s", "s"},
      {"nail.iterations", "count"},
      {"nail.derived_per_s", "1/s"},
      {"nail.refreshes", "count"},
      {"nail.delta_refresh_us", "us"},
      {"nail.ivm_hit_frac", "frac"},
      {"nail.ivm_rows_in_per_refresh", "count"},
      {"nail.ivm_rows_out_per_refresh", "count"},
      {"storage.self_frac", "frac"},
      {"storage.edb_load_s", "s"},
      {"storage.apply_us", "us"},
      {"storage.wal_append_us", "us"},
      {"storage.wal_sync_us", "us"},
      {"storage.wal_group_size", "count"},
      {"storage.wal_bytes_per_user_byte", "ratio"},
      {"storage.checkpoint_load_s", "s"},
      {"storage.records_replayed", "count"},
      {"storage.index_probe_rows_per_lookup", "count"},
      {"storage.bytes_per_tuple", "B"},
      {"term.terms_per_op", "count"},
      {"obs.trace_overhead_frac", "frac"},
      {"bench.unattributed_frac", "frac"},
  };
  return kSpecs;
}

}  // namespace

// --- Report -------------------------------------------------------------

Report::Report(bool trace) : trace_(trace) {
  for (const MetricSpec& spec : trace ? PerLayerMetrics() : EndToEndMetrics()) {
    // Per-layer metrics of a layer the workload never reaches read 0;
    // end-to-end metrics must be set explicitly.
    metrics_.push_back({spec.name, 0.0, spec.unit, trace});
  }
}

void Report::Set(std::string_view name, double value) {
  for (Entry& e : metrics_) {
    if (e.name == name) {
      e.value = value;
      e.set = true;
      return;
    }
  }
  fprintf(stderr, "bench_workloads: metric %.*s is not in the %s catalog\n",
          static_cast<int>(name.size()), name.data(),
          trace_ ? "per-layer" : "end-to-end");
  std::abort();
}

void Report::Detail(std::string name, double value, std::string unit) {
  details_.push_back({std::move(name), value, std::move(unit), true});
}

void Report::Context(std::string key, std::string value) {
  for (auto& [k, v] : context_) {
    if (k == key) {
      v = std::move(value);
      return;
    }
  }
  context_.emplace_back(std::move(key), std::move(value));
}

void Report::AddAttempts(uint64_t attempted, uint64_t failed) {
  attempted_ += attempted;
  failed_ += failed;
}

void Report::Fail(const std::string& what) {
  if (++checks_failed_ <= 10) {
    fprintf(stderr, "bench_workloads: check failed: %s\n", what.c_str());
  }
}

// --- Spans --------------------------------------------------------------

int32_t SpanLog::Open(std::string name, Clock::time_point start,
                      int32_t parent, uint64_t request) {
  if (spans_.size() >= kMaxSpans) return -1;
  int64_t at = std::chrono::duration_cast<std::chrono::nanoseconds>(
                   start - epoch_)
                   .count();
  spans_.push_back({std::move(name), at, at, parent, request});
  return static_cast<int32_t>(spans_.size() - 1);
}

void SpanLog::Close(int32_t idx, Clock::time_point end) {
  if (idx < 0) return;
  spans_[static_cast<size_t>(idx)].end_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(end - epoch_)
          .count();
}

bool WriteChromeTrace(const std::string& path,
                      const std::vector<const SpanLog*>& logs) {
  FILE* f = fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  fputs("{\"traceEvents\":[", f);
  bool first = true;
  for (const SpanLog* log : logs) {
    for (const SpanLog::Span& s : log->spans()) {
      fprintf(f,
              "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
              "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"request\":%" PRIu64
              ",\"parent\":%d}}",
              first ? "" : ",", s.name.c_str(), log->tid(),
              static_cast<double>(s.start_ns) / 1e3,
              static_cast<double>(s.end_ns - s.start_ns) / 1e3, s.request,
              s.parent);
      first = false;
    }
  }
  fputs("\n]}\n", f);
  return fclose(f) == 0;
}

// --- Layers -------------------------------------------------------------

namespace {

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kServer: return "server";
    case Layer::kApi: return "api";
    case Layer::kParser: return "parser";
    case Layer::kPlan: return "plan";
    case Layer::kExec: return "exec";
    case Layer::kNail: return "nail";
    case Layer::kStorage: return "storage";
    case Layer::kUnattributed: return "unattributed";
    case Layer::kCount: break;
  }
  return "?";
}

/// The layer an engine span belongs to, from the name the engine gives it;
/// op-level spans inherit their parent's layer.
std::optional<Layer> EngineSpanLayer(std::string_view name) {
  auto starts = [name](std::string_view p) {
    return name.substr(0, p.size()) == p;
  };
  if (starts("nail:")) return Layer::kNail;
  if (name == "query:parse" || name == "stmt:parse") return Layer::kParser;
  if (name == "query:plan" || name == "stmt:compile") return Layer::kPlan;
  if (starts("query:") || starts("stmt:")) return Layer::kExec;
  return std::nullopt;
}

}  // namespace

double LayerTimes::AddEngineTrace(const QueryTrace& trace) {
  const std::vector<TraceSpan>& spans = trace.spans;
  std::vector<double> child_ns(spans.size(), 0.0);
  for (const TraceSpan& s : spans) {
    if (s.parent >= 0 && static_cast<size_t>(s.parent) < spans.size()) {
      child_ns[static_cast<size_t>(s.parent)] += static_cast<double>(s.dur_ns);
    }
  }
  std::vector<Layer> layer(spans.size(), Layer::kExec);
  double roots = 0, exec_self = 0;
  for (size_t i = 0; i < spans.size(); ++i) {
    const TraceSpan& s = spans[i];
    std::optional<Layer> own = EngineSpanLayer(s.name);
    if (own) {
      layer[i] = *own;
    } else if (s.parent >= 0 && static_cast<size_t>(s.parent) < i) {
      layer[i] = layer[static_cast<size_t>(s.parent)];
    }
    double self = std::max(0.0, static_cast<double>(s.dur_ns) - child_ns[i]);
    Add(layer[i], self);
    if (layer[i] == Layer::kExec) exec_self += self;
    if (s.parent < 0) roots += static_cast<double>(s.dur_ns);
    if (s.name == "query:parse" || s.name == "query:plan" ||
        s.name == "nail:refresh" || s.name == "nail:delta-refresh") {
      Note(s.name, static_cast<double>(s.dur_ns));
    }
    if (s.name == "nail:iteration" ||
        s.name.find(":match '$delta'(") != std::string::npos) {
      Note("nail.iteration", 1);
    }
  }
  Note("exec.self", exec_self);
  return roots;
}

double LayerTimes::total() const {
  double sum = 0;
  for (double v : ns_) sum += v;
  return sum;
}

void LayerTimes::Note(std::string_view name, double value) {
  auto it = notes_.find(name);
  if (it == notes_.end()) it = notes_.emplace(std::string(name), Reading{}).first;
  it->second.sum += value;
  it->second.count += 1;
}

const LayerTimes::Reading* LayerTimes::Find(std::string_view name) const {
  auto it = notes_.find(name);
  return it == notes_.end() ? nullptr : &it->second;
}

double LayerTimes::Sum(std::string_view name) const {
  const Reading* r = Find(name);
  return r != nullptr ? r->sum : 0;
}

double LayerTimes::Count(std::string_view name) const {
  const Reading* r = Find(name);
  return r != nullptr ? r->count : 0;
}

double LayerTimes::Mean(std::string_view name) const {
  const Reading* r = Find(name);
  return r != nullptr ? r->sum / r->count : 0;
}

ReplayRequest::ReplayRequest(LayerTimes* times, SpanLog* log, uint64_t id,
                             const char* name)
    : times_(times), log_(log), id_(id), start_(Clock::now()) {
  span_ = log_->Open(name, start_, -1, id_);
}

ReplayRequest::~ReplayRequest() {
  Clock::time_point end = Clock::now();
  log_->Close(span_, end);
  double total = std::chrono::duration<double, std::nano>(end - start_).count();
  if (total > covered_ns_) times_->Add(Layer::kUnattributed, total - covered_ns_);
}

void ReplayRequest::AddEngineSpans(const QueryTrace& trace,
                                   Clock::time_point start) {
  // Engine span times are relative to the engine's trace epoch, which
  // starts just inside the call; anchor them at the call's start.
  const int32_t base = static_cast<int32_t>(log_->spans().size());
  for (const TraceSpan& s : trace.spans) {
    Clock::time_point b = start + std::chrono::nanoseconds(s.start_ns);
    int32_t parent = s.parent >= 0 ? base + s.parent : span_;
    log_->Add(s.name, b, b + std::chrono::nanoseconds(s.dur_ns), parent, id_);
  }
}

// --- Engine counters ----------------------------------------------------

EngineCounters EngineCounters::Take(const Engine& engine) {
  EngineCounters c;
  c.json_ = engine.DumpMetrics(MetricsFormat::kJson);
  return c;
}

double EngineCounters::Field(std::string_view name,
                             std::string_view field) const {
  std::string key = StrCat("\"name\":\"", name, "\"");
  size_t pos = json_.find(key);
  if (pos == std::string::npos) return 0;
  size_t end = json_.find("\"name\":", pos + key.size());
  std::string fkey = StrCat("\"", field, "\":");
  size_t at = json_.find(fkey, pos);
  if (at == std::string::npos || (end != std::string::npos && at > end)) {
    return 0;
  }
  return strtod(json_.c_str() + at + fkey.size(), nullptr);
}

double EngineCounters::Value(std::string_view name) const {
  return Field(name, "value");
}
double EngineCounters::HistCount(std::string_view name) const {
  return Field(name, "count");
}
double EngineCounters::HistSum(std::string_view name) const {
  return Field(name, "sum");
}

void CounterDelta::Add(const EngineCounters& b, const EngineCounters& a) {
  auto d = [&](const char* name) { return a.Value(name) - b.Value(name); };
  index_lookups += d("gluenail_storage_index_lookups_total");
  index_probe_rows += d("gluenail_storage_index_probe_rows_total");
  rows_visited += d("gluenail_storage_scan_rows_total") +
                  d("gluenail_storage_index_probe_rows_total");
  records += d("gluenail_exec_records_produced_total");
  duplicates += d("gluenail_exec_duplicates_removed_total");
  batch_rows += d("gluenail_exec_batch_rows_total");
  refreshes += d("gluenail_nail_refreshes_total");
  delta_refreshes += d("gluenail_nail_delta_refresh_total");
  full_refreshes += d("gluenail_nail_full_refresh_total");
  ivm_rows_in += d("gluenail_nail_ivm_delta_rows_in_total");
  ivm_rows_out += d("gluenail_nail_ivm_delta_rows_out_total");
  terms += d("gluenail_termpool_terms");
  bodies_planned += d("gluenail_planner_bodies_planned_total");
  wal_bytes += d("gluenail_wal_appended_bytes_total");
  const char* group = "gluenail_wal_group_commit_batches";
  wal_fsync_groups += a.HistCount(group) - b.HistCount(group);
  wal_grouped_commits += a.HistSum(group) - b.HistSum(group);
}

namespace {
double Ratio(double num, double den) { return den > 0 ? num / den : 0; }
}  // namespace

void SetCounterMetrics(const CounterDelta& d, double results, double ops,
                       double user_bytes, double requests, Report* report) {
  report->Set("plan.bodies_planned", Ratio(d.bodies_planned, requests));
  report->Set("exec.rows_scanned_per_answer", Ratio(d.rows_visited, results));
  report->Set("exec.dup_frac", Ratio(d.duplicates, d.records));
  report->Set("exec.batch_row_frac", Ratio(d.batch_rows, d.records));
  report->Set("nail.refreshes", d.refreshes);
  report->Set("nail.ivm_hit_frac",
              Ratio(d.delta_refreshes, d.delta_refreshes + d.full_refreshes));
  report->Set("nail.ivm_rows_in_per_refresh",
              Ratio(d.ivm_rows_in, d.delta_refreshes));
  report->Set("nail.ivm_rows_out_per_refresh",
              Ratio(d.ivm_rows_out, d.delta_refreshes));
  report->Set("storage.wal_group_size",
              Ratio(d.wal_grouped_commits, d.wal_fsync_groups));
  report->Set("storage.wal_bytes_per_user_byte", Ratio(d.wal_bytes, user_bytes));
  report->Set("storage.index_probe_rows_per_lookup",
              Ratio(d.index_probe_rows, d.index_lookups));
  report->Set("term.terms_per_op", Ratio(d.terms, ops));
}

void SetLayerMetrics(const LayerTimes& t, Report* report) {
  const double total = t.total();
  for (Layer layer : {Layer::kServer, Layer::kApi, Layer::kParser,
                      Layer::kPlan, Layer::kExec, Layer::kNail,
                      Layer::kStorage}) {
    report->Set(std::string(LayerName(layer)) + ".self_frac",
                Ratio(t.ns(layer), total));
  }
  report->Set("bench.unattributed_frac", Ratio(t.ns(Layer::kUnattributed), total));
  auto us = [&t](std::string_view name) { return t.Mean(name) / 1e3; };
  report->Set("server.codec_us",
              us("server.command_codec") + us("server.response_codec"));
  report->Set("server.response_bytes", t.Mean("server.response_bytes"));
  report->Set("api.read_execute_us", us("api.read"));
  report->Set("api.mutate_execute_us", us("api.mutate"));
  report->Set("parser.goal_us", us("query:parse"));
  report->Set("parser.batch_validate_us", us("parser.validate"));
  report->Set("plan.query_plan_us", us("query:plan"));
  report->Set("exec.query_execute_us", us("exec.self"));
  // Per full refresh: the delta refreshes' DRed and counting rounds have
  // no span of their own.
  report->Set("nail.iterations",
              Ratio(t.Count("nail.iteration"),
                    t.Count("nail:refresh") - t.Count("nail:delta-refresh")));
  report->Set("nail.delta_refresh_us", us("nail:delta-refresh"));
  // Session::Execute of a batch parses every fact again before applying
  // it; the apply alone is the call minus a Validate of the same batch.
  report->Set("storage.apply_us",
              std::max(0.0, us("api.mutate") - us("parser.validate")));
  report->Set("storage.wal_append_us", us("storage.wal_append"));
  report->Set("storage.wal_sync_us", us("storage.wal_sync"));
}

double BytesPerTuple(const EngineCounters& now) {
  return Ratio(now.Value("gluenail_storage_arena_bytes"),
               now.Value("gluenail_storage_live_tuples"));
}

double LoadProgramTimed(Session& session, const std::string& module) {
  Clock::time_point t0 = Clock::now();
  MustOk(ParseProgram(module).status(), "program parse");
  Clock::time_point t1 = Clock::now();
  MustOk(session.Execute(Command::LoadProgramText(module)).status,
         "program load");
  Clock::time_point t2 = Clock::now();
  return std::max(0.0, Seconds(t2 - t1) - Seconds(t1 - t0));
}

double PingRttUs(uint16_t port, int n) {
  Result<Client> client = Client::Connect("127.0.0.1", port);
  MustOk(client.status(), "ping connection");
  std::vector<double> rtt;
  for (int i = 0; i < n; ++i) {
    Clock::time_point t0 = Clock::now();
    MustOk(client->Ping(), "ping");
    rtt.push_back(Micros(Clock::now() - t0));
  }
  return Median(std::move(rtt));
}

TimedResponse TimedExecute(Client& client, const Command& cmd) {
  Stopwatch clock;
  Result<WireResponse> r = client.Execute(cmd);
  return {std::move(r), clock.Stop()};
}

// --- Codec round trips --------------------------------------------------

namespace {

std::string Unframe(const std::string& frame) {
  FrameDecoder decoder;
  decoder.Feed(frame);
  Result<std::optional<WireFrame>> next = decoder.Next();
  if (!next.ok() || !next->has_value()) return {};
  return std::move((*next)->payload);
}

}  // namespace

size_t CommandRoundTrip(const Command& cmd) {
  std::string frame = EncodeFrame(FrameType::kCommand, EncodeCommand(cmd));
  Result<Command> back = DecodeCommand(Unframe(frame));
  if (!back.ok()) std::abort();  // our own encoding must decode
  return frame.size();
}

size_t ResponseRoundTrip(const Response& response, const TermPool& pool) {
  std::string frame =
      EncodeFrame(FrameType::kResponse, EncodeResponse(response, pool));
  Result<WireResponse> back = DecodeResponse(Unframe(frame));
  if (!back.ok()) std::abort();
  return frame.size();
}

// --- Answers ------------------------------------------------------------

Rows IntRows(const std::vector<Tuple>& rows, const TermPool& pool) {
  Rows out;
  out.reserve(rows.size());
  for (const Tuple& row : rows) {
    std::vector<int64_t> r;
    r.reserve(row.size());
    for (TermId t : row) r.push_back(pool.IsInt(t) ? pool.IntValue(t) : INT64_MIN);
    out.push_back(std::move(r));
  }
  return out;
}

Rows IntRows(const std::vector<std::vector<std::string>>& rows) {
  Rows out;
  out.reserve(rows.size());
  for (const std::vector<std::string>& row : rows) {
    std::vector<int64_t> r;
    r.reserve(row.size());
    for (const std::string& cell : row) {
      char* end = nullptr;
      long long v = strtoll(cell.c_str(), &end, 10);
      r.push_back(cell.empty() || *end != '\0' ? INT64_MIN : v);
    }
    out.push_back(std::move(r));
  }
  return out;
}

std::string FilesystemType(const std::string& path) {
  struct statfs fs;
  if (statfs(path.c_str(), &fs) != 0) return "unknown";
  switch (static_cast<unsigned long>(fs.f_type)) {
    case 0xEF53: return "ext4";
    case 0x01021994: return "tmpfs";
    case 0x794C7630: return "overlayfs";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    default: {
      char buf[32];
      snprintf(buf, sizeof buf, "0x%lx", static_cast<unsigned long>(fs.f_type));
      return buf;
    }
  }
}

}  // namespace workloads
}  // namespace gluenail
