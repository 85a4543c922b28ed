/// \file harness.h
/// \brief Measurement plumbing shared by the three workloads: clocks and
/// percentiles, the metric catalog every run reports against, bench-side
/// trace spans, per-layer self-time attribution, and engine counter
/// snapshots. The workloads reach the engine only through its public
/// surface (Session::Execute, Client, the protocol codecs, ...).

#ifndef GLUENAIL_BENCH_WORKLOADS_HARNESS_H_
#define GLUENAIL_BENCH_WORKLOADS_HARNESS_H_

#include <array>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <random>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/api/command.h"
#include "src/api/engine.h"
#include "src/api/session.h"
#include "src/server/client.h"

namespace gluenail {
namespace workloads {

using Clock = std::chrono::steady_clock;

inline double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}
inline double Micros(Clock::duration d) {
  return std::chrono::duration<double, std::micro>(d).count();
}

inline Clock::duration SecondsToDuration(double s) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(s));
}

/// Nearest-rank percentile (\p p in [0, 100]); 0 for an empty sample.
double Percentile(std::vector<double> v, double p);
inline double Median(std::vector<double> v) {
  return Percentile(std::move(v), 50);
}
inline double Sum(const std::vector<double>& v) {
  double sum = 0;
  for (double x : v) sum += x;
  return sum;
}

/// CPU time the whole process has used so far, every thread, user and
/// system, in seconds. Unlike the wall clock it stops while a thread waits
/// for a core and, on kernels with steal-time accounting, while the host
/// has taken the virtual CPU away, so on a shared machine it measures the
/// program rather than its neighbours. One reading costs about 0.5 us.
double ProcessCpuSeconds();

/// One timed stretch of work: when it ran, and the process CPU time it
/// took. Each workload has one request in flight at a time, so the process
/// CPU spent between a request's send and its answer is that request's
/// cost, client, kernel and server worker together.
struct Interval {
  Clock::time_point start;
  Clock::time_point end;
  double cpu_s;
  double wall_s() const { return Seconds(end - start); }
};

/// Times an Interval from construction to Stop().
class Stopwatch {
 public:
  Stopwatch() : start_(Clock::now()), cpu_(ProcessCpuSeconds()) {}
  Interval Stop() const {
    const double cpu = ProcessCpuSeconds();
    return {start_, Clock::now(), cpu - cpu_};
  }

 private:
  Clock::time_point start_;
  double cpu_;
};

/// How fast the machine runs at each moment of a run, from a fixed routine
/// timed between requests. On a shared host another tenant of the same
/// core slows the engine by up to half for seconds at a time, and CPU
/// time does not see it. The routine, which like a request runs a lot of
/// library code (parsing, formatting, regular expressions, an ordered map,
/// a sort) and touches no engine code, slows with it; tight loops barely
/// do. Scaling each interval by the routine's reference time over its time
/// around that interval gives the interval's CPU time at the reference
/// machine's speed. README.md, "How time is measured", has the
/// measurements.
class Calibration {
 public:
  /// The routine's time on the reference machine, a 4-vCPU VM, when
  /// nothing else slowed it.
  static constexpr double kReferenceUs = 330;
  /// MaybeProbe() probes at most this often.
  static constexpr auto kInterval = std::chrono::milliseconds(100);
  /// Probes within this much of an interval calibrate it.
  static constexpr auto kWindow = std::chrono::milliseconds(500);

  /// Times the routine once, after an untimed run that refills the caches
  /// the work before it left cold, so no request changes its time.
  /// Calibration objects are per phase: the first probe of each warms up.
  void Probe();
  /// Probes when kInterval has passed since the last probe.
  void MaybeProbe() {
    if (Clock::now() >= next_) Probe();
  }
  /// \p interval's CPU seconds at reference speed: its CPU time times
  /// kReferenceUs over the median routine time among the probes from
  /// kWindow before its start to kWindow after its end, or among all
  /// probes if none fall there. Call once the run's probes are taken.
  double Scaled(const Interval& interval) const;
  /// Median routine time over the run, and the number of probes.
  double median_us() const { return Median(us_); }
  size_t probes() const { return us_.size(); }

 private:
  std::vector<Clock::time_point> at_;  // ascending
  std::vector<double> us_;
  Clock::time_point next_{};
};

/// Set-up time: runs \p set_up \p n times, each between calibration
/// probes, and returns the median of their CPU times at reference speed;
/// \p wall_s receives the median wall time.
double MedianSetupS(int n, const std::function<void()>& set_up,
                    double* wall_s);

double PeakRssMb();
double CurrentRssMb();

/// Set-up failures are not measurements: report and exit without a result.
[[noreturn]] void SetupFailed(std::string_view what, const Status& status);
inline void MustOk(const Status& status, std::string_view what) {
  if (!status.ok()) SetupFailed(what, status);
}

/// What one benchmark process runs.
struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  /// Length of the measured window; set-up runs before it.
  double seconds = 10;
  /// Per-layer run (phases 0/A/B, see README.md) instead of end-to-end.
  bool trace = false;
  /// Smoke scale: tiny inputs, same code paths.
  bool tiny = false;
  /// Scratch directory for this run (WAL data dirs, replay logs, traces).
  std::string work_dir;
};

/// A deterministic stream derived from the run seed; distinct \p stream
/// labels give independent sequences.
std::mt19937_64 Rng(uint64_t seed, uint64_t stream);

/// Everything one run reports, against the metric catalogs BENCHMARK.json
/// declares: every end-to-end metric is reported by every workload;
/// per-layer metrics of a layer a workload does not exercise read 0. Used
/// from the main thread only; worker threads keep their own counters and
/// merge them in.
class Report {
 public:
  explicit Report(bool trace);

  /// Sets a catalog metric of the active kind (aborts on unknown names, so
  /// the catalog and the code cannot drift apart).
  void Set(std::string_view name, double value);
  /// An extra reading printed and stored in the result file only.
  void Detail(std::string name, double value, std::string unit);
  /// Sets (or replaces) one entry of the run's context.
  void Context(std::string key, std::string value);

  void AddAttempts(uint64_t attempted, uint64_t failed);
  /// Records a wrong answer or failed operation found by a check.
  void Fail(const std::string& what);
  /// Fails the run when \p ok is false.
  void Expect(bool ok, const std::string& what) {
    if (!ok) Fail(what);
  }

  struct Entry {
    std::string name;
    double value;
    std::string unit;
    bool set;
  };
  const std::vector<Entry>& metrics() const { return metrics_; }
  const std::vector<Entry>& details() const { return details_; }
  const std::vector<std::pair<std::string, std::string>>& context() const {
    return context_;
  }
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  uint64_t checks_failed() const { return checks_failed_; }
  bool correct() const { return failed_ == 0 && checks_failed_ == 0; }

 private:
  bool trace_;
  std::vector<Entry> metrics_;
  std::vector<Entry> details_;
  std::vector<std::pair<std::string, std::string>> context_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  uint64_t checks_failed_ = 0;
};

// --- Bench-side spans -----------------------------------------------------

/// Spans recorded around the benchmark's own calls into the engine, one
/// log per thread (no locking), dumped as Chrome trace JSON at exit.
class SpanLog {
 public:
  SpanLog(uint32_t tid, Clock::time_point epoch) : tid_(tid), epoch_(epoch) {}

  /// Opens a span; returns its index (-1 once the log is full).
  int32_t Open(std::string name, Clock::time_point start, int32_t parent,
               uint64_t request);
  void Close(int32_t idx, Clock::time_point end);
  /// Records a finished span.
  int32_t Add(std::string name, Clock::time_point start,
              Clock::time_point end, int32_t parent, uint64_t request) {
    int32_t idx = Open(std::move(name), start, parent, request);
    Close(idx, end);
    return idx;
  }

  struct Span {
    std::string name;
    int64_t start_ns;
    int64_t end_ns;
    int32_t parent;
    uint64_t request;
  };
  const std::vector<Span>& spans() const { return spans_; }
  uint32_t tid() const { return tid_; }

 private:
  static constexpr size_t kMaxSpans = 200000;
  uint32_t tid_;
  Clock::time_point epoch_;
  std::vector<Span> spans_;
};

/// Writes every log as one Chrome trace_event file.
bool WriteChromeTrace(const std::string& path,
                      const std::vector<const SpanLog*>& logs);

// --- Per-layer attribution (phase B replay) --------------------------------

enum class Layer : int {
  kServer,
  kApi,
  kParser,
  kPlan,
  kExec,
  kNail,
  kStorage,
  /// Replay time inside a request span covered by no layer span.
  kUnattributed,
  kCount,
};

/// Self time per layer over a replay, plus per-call readings by name. A
/// span's self time is its duration minus the part its child spans cover.
class LayerTimes {
 public:
  void Add(Layer layer, double ns) {
    ns_[static_cast<int>(layer)] += ns;
  }
  /// Attributes the engine's own spans (query:*, stmt:*, nail:*) by name
  /// and returns the time their root spans cover. Also notes the
  /// query:parse, query:plan, nail:refresh and nail:delta-refresh spans by
  /// name, "exec.self" (the exec layer's self time in this trace) and one
  /// "nail.iteration" per semi-naive iteration of a full refresh (a
  /// nail:iteration span, or in compiled-Glue mode an op reading a
  /// '$delta' relation, one per iteration of a linear recursive rule).
  double AddEngineTrace(const QueryTrace& trace);
  void Move(Layer from, Layer to, double ns) {
    double& src = ns_[static_cast<int>(from)];
    if (ns > src) ns = src;
    src -= ns;
    ns_[static_cast<int>(to)] += ns;
  }
  double ns(Layer layer) const { return ns_[static_cast<int>(layer)]; }
  double total() const;

  /// One reading of \p name (a duration in ns, or a size).
  void Note(std::string_view name, double value);
  double Sum(std::string_view name) const;
  double Count(std::string_view name) const;
  /// Sum over count; 0 when nothing was noted.
  double Mean(std::string_view name) const;

 private:
  struct Reading {
    double sum = 0;
    double count = 0;
  };
  const Reading* Find(std::string_view name) const;

  std::array<double, static_cast<int>(Layer::kCount)> ns_{};
  std::map<std::string, Reading, std::less<>> notes_;
};

/// Times one replayed request: the request span, and inside it one span
/// per layer call; whatever the layer calls leave uncovered is charged to
/// kUnattributed when the request closes.
class ReplayRequest {
 public:
  ReplayRequest(LayerTimes* times, SpanLog* log, uint64_t id,
                const char* name);
  ~ReplayRequest();
  ReplayRequest(const ReplayRequest&) = delete;
  ReplayRequest& operator=(const ReplayRequest&) = delete;

  /// Runs \p fn as one call charged to \p layer and noted under \p name;
  /// returns its duration in ns.
  template <typename Fn>
  double Time(Layer layer, const char* name, Fn&& fn) {
    Clock::time_point t0 = Clock::now();
    fn();
    Clock::time_point t1 = Clock::now();
    double ns = std::chrono::duration<double, std::nano>(t1 - t0).count();
    times_->Add(layer, ns);
    times_->Note(name, ns);
    covered_ns_ += ns;
    log_->Add(name, t0, t1, span_, id_);
    return ns;
  }
  /// Runs \p fn as an engine call whose trace is harvested: the engine's
  /// spans go to their layers, the rest of the call to \p self_layer.
  /// \p trace_of returns the call's trace (may be null).
  template <typename Fn, typename TraceOf>
  void TimeTraced(Layer self_layer, const char* name, Fn&& fn,
                  TraceOf&& trace_of) {
    Clock::time_point t0 = Clock::now();
    fn();
    Clock::time_point t1 = Clock::now();
    double ns = std::chrono::duration<double, std::nano>(t1 - t0).count();
    double inner = 0;
    if (std::shared_ptr<const QueryTrace> trace = trace_of()) {
      inner = times_->AddEngineTrace(*trace);
      AddEngineSpans(*trace, t0);
    }
    times_->Add(self_layer, inner < ns ? ns - inner : 0);
    times_->Note(name, ns);
    covered_ns_ += ns;
    log_->Add(name, t0, t1, span_, id_);
  }
  /// Moves up to \p ns already charged to \p from over to \p to. Used where
  /// one public call does the work of two layers and a separate call,
  /// timed outside the request, measures one of them alone.
  void Reassign(Layer from, Layer to, double ns) {
    times_->Move(from, to, ns);
  }

 private:
  void AddEngineSpans(const QueryTrace& trace, Clock::time_point start);

  LayerTimes* times_;
  SpanLog* log_;
  uint64_t id_;
  int32_t span_;
  Clock::time_point start_;
  double covered_ns_ = 0;
};

// --- Engine counters ---------------------------------------------------------

/// One DumpMetrics(kJson) snapshot; differences of two snapshots give the
/// counter deltas of a phase.
class EngineCounters {
 public:
  static EngineCounters Take(const Engine& engine);
  /// Counter or gauge value (0 when absent).
  double Value(std::string_view name) const;
  /// Histogram observation count and sum (0 when absent).
  double HistCount(std::string_view name) const;
  double HistSum(std::string_view name) const;

 private:
  double Field(std::string_view name, std::string_view field) const;
  std::string json_;
};

/// Engine counter deltas over a phase, summed across the engines it ran.
struct CounterDelta {
  double rows_visited = 0;  ///< scan rows plus index probe-chain rows
  double index_lookups = 0;
  double index_probe_rows = 0;
  double records = 0;
  double duplicates = 0;
  double batch_rows = 0;
  double refreshes = 0;
  double delta_refreshes = 0;
  double full_refreshes = 0;
  double ivm_rows_in = 0;
  double ivm_rows_out = 0;
  double terms = 0;
  double bodies_planned = 0;
  double wal_bytes = 0;
  double wal_fsync_groups = 0;
  double wal_grouped_commits = 0;
  void Add(const EngineCounters& before, const EngineCounters& after);
};

/// Sets the counter-derived per-layer metrics: \p results counts result
/// tuples (answers returned, or tuples derived), \p ops mutation ops or
/// facts loaded, \p user_bytes their fact text, \p requests requests sent.
void SetCounterMetrics(const CounterDelta& d, double results, double ops,
                       double user_bytes, double requests, Report* report);
/// Sets the metrics every replay yields: each <layer>.self_frac,
/// bench.unattributed_frac, and the per-call means of the names the
/// replays note (README.md, "Per-layer metrics", says which is which).
void SetLayerMetrics(const LayerTimes& times, Report* report);
/// storage.bytes_per_tuple from an engine's current storage gauges.
double BytesPerTuple(const EngineCounters& now);

/// Loads \p module through \p session (a failure ends the run) and returns
/// the seconds spent compiling it: the load's time minus that of a
/// separate ParseProgram of the same text.
double LoadProgramTimed(Session& session, const std::string& module);
/// Median round trip of \p n Client::Ping calls over one fresh connection.
double PingRttUs(uint16_t port, int n);

/// One request over \p client, timed from send to answer.
struct TimedResponse {
  Result<WireResponse> response;
  Interval time;
};
TimedResponse TimedExecute(Client& client, const Command& cmd);

// --- Wire codec round trips (what the server and client do per request) ---

/// Encodes, frames, unframes and decodes \p cmd. Returns the frame size.
size_t CommandRoundTrip(const Command& cmd);
/// Same for a response rendered through \p pool.
size_t ResponseRoundTrip(const Response& response, const TermPool& pool);

// --- Answers -----------------------------------------------------------------

/// Response rows as integers (every answer in this benchmark is integral);
/// a non-integer cell becomes INT64_MIN so it can never match an oracle.
using Rows = std::vector<std::vector<int64_t>>;
Rows IntRows(const std::vector<Tuple>& rows, const TermPool& pool);
Rows IntRows(const std::vector<std::vector<std::string>>& rows);

/// Filesystem type of \p path as statfs(2) reports it ("ext4", "tmpfs", ...).
std::string FilesystemType(const std::string& path);

}  // namespace workloads
}  // namespace gluenail

#endif  // GLUENAIL_BENCH_WORKLOADS_HARNESS_H_
