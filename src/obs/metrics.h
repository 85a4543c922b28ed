/// \file metrics.h
/// \brief Lock-free named metrics: counters, gauges, log-bucket histograms.
///
/// Every layer of the engine (term pool, storage, planner, executors,
/// semi-naive driver, persistence) registers named metrics here so one
/// `Engine::DumpMetrics()` call — or the REPL's `:metrics` — exposes the
/// whole pipeline. Two flavors coexist:
///
///  * owned metrics — the registry allocates the cell and hands back a
///    stable `Counter*` / `Gauge*` / `Histogram*` handle. Updates through a
///    handle are single relaxed atomic ops, so instrumenting a hot path
///    never takes a lock;
///  * pull metrics — a callback read at export time, for values a
///    subsystem already maintains itself (Relation::Counters, ExecStats,
///    fixpoint counters). Nothing is double-counted and the hot path is
///    untouched.
///
/// Registration and export serialize on one mutex; that mutex is never on
/// a query path. Export renders Prometheus text exposition or JSON.

#ifndef GLUENAIL_OBS_METRICS_H_
#define GLUENAIL_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace gluenail {

/// Monotonically increasing event count.
class Counter {
 public:
  void Add(uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// A value that can move both ways (live tuples, arena bytes).
class Gauge {
 public:
  void Set(int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void Add(int64_t n) { value_.fetch_add(n, std::memory_order_relaxed); }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// Fixed log2-bucket histogram. Bucket 0 counts values in [0, 2); bucket
/// b >= 1 counts [2^b, 2^(b+1)); the last bucket absorbs everything above.
/// 48 buckets span [0, 2^48) — nanosecond latencies up to ~3 days — with
/// no registration-time layout decisions, so Observe stays three relaxed
/// atomic adds and two histograms are always mergeable bucket-by-bucket.
class Histogram {
 public:
  static constexpr uint32_t kBuckets = 48;

  void Observe(uint64_t v) {
    buckets_[BucketOf(v)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
  }

  static uint32_t BucketOf(uint64_t v) {
    if (v < 2) return 0;
    uint32_t lg = 63u - static_cast<uint32_t>(__builtin_clzll(v));
    return lg < kBuckets - 1 ? lg : kBuckets - 1;
  }

  /// Inclusive upper bound of bucket \p b (the Prometheus `le` value); the
  /// last bucket has no finite bound and renders as +Inf.
  static uint64_t UpperBound(uint32_t b) { return (uint64_t{2} << b) - 1; }

  uint64_t bucket(uint32_t b) const {
    return buckets_[b].load(std::memory_order_relaxed);
  }
  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }

 private:
  std::array<std::atomic<uint64_t>, kBuckets> buckets_{};
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_{0};
};

/// The named-metric registry, one per Engine. Handles returned by the
/// Register* methods stay valid for the registry's lifetime (entries are
/// heap-allocated and never move). Names follow Prometheus conventions:
/// `gluenail_<subsystem>_<what>[_total]`.
class MetricsRegistry {
 public:
  Counter* RegisterCounter(std::string name, std::string help);
  Gauge* RegisterGauge(std::string name, std::string help);
  Histogram* RegisterHistogram(std::string name, std::string help);

  /// Export-time callbacks for values a subsystem already counts itself.
  void RegisterPullCounter(std::string name, std::string help,
                           std::function<uint64_t()> read);
  /// A pull counter over an atomic that outlives the registry (the
  /// process-wide counters of the free-function layers), read relaxed.
  void RegisterPullCounter(std::string name, std::string help,
                           const std::atomic<uint64_t>* value) {
    RegisterPullCounter(std::move(name), std::move(help), [value] {
      return value->load(std::memory_order_relaxed);
    });
  }
  void RegisterPullGauge(std::string name, std::string help,
                         std::function<int64_t()> read);

  /// Prometheus text exposition format (# HELP / # TYPE + samples).
  std::string RenderPrometheus() const;
  /// The same data as a JSON object {"metrics": [...]}.
  std::string RenderJson() const;

 private:
  struct Entry {
    enum class Kind { kCounter, kGauge, kHistogram, kPullCounter, kPullGauge };
    Kind kind;
    std::string name;
    std::string help;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
    std::function<uint64_t()> pull_counter;
    std::function<int64_t()> pull_gauge;
  };

  Entry* Add(Entry::Kind kind, std::string name, std::string help);

  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Entry>> entries_;
};

}  // namespace gluenail

#endif  // GLUENAIL_OBS_METRICS_H_
