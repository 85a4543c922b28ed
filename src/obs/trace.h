/// \file trace.h
/// \brief Structured per-query tracing: span trees, thread-local sinks,
/// bounded trace rings, Chrome trace_event export.
///
/// A traced query (QueryOptions::trace, or any query while the slow-query
/// log is armed) records a tree of TraceSpans — parse, plan, per-statement
/// execute with per-op row markers, fixpoint iterations — into a TraceSink
/// installed thread-locally for the query's duration. Instrumented code
/// never names a sink explicitly: ScopedSpan looks up the current sink and
/// is a no-op when none is installed, so untraced queries pay one
/// thread-local load per span site and nothing else.
///
/// Finished traces become immutable QueryTrace objects held by shared_ptr
/// in a bounded TraceRing (one per Engine, one per Session), rendered as an
/// indented tree (`:trace last`) or as Chrome `trace_event` JSON that loads
/// in about://tracing (`:trace chrome`).

#ifndef GLUENAIL_OBS_TRACE_H_
#define GLUENAIL_OBS_TRACE_H_

// Compile-time kill switch for hot-path span starts: with GLUENAIL_TRACE=0
// the ScopedSpan constructors compile to nothing, so even the per-site
// thread-local load disappears. Trace plumbing (sinks, rings, rendering)
// stays built either way; traces just come back empty.
#ifndef GLUENAIL_TRACE
#define GLUENAIL_TRACE 1
#endif

#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace gluenail {

/// One timed event. Spans form a tree via parent indices into the owning
/// sink/trace's span vector; times are nanoseconds relative to the trace
/// epoch.
struct TraceSpan {
  std::string name;
  uint64_t start_ns = 0;
  uint64_t dur_ns = 0;
  int32_t parent = -1;  ///< index of the enclosing span, -1 for roots
  uint64_t rows = 0;    ///< rows produced/visited, when the site knows
};

/// An immutable finished trace.
struct QueryTrace {
  std::string query;
  uint64_t total_ns = 0;
  uint64_t dropped = 0;  ///< spans discarded once the per-query cap hit
  std::string plan;      ///< chosen plan(s) with est vs. actual rows
  std::vector<TraceSpan> spans;

  /// Indented span tree with durations and row counts.
  std::string RenderTree() const;
  /// Chrome trace_event JSON ("X" complete events, µs timestamps); loads
  /// directly in about://tracing / ui.perfetto.dev.
  std::string RenderChromeJson() const;
};

/// Collects spans for one query on one thread. Not thread-safe by design:
/// each thread records into its own sink (installed via TraceScope).
class TraceSink {
 public:
  TraceSink() : epoch_(std::chrono::steady_clock::now()) {}

  /// The sink installed on this thread, or null when nothing traces.
  static TraceSink* Current();

  /// Opens a span under the innermost open span. Returns its index, or -1
  /// when the per-query span cap was hit (the span is counted as dropped).
  int32_t StartSpan(std::string name);
  void EndSpan(int32_t idx);
  void AddRows(int32_t idx, uint64_t rows);

  /// Appends rendered plan text (accumulates across the statements of one
  /// query; separated by blank lines).
  void AppendPlan(const std::string& text);

  /// Freezes everything recorded so far into an immutable trace.
  QueryTrace Finish(std::string query, uint64_t total_ns);

 private:
  static constexpr size_t kMaxSpans = 4096;

  std::chrono::steady_clock::time_point epoch_;
  std::vector<TraceSpan> spans_;
  std::vector<int32_t> open_;
  uint64_t dropped_ = 0;
  std::string plan_;
};

/// RAII installation of a sink as the thread's current one (saves and
/// restores the previous sink, so scopes nest).
class TraceScope {
 public:
  explicit TraceScope(TraceSink* sink);
  ~TraceScope();
  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

 private:
  TraceSink* previous_;
};

/// RAII span against the thread's current sink; inert when no sink is
/// installed (or when GLUENAIL_TRACE=0, where the constructor body
/// compiles away entirely).
class ScopedSpan {
 public:
  ScopedSpan() = default;
  explicit ScopedSpan(const char* name) {
#if GLUENAIL_TRACE
    sink_ = TraceSink::Current();
    if (sink_ != nullptr) idx_ = sink_->StartSpan(name);
#endif
  }
  explicit ScopedSpan(std::string name) {
#if GLUENAIL_TRACE
    sink_ = TraceSink::Current();
    if (sink_ != nullptr) idx_ = sink_->StartSpan(std::move(name));
#endif
  }
  ~ScopedSpan() { End(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Closes the span early (idempotent; the destructor becomes a no-op).
  void End() {
    if (sink_ != nullptr) {
      sink_->EndSpan(idx_);
      sink_ = nullptr;
    }
  }
  void AddRows(uint64_t n) {
    if (sink_ != nullptr) sink_->AddRows(idx_, n);
  }
  bool active() const { return sink_ != nullptr; }

 private:
  TraceSink* sink_ = nullptr;
  int32_t idx_ = -1;
};

/// Bounded FIFO of finished traces; oldest evicted first. Thread-safe
/// (concurrent sessions push while the REPL reads).
class TraceRing {
 public:
  explicit TraceRing(size_t capacity) : capacity_(capacity ? capacity : 1) {}

  void Push(std::shared_ptr<const QueryTrace> trace);
  std::shared_ptr<const QueryTrace> Last() const;
  std::vector<std::shared_ptr<const QueryTrace>> All() const;

 private:
  size_t capacity_;
  mutable std::mutex mu_;
  std::deque<std::shared_ptr<const QueryTrace>> ring_;
};

}  // namespace gluenail

#endif  // GLUENAIL_OBS_TRACE_H_
