/// \file slow_query.h
/// \brief Bounded log of queries that exceeded the engine's latency
/// threshold (EngineOptions::slow_query_threshold).
///
/// Each entry captures what a perf investigation needs before the query is
/// gone: the query text, the chosen plan with est vs. actual rows per op,
/// how many times the semi-naive driver replanned during evaluation, and
/// the top-3 spans by duration from the query's trace. Recording is
/// mutexed but only happens once per slow query, never on a hot path.

#ifndef GLUENAIL_OBS_SLOW_QUERY_H_
#define GLUENAIL_OBS_SLOW_QUERY_H_

#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "src/obs/trace.h"

namespace gluenail {

struct SlowQueryEntry {
  std::string query;
  double seconds = 0;
  uint64_t replans = 0;
  std::string plan;  ///< chosen plan(s), est vs. actual rows per op
  /// Top spans by duration: (name, dur_ns), longest first.
  std::vector<std::pair<std::string, uint64_t>> top_spans;
  /// When the query triggered a NAIL! memo refresh: how it ran — "full"
  /// (with the fallback reason in parentheses when IVM was on) or the
  /// incremental mode ("dred" | "empty") — plus the EDB delta rows
  /// consumed and memo rows changed. Empty when the query hit a fresh
  /// memo.
  std::string nail_refresh_mode;
  uint64_t nail_delta_rows_in = 0;
  uint64_t nail_delta_rows_out = 0;
};

/// The (name, dur_ns) of the \p n longest spans, longest first.
std::vector<std::pair<std::string, uint64_t>> TopSpansByDuration(
    const std::vector<TraceSpan>& spans, size_t n);

/// Bounded FIFO of slow-query entries; oldest evicted first. Thread-safe.
class SlowQueryLog {
 public:
  explicit SlowQueryLog(size_t capacity)
      : capacity_(capacity ? capacity : 1) {}

  void Record(SlowQueryEntry entry);
  std::vector<SlowQueryEntry> Entries() const;
  /// Slow queries ever recorded (including evicted entries).
  uint64_t total() const;
  /// Human-readable dump for the REPL's `:slowlog`.
  std::string Render() const;

 private:
  size_t capacity_;
  mutable std::mutex mu_;
  std::deque<SlowQueryEntry> entries_;
  uint64_t total_ = 0;
};

}  // namespace gluenail

#endif  // GLUENAIL_OBS_SLOW_QUERY_H_
