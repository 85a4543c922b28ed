#include "src/obs/trace.h"

#include <algorithm>
#include <cstdio>

#include "src/common/strings.h"

namespace gluenail {

namespace {

thread_local TraceSink* g_current_sink = nullptr;

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string FormatMs(uint64_t ns) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3fms", static_cast<double>(ns) / 1e6);
  return buf;
}

}  // namespace

TraceSink* TraceSink::Current() { return g_current_sink; }

int32_t TraceSink::StartSpan(std::string name) {
  if (spans_.size() >= kMaxSpans) {
    ++dropped_;
    return -1;
  }
  TraceSpan span;
  span.name = std::move(name);
  span.start_ns = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - epoch_)
          .count());
  span.parent = open_.empty() ? -1 : open_.back();
  int32_t idx = static_cast<int32_t>(spans_.size());
  spans_.push_back(std::move(span));
  open_.push_back(idx);
  return idx;
}

void TraceSink::EndSpan(int32_t idx) {
  if (idx < 0 || static_cast<size_t>(idx) >= spans_.size()) return;
  uint64_t now_ns = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - epoch_)
          .count());
  TraceSpan& span = spans_[static_cast<size_t>(idx)];
  span.dur_ns = now_ns >= span.start_ns ? now_ns - span.start_ns : 0;
  if (!open_.empty() && open_.back() == idx) open_.pop_back();
}

void TraceSink::AddRows(int32_t idx, uint64_t rows) {
  if (idx < 0 || static_cast<size_t>(idx) >= spans_.size()) return;
  spans_[static_cast<size_t>(idx)].rows += rows;
}

void TraceSink::AppendPlan(const std::string& text) {
  if (text.empty()) return;
  if (!plan_.empty()) plan_ += "\n";
  plan_ += text;
}

QueryTrace TraceSink::Finish(std::string query, uint64_t total_ns) {
  QueryTrace out;
  out.query = std::move(query);
  out.total_ns = total_ns;
  out.dropped = dropped_;
  out.plan = std::move(plan_);
  out.spans = std::move(spans_);
  spans_.clear();
  open_.clear();
  plan_.clear();
  dropped_ = 0;
  return out;
}

std::string QueryTrace::RenderTree() const {
  std::string out = StrCat("trace: ", query, "  (", FormatMs(total_ns), ")\n");
  // Children in recording order; a parent index past the vector renders
  // as a root.
  std::vector<std::vector<size_t>> children(spans.size());
  std::vector<size_t> roots;
  for (size_t i = 0; i < spans.size(); ++i) {
    int32_t p = spans[i].parent;
    if (p < 0 || static_cast<size_t>(p) >= spans.size()) {
      roots.push_back(i);
    } else {
      children[static_cast<size_t>(p)].push_back(i);
    }
  }
  // Depth-first, explicit stack so a deep fixpoint cannot overflow ours.
  std::vector<std::pair<size_t, int>> stack;
  for (size_t r = roots.size(); r > 0; --r) stack.push_back({roots[r - 1], 1});
  while (!stack.empty()) {
    auto [idx, depth] = stack.back();
    stack.pop_back();
    const TraceSpan& s = spans[idx];
    out.append(static_cast<size_t>(depth) * 2, ' ');
    out += s.name;
    out += StrCat("  ", FormatMs(s.dur_ns));
    if (s.rows != 0) out += StrCat("  rows=", s.rows);
    out += "\n";
    const std::vector<size_t>& kids = children[idx];
    for (size_t k = kids.size(); k > 0; --k) {
      stack.push_back({kids[k - 1], depth + 1});
    }
  }
  if (dropped != 0) out += StrCat("  (", dropped, " spans dropped)\n");
  if (!plan.empty()) {
    out += "plan:\n";
    out += plan;
    if (out.back() != '\n') out += "\n";
  }
  return out;
}

std::string QueryTrace::RenderChromeJson() const {
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  // Every span is recorded on the query's thread; the format requires a
  // tid all the same.
  auto emit = [&](const std::string& name, uint64_t start_ns, uint64_t dur_ns,
                  uint64_t rows) {
    if (!first) out += ",";
    first = false;
    char ts[64];
    std::snprintf(ts, sizeof(ts), "%.3f", static_cast<double>(start_ns) / 1e3);
    char dur[64];
    std::snprintf(dur, sizeof(dur), "%.3f", static_cast<double>(dur_ns) / 1e3);
    out += StrCat("{\"name\":\"", JsonEscape(name),
                  "\",\"cat\":\"gluenail\",\"ph\":\"X\",\"ts\":", ts,
                  ",\"dur\":", dur, ",\"pid\":1,\"tid\":0",
                  ",\"args\":{\"rows\":", rows, "}}");
  };
  emit(query.empty() ? "query" : query, 0, total_ns, 0);
  for (const TraceSpan& s : spans) {
    emit(s.name, s.start_ns, s.dur_ns, s.rows);
  }
  out += "]}";
  return out;
}

TraceScope::TraceScope(TraceSink* sink) : previous_(g_current_sink) {
  g_current_sink = sink;
}

TraceScope::~TraceScope() { g_current_sink = previous_; }

void TraceRing::Push(std::shared_ptr<const QueryTrace> trace) {
  std::lock_guard<std::mutex> lock(mu_);
  ring_.push_back(std::move(trace));
  while (ring_.size() > capacity_) ring_.pop_front();
}

std::shared_ptr<const QueryTrace> TraceRing::Last() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ring_.empty() ? nullptr : ring_.back();
}

std::vector<std::shared_ptr<const QueryTrace>> TraceRing::All() const {
  std::lock_guard<std::mutex> lock(mu_);
  return {ring_.begin(), ring_.end()};
}

}  // namespace gluenail
