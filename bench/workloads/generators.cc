#include "bench/workloads/generators.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <unordered_set>

#include "src/common/strings.h"

namespace gluenail {
namespace workloads {

void AddFacts(std::string_view rel, const std::vector<Edge>& edges,
              MutationBatch* batch) {
  for (const Edge& e : edges) batch->Insert(StrCat(rel, "(", e.from, ",", e.to, ")"));
}

std::vector<Edge> CycleEdges(int n) {
  std::vector<Edge> out;
  for (int i = 0; i < n; ++i) out.push_back({i, (i + 1) % n});
  return out;
}

std::vector<Edge> CompleteEdges(int n) {
  std::vector<Edge> out;
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      if (i != j) out.push_back({i, j});
    }
  }
  return out;
}

int64_t TreeNodes(int depth) { return (int64_t{2} << depth) - 1; }

std::vector<Edge> TreeParentEdges(int depth) {
  std::vector<Edge> out;
  for (int64_t child = 1; child < TreeNodes(depth); ++child) {
    out.push_back({child, (child - 1) / 2});
  }
  return out;
}

uint64_t SameGenerationSize(int depth) {
  uint64_t sum = 0;
  for (int l = 0; l <= depth; ++l) sum += uint64_t{1} << (2 * l);
  return sum;
}

std::vector<int64_t> SameGenerationOf(int64_t node) {
  // Level l holds the heap indices [2^l - 1, 2^(l+1) - 1).
  int64_t first = 0;
  while (2 * first + 1 <= node) first = 2 * first + 1;
  std::vector<int64_t> out;
  for (int64_t v = first; v <= 2 * first; ++v) out.push_back(v);
  return out;
}

std::vector<Edge> RandomEdges(int64_t nodes, int64_t edges,
                              std::mt19937_64& rng) {
  std::uniform_int_distribution<int64_t> node(0, nodes - 1);
  std::unordered_set<uint64_t> seen;
  std::vector<Edge> out;
  out.reserve(static_cast<size_t>(edges));
  while (static_cast<int64_t>(out.size()) < edges) {
    Edge e{node(rng), node(rng)};
    if (seen.insert(static_cast<uint64_t>(e.from) * static_cast<uint64_t>(nodes) +
                    static_cast<uint64_t>(e.to))
            .second) {
      out.push_back(e);
    }
  }
  return out;
}

std::vector<int64_t> RandomNodes(int64_t nodes, int64_t count,
                                 std::mt19937_64& rng) {
  std::uniform_int_distribution<int64_t> node(0, nodes - 1);
  std::set<int64_t> picked;
  while (static_cast<int64_t>(picked.size()) < count) picked.insert(node(rng));
  return {picked.begin(), picked.end()};
}

std::vector<int64_t> Unreachable(int64_t nodes, const std::vector<Edge>& edges,
                                 const std::vector<int64_t>& sources) {
  std::vector<std::vector<int64_t>> adj(static_cast<size_t>(nodes));
  for (const Edge& e : edges) adj[static_cast<size_t>(e.from)].push_back(e.to);
  std::vector<char> reached(static_cast<size_t>(nodes), 0);
  std::vector<int64_t> frontier;
  for (int64_t s : sources) {
    if (!reached[static_cast<size_t>(s)]) {
      reached[static_cast<size_t>(s)] = 1;
      frontier.push_back(s);
    }
  }
  while (!frontier.empty()) {
    int64_t v = frontier.back();
    frontier.pop_back();
    for (int64_t w : adj[static_cast<size_t>(v)]) {
      if (!reached[static_cast<size_t>(w)]) {
        reached[static_cast<size_t>(w)] = 1;
        frontier.push_back(w);
      }
    }
  }
  std::vector<int64_t> out;
  for (int64_t v = 0; v < nodes; ++v) {
    if (!reached[static_cast<size_t>(v)]) out.push_back(v);
  }
  return out;
}

JoinLadder MakeJoinLadder(int64_t rows, std::mt19937_64& rng) {
  JoinLadder ladder;
  for (std::vector<int64_t>& p : ladder.perm) {
    p.resize(static_cast<size_t>(rows));
    std::iota(p.begin(), p.end(), int64_t{0});
    std::shuffle(p.begin(), p.end(), rng);
  }
  return ladder;
}

Sales MakeSales(int64_t rows, int64_t groups, std::mt19937_64& rng) {
  std::uniform_int_distribution<int64_t> group(0, groups - 1);
  std::uniform_int_distribution<int64_t> value(1, 1000);
  Sales s;
  s.group_sums.assign(static_cast<size_t>(groups), 0);
  s.rows.reserve(static_cast<size_t>(rows));
  for (int64_t i = 0; i < rows; ++i) {
    int64_t g = group(rng), v = value(rng);
    s.rows.push_back({i, g, v});
    s.group_sums[static_cast<size_t>(g)] += v;
  }
  return s;
}

std::vector<Edge> ChainEdges(int64_t chains, int length) {
  std::vector<Edge> out;
  out.reserve(static_cast<size_t>(chains * length));
  for (int64_t c = 0; c < chains; ++c) {
    for (int p = 0; p < length; ++p) {
      out.push_back({ChainNode(c, p), ChainNode(c, p + 1)});
    }
  }
  return out;
}

Zipf::Zipf(int64_t n, double s) {
  cdf_.resize(static_cast<size_t>(n));
  double sum = 0;
  for (int64_t k = 0; k < n; ++k) {
    sum += 1.0 / std::pow(static_cast<double>(k + 1), s);
    cdf_[static_cast<size_t>(k)] = sum;
  }
  for (double& c : cdf_) c /= sum;
}

int64_t Zipf::Next(std::mt19937_64& rng) const {
  double u = std::uniform_real_distribution<double>(0.0, 1.0)(rng);
  auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  if (it == cdf_.end()) --it;
  return it - cdf_.begin();
}

// --- ChurnWriter ------------------------------------------------------------

ChurnWriter::ChurnWriter(const ChurnShape& shape, int index, uint64_t seed)
    : shape_(shape),
      index_(index),
      rng_(seed),
      owned_chains_((shape.chains - index + shape.writers - 1) / shape.writers) {
  std::uniform_int_distribution<int> pos(0, shape_.length);
  for (int i = 0; i < shape_.live_events; ++i) {
    events_.push_back({next_event_++ * shape_.writers + index_,
                       ChainNode(OwnedChain(), pos(rng_))});
  }
  for (int i = 0; i < shape_.live_shortcuts; ++i) {
    Edge e = FreshShortcut();
    shortcuts_.push_back(e);
    live_shortcuts_.insert(e);
  }
}

int64_t ChurnWriter::OwnedChain() {
  std::uniform_int_distribution<int64_t> k(0, owned_chains_ - 1);
  return index_ + k(rng_) * shape_.writers;
}

Edge ChurnWriter::FreshShortcut() {
  std::uniform_int_distribution<int> from(0, shape_.length - 2);
  while (true) {
    int64_t chain = OwnedChain();
    int i = from(rng_);
    int j = std::uniform_int_distribution<int>(i + 2, shape_.length)(rng_);
    Edge e{ChainNode(chain, i), ChainNode(chain, j)};
    if (live_shortcuts_.count(e) == 0 &&
        std::find(pending_shortcuts_.begin(), pending_shortcuts_.end(), e) ==
            pending_shortcuts_.end()) {
      return e;
    }
  }
}

void ChurnWriter::AddInitialFacts(MutationBatch* batch) const {
  for (const Event& ev : events_) batch->Insert(StrCat("event(", ev.id, ",", ev.node, ")"));
  for (const Edge& e : shortcuts_) batch->Insert(StrCat("edge(", e.from, ",", e.to, ")"));
}

const MutationBatch& ChurnWriter::Propose() {
  pending_.clear();
  pending_events_.clear();
  pending_shortcuts_.clear();
  pending_bytes_ = 0;
  auto add = [this](bool insert, std::string fact) {
    pending_bytes_ += fact.size();
    if (insert) {
      pending_.Insert(fact);
    } else {
      pending_.Erase(fact);
    }
  };
  std::uniform_int_distribution<int> pos(0, shape_.length);
  for (int i = 0; i < shape_.per_kind; ++i) {
    Event ev{(next_event_ + i) * shape_.writers + index_,
             ChainNode(OwnedChain(), pos(rng_))};
    pending_events_.push_back(ev);
    add(true, StrCat("event(", ev.id, ",", ev.node, ")"));
  }
  for (int i = 0; i < shape_.per_kind; ++i) {
    const Event& ev = events_[static_cast<size_t>(i)];
    add(false, StrCat("event(", ev.id, ",", ev.node, ")"));
  }
  for (int i = 0; i < shape_.per_kind; ++i) {
    Edge e = FreshShortcut();
    pending_shortcuts_.push_back(e);
    add(true, StrCat("edge(", e.from, ",", e.to, ")"));
  }
  for (int i = 0; i < shape_.per_kind; ++i) {
    const Edge& e = shortcuts_[static_cast<size_t>(i)];
    add(false, StrCat("edge(", e.from, ",", e.to, ")"));
  }
  return pending_;
}

void ChurnWriter::Commit() {
  for (int i = 0; i < shape_.per_kind; ++i) {
    events_.pop_front();
    live_shortcuts_.erase(shortcuts_.front());
    shortcuts_.pop_front();
  }
  for (const Event& ev : pending_events_) events_.push_back(ev);
  for (const Edge& e : pending_shortcuts_) {
    shortcuts_.push_back(e);
    live_shortcuts_.insert(e);
  }
  next_event_ += shape_.per_kind;
  pending_.clear();
  pending_events_.clear();
  pending_shortcuts_.clear();
}

ChurnState ExpectedChurnState(const ChurnShape& shape,
                              const std::vector<ChurnWriter>& writers) {
  ChurnState s;
  std::set<Edge> edges;
  for (const Edge& e : ChainEdges(shape.chains, shape.length)) edges.insert(e);
  std::set<int64_t> seen;
  for (const ChurnWriter& w : writers) {
    edges.insert(w.shortcuts().begin(), w.shortcuts().end());
    for (const Event& ev : w.events()) {
      s.events.push_back(ev);
      seen.insert(ev.node);
    }
  }
  std::sort(s.events.begin(), s.events.end());
  s.edges.assign(edges.begin(), edges.end());
  s.seen.assign(seen.begin(), seen.end());
  return s;
}

}  // namespace workloads
}  // namespace gluenail
