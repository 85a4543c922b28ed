/// \file generators.h
/// \brief Seeded inputs of the workload benchmark and the oracles that
/// check the engine's answers: closed forms for the cycle, complete-graph
/// and tree programs, a BFS closure for the random graph, and the acked
/// EDB state of the write stream. Nothing here touches an engine except
/// the MutationBatch builders, which only render fact text.

#ifndef GLUENAIL_BENCH_WORKLOADS_GENERATORS_H_
#define GLUENAIL_BENCH_WORKLOADS_GENERATORS_H_

#include <array>
#include <cstdint>
#include <deque>
#include <random>
#include <set>
#include <string_view>
#include <vector>

#include "src/storage/mutation_batch.h"

namespace gluenail {
namespace workloads {

struct Edge {
  int64_t from;
  int64_t to;
  friend bool operator==(const Edge&, const Edge&) = default;
  friend auto operator<=>(const Edge&, const Edge&) = default;
};

/// Appends `rel(from,to)` inserts for every edge.
void AddFacts(std::string_view rel, const std::vector<Edge>& edges,
              MutationBatch* batch);

// --- The recursive battery (deductive_batch) --------------------------------

/// C_n: i -> (i+1) mod n.
std::vector<Edge> CycleEdges(int n);
/// K_n without self loops.
std::vector<Edge> CompleteEdges(int n);
/// A full binary tree of the given depth as par(child, parent) over the
/// heap numbering (root 0, children of i are 2i+1 and 2i+2).
std::vector<Edge> TreeParentEdges(int depth);
int64_t TreeNodes(int depth);

/// Transitive closure sizes: every ordered pair, self pairs included, since
/// every node lies on a cycle (n >= 2 for K_n).
inline uint64_t CycleClosureSize(int n) { return uint64_t(n) * uint64_t(n); }
inline uint64_t CompleteClosureSize(int n) {
  return n >= 2 ? uint64_t(n) * uint64_t(n) : 0;
}
/// Same-generation over the tree: every ordered pair of nodes on one level,
/// sum over levels l of 4^l.
uint64_t SameGenerationSize(int depth);
/// The nodes on \p node's level, ascending.
std::vector<int64_t> SameGenerationOf(int64_t node);

/// A random digraph with \p edges edges over [0, nodes); duplicate draws
/// are kept out so the edge count is exact.
std::vector<Edge> RandomEdges(int64_t nodes, int64_t edges,
                              std::mt19937_64& rng);
/// Distinct random nodes.
std::vector<int64_t> RandomNodes(int64_t nodes, int64_t count,
                                 std::mt19937_64& rng);
/// BFS oracle: the nodes of [0, nodes) not reachable from \p sources,
/// ascending.
std::vector<int64_t> Unreachable(int64_t nodes, const std::vector<Edge>& edges,
                                 const std::vector<int64_t>& sources);

/// Four relations r1..r4, each the graph of a random permutation of
/// [0, rows): the 4-way join is a bijection, out(a) = p4(p3(p2(p1(a)))).
struct JoinLadder {
  std::array<std::vector<int64_t>, 4> perm;
  int64_t Out(int64_t a) const {
    for (const std::vector<int64_t>& p : perm) a = p[static_cast<size_t>(a)];
    return a;
  }
};
JoinLadder MakeJoinLadder(int64_t rows, std::mt19937_64& rng);

/// sale(id, group, value) rows and the per-group sums.
struct Sales {
  std::vector<std::array<int64_t, 3>> rows;
  std::vector<int64_t> group_sums;
};
Sales MakeSales(int64_t rows, int64_t groups, std::mt19937_64& rng);

// --- Chains (served_reads, write_ivm) ----------------------------------------

/// Chain c has nodes c*16 + p for p in [0, length]; a node id's chain and
/// position are therefore recoverable by division.
inline constexpr int64_t kChainStride = 16;
inline int64_t ChainNode(int64_t chain, int pos) {
  return chain * kChainStride + pos;
}
std::vector<Edge> ChainEdges(int64_t chains, int length);
inline uint64_t ChainClosureSize(int64_t chains, int length) {
  return uint64_t(chains) * uint64_t(length) * uint64_t(length + 1) / 2;
}

/// Zipf(s) over ranks [0, n): P(k) is proportional to 1 / (k+1)^s.
class Zipf {
 public:
  Zipf(int64_t n, double s);
  int64_t Next(std::mt19937_64& rng) const;

 private:
  std::vector<double> cdf_;
};

// --- The write stream (write_ivm) --------------------------------------------

struct Event {
  int64_t id;
  int64_t node;
  friend bool operator==(const Event&, const Event&) = default;
  friend auto operator<=>(const Event&, const Event&) = default;
};

struct ChurnShape {
  int64_t chains = 5000;
  int length = 10;
  int writers = 3;
  /// Live events and intra-chain shortcuts per writer; constant over the
  /// run because each batch erases as many as it inserts.
  int live_events = 16384;
  int live_shortcuts = 64;
  /// Ops of each of the four kinds in one batch.
  int per_kind = 16;
};

/// One writer of the write stream. Writer i owns the chains c with
/// c % writers == i, so writers never touch each other's facts. Each batch
/// inserts per_kind fresh events and per_kind fresh shortcuts and erases
/// the per_kind oldest of each (FIFO). The writer's state advances only
/// when a batch is acknowledged, so its state is always the acked set.
class ChurnWriter {
 public:
  ChurnWriter(const ChurnShape& shape, int index, uint64_t seed);

  /// Inserts of the writer's initial events and shortcuts.
  void AddInitialFacts(MutationBatch* batch) const;
  /// The next batch; a second call before Commit() replaces it.
  const MutationBatch& Propose();
  /// The proposed batch was acknowledged.
  void Commit();
  /// Fact text bytes of the proposed batch (the user bytes a commit
  /// carries).
  uint64_t proposed_bytes() const { return pending_bytes_; }

  const std::deque<Event>& events() const { return events_; }
  const std::deque<Edge>& shortcuts() const { return shortcuts_; }

 private:
  int64_t OwnedChain();
  Edge FreshShortcut();

  ChurnShape shape_;
  int index_;
  std::mt19937_64 rng_;
  int64_t owned_chains_;
  int64_t next_event_ = 0;
  std::deque<Event> events_;
  std::deque<Edge> shortcuts_;
  std::set<Edge> live_shortcuts_;
  MutationBatch pending_;
  std::vector<Event> pending_events_;
  std::vector<Edge> pending_shortcuts_;
  uint64_t pending_bytes_ = 0;
};

/// The oracle of the acked write stream: EDB edges (chains plus every
/// writer's live shortcuts), live events and the derived seen nodes, each
/// ascending.
struct ChurnState {
  std::vector<Edge> edges;
  std::vector<Event> events;
  std::vector<int64_t> seen;
};
ChurnState ExpectedChurnState(const ChurnShape& shape,
                              const std::vector<ChurnWriter>& writers);

}  // namespace workloads
}  // namespace gluenail

#endif  // GLUENAIL_BENCH_WORKLOADS_GENERATORS_H_
