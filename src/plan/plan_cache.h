/// \file plan_cache.h
/// \brief Compile-once reads: one plan per goal shape.
///
/// `?- path(17, Y)` and `?- path(42, Y)` differ only in a constant, so they
/// share one plan (LDL++ compiles such a *query form* once and runs it with
/// new constants). Before the lookup, each top-level constant argument — a
/// number, symbol or string — of a positive or negated atom is lifted to a
/// parameter variable `$p0`, `$p1`, ..., names the lexer cannot produce.
/// The goal with its parameters is the read's shape; the shape plus the
/// program epoch is the key. Predicate names (HiLog name terms included),
/// comparison operands and compound arguments stay in the key as written:
/// a procedure call evaluates a compound input (`p(1+2)` passes 3) where a
/// match reads it as a term, so only atomic constants mean the same in both.
///
/// The value is one immutable StatementPlan compiled with the parameters
/// pre-bound in slots 0..n-1 (CompileEnv::parameters) and shared by every
/// hit: a hit interns its constants, and the executor seeds them into the
/// first record (Executor::RunPlanHeads). Nothing copies or patches a plan.
///
/// Invalidation:
///  * Invalidate() (Engine::LoadProgram) bumps the epoch;
///  * a hit asks the StatsProvider again for every stored relation the plan
///    reads, and re-plans when one drifted kReplanDrift times (RowsDrifted,
///    plan/physical.h) or appeared or vanished — so a cached plan's
///    est_rows may be up to 8x stale;
///  * a goal that fails to plan is never cached, and its error names the
///    goal as written.
///
/// The cache is a bounded LRU with a mutex of its own: reads share it under
/// the engine's shared lock.

#ifndef GLUENAIL_PLAN_PLAN_CACHE_H_
#define GLUENAIL_PLAN_PLAN_CACHE_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/analysis/scope.h"
#include "src/ast/ast.h"
#include "src/common/result.h"
#include "src/plan/plan.h"
#include "src/plan/planner.h"
#include "src/storage/stats.h"

namespace gluenail {

class MetricsRegistry;

class PlanCache {
 public:
  /// Shapes kept before the least recently used one is dropped.
  static constexpr size_t kCapacity = 256;

  /// The size of one stored relation a plan reads, as it was costed.
  struct CostedRelation {
    Store store = Store::kEdb;
    TermId name = kNullTerm;
    uint32_t arity = 0;
    bool known = false;
    uint64_t rows = 0;
  };

  /// One read plan. Immutable once planned.
  struct Entry {
    StatementPlan plan;
    /// The answer columns: the goal's variables in first-appearance order.
    std::vector<std::string> vars;
    std::vector<CostedRelation> costed;
  };

  /// A read ready to run: its plan and the constants of its parameters.
  struct Read {
    std::shared_ptr<const Entry> entry;
    std::vector<TermId> params;
    /// The plan came from the cache; nothing was planned.
    bool cached = false;
  };

  /// The plan for the parsed \p goal: the cached plan of its shape, or a
  /// new one compiled against \p env (whose parameters this sets) and
  /// \p opts and cached.
  Result<Read> Plan(std::vector<ast::Subgoal> goal, const CompileEnv& env,
                    const PlannerOptions& opts);

  /// Drops every plan: the program they were compiled against is gone.
  void Invalidate();

  /// Registers gluenail_plan_cache_{hits,misses,replans}_total over
  /// \p cache, which must outlive \p registry.
  static void RegisterMetrics(MetricsRegistry* registry,
                              const PlanCache* cache);

 private:
  std::shared_ptr<const Entry> Find(const std::string& key);
  void Insert(std::string key, std::shared_ptr<const Entry> entry);

  struct Slot {
    std::string key;
    std::shared_ptr<const Entry> entry;
  };

  std::atomic<uint64_t> epoch_{0};
  std::mutex mu_;
  /// Most recently used first; index_ keys view the slots' own keys.
  std::list<Slot> lru_;
  std::unordered_map<std::string_view, std::list<Slot>::iterator> index_;

  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> replans_{0};
};

}  // namespace gluenail

#endif  // GLUENAIL_PLAN_PLAN_CACHE_H_
