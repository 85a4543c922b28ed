/// \file physical.h
/// \brief The physical planning phase: cost-based subgoal ordering.
///
/// Compilation is split into a logical phase and a physical phase. The
/// logical phase (plan/planner.h) translates AST subgoals into PlanOps —
/// pattern compilation, expression compilation, access-path resolution.
/// The physical phase, here, decides *in what order* the subgoals of a
/// statement body run and *which indexes* to build up front, and produces
/// the per-op cardinality estimates that EXPLAIN ANALYZE renders.
///
/// Ordering respects the same invariants as the §3.1 syntactic reorderer
/// (analysis/reorder.h): fixed subgoals are barriers that keep their
/// written position, a subgoal is only scheduled once its required
/// variables are bound, and a binding '=' keeps its written order relative
/// to earlier binders of the same variable. Within those constraints the
/// statistics model greedily picks, per step, the subgoal minimizing the
/// estimated number of rows flowing into the rest of the segment:
///
///   est_out(match)   = est_in * rows(rel) * prod over bound columns c of
///                      (1 / ndv_c)          -- selectivity from NDV
///   est_out(filter)  = est_in * 0.5          -- comparisons, negation
///   est_out(binder)  = est_in                -- '=' that binds
///
/// Relation cardinalities come from CompileEnv::stats (a StatsProvider,
/// storage/stats.h); unknown relations fall back to kDefaultRelationRows
/// (physical.cc). Procedure calls rank after all
/// relation subgoals regardless of estimate ("Procedure calls are
/// expensive", §9).

#ifndef GLUENAIL_PLAN_PHYSICAL_H_
#define GLUENAIL_PLAN_PHYSICAL_H_

#include <atomic>
#include <cstdint>
#include <vector>

#include "src/analysis/binding.h"
#include "src/analysis/scope.h"
#include "src/ast/ast.h"
#include "src/common/result.h"
#include "src/plan/planner.h"

namespace gluenail {

class MetricsRegistry;

/// Process-wide planner activity counters, exported through the engine's
/// metrics registry. Global (not per-Engine) because PlanBodyOrder is a free
/// function shared by every compilation path.
struct PlannerCounters {
  std::atomic<uint64_t> bodies_planned{0};
  std::atomic<uint64_t> index_builds_scheduled{0};
};

PlannerCounters& GlobalPlannerCounters();
/// Registers the gluenail_planner_* pulls over GlobalPlannerCounters().
void RegisterPlannerMetrics(MetricsRegistry* registry);

/// The one re-plan rule: a plan costed against \p planned rows is stale
/// once the rows it reads number \p now and have drifted at least
/// kReplanDrift times from \p planned, in either direction (from zero,
/// once \p now reaches kReplanDrift). The hysteresis keeps steady-state
/// plans re-plan-free. The semi-naive fixpoint applies it to its delta
/// volume (nail/seminaive.cc), the read plan cache to every stored
/// relation a cached plan reads (plan/plan_cache.h).
inline constexpr uint64_t kReplanDrift = 8;
inline bool RowsDrifted(uint64_t planned, uint64_t now) {
  return planned == 0 ? now >= kReplanDrift
                      : now >= planned * kReplanDrift ||
                            planned >= now * kReplanDrift;
}

/// One scheduled subgoal: its position in the written body, the estimated
/// rows flowing out of it, and whether the planner decided to build the
/// index for its bound columns before the first probe.
struct PhysicalChoice {
  size_t body_index = 0;
  double est_rows = -1;
  bool build_index = false;
};

/// Orders the subgoals of one statement body. Honors opts.reorder (off =
/// written order, estimates still annotated) and opts.cost_model
/// (kSyntactic delegates ordering to ReorderBody and only annotates).
/// The result is a permutation of [0, body.size()).
Result<std::vector<PhysicalChoice>> PlanBodyOrder(
    const std::vector<ast::Subgoal>& body, const CompileEnv& env,
    const BoundSet& initially_bound, const PlannerOptions& opts);

}  // namespace gluenail

#endif  // GLUENAIL_PLAN_PHYSICAL_H_
