#include "src/plan/physical.h"

#include <algorithm>

#include "src/analysis/reorder.h"
#include "src/obs/metrics.h"
#include "src/storage/stats.h"

namespace gluenail {

namespace {

/// Assumed row count for relations the stats provider cannot answer for
/// (locals, `in`, dynamic predicates, relations not yet created).
constexpr double kDefaultRelationRows = 1000.0;

/// Cardinality facts about one atom-shaped subgoal, resolved the same way
/// the logical planner resolves its access path but without compiling
/// anything.
struct AtomCard {
  /// Stats lookup succeeded (stored relation with a compile-time name).
  bool known = false;
  /// Stored-relation access (kEdb / kNail): eligible for planned index
  /// builds even when stats are unknown.
  bool stored = false;
  CardEstimate card;
  /// Effective columns: NAIL! parameters then arguments.
  std::vector<const ast::Term*> columns;
};

/// Resolves the relation behind an atom / negated atom and queries the
/// stats provider. Resolution failures are not errors here — the subgoal
/// just gets default cardinality and the logical planner reports any real
/// problem with a source location.
AtomCard ResolveAtomCard(const ast::Subgoal& g, const SubgoalInfo& info,
                         const CompileEnv& env) {
  AtomCard out;
  for (const ast::Term& a : g.args) out.columns.push_back(&a);

  Store store = Store::kEdb;
  TermId name = kNullTerm;
  uint32_t arity = static_cast<uint32_t>(g.args.size());
  std::string root;
  uint32_t params = 0;
  bool static_name = StaticPredName(g.pred, &root, &params);
  bool pred_ground = VarsOf(g.pred).empty();

  if (info.binding != nullptr) {
    switch (info.binding->cls) {
      case PredClass::kEdb:
        if (pred_ground) {
          Result<TermId> id = InternGroundTerm(env.pool, g.pred);
          if (id.ok()) {
            name = *id;
            out.stored = true;
          }
        }
        break;
      case PredClass::kNail: {
        store = Store::kIdb;
        name = info.binding->name;
        arity = info.binding->nail_params + arity;
        out.stored = true;
        std::vector<const ast::Term*> cols;
        CollectPredParams(g.pred, &cols);
        for (const ast::Term& a : g.args) cols.push_back(&a);
        out.columns = std::move(cols);
        break;
      }
      default:
        break;  // locals / in: no global statistics
    }
  } else if (static_name && params == 0 && env.implicit_edb) {
    name = env.pool->MakeSymbol(root);
    out.stored = true;
  } else if (pred_ground) {
    Result<TermId> id = InternGroundTerm(env.pool, g.pred);
    if (id.ok()) {
      name = *id;
      out.stored = true;
    }
  }

  if (name != kNullTerm && env.stats != nullptr) {
    out.known = env.stats->Estimate(store, name, arity, &out.card);
  }
  return out;
}

bool IsProcCall(const SubgoalInfo& info) {
  return info.binding != nullptr &&
         (info.binding->cls == PredClass::kGlueProc ||
          info.binding->cls == PredClass::kHostProc ||
          info.binding->cls == PredClass::kBuiltinProc);
}

/// One candidate's estimate: rows flowing out given \p est_in rows in, and
/// whether a planned index build is worthwhile.
struct CostedStep {
  double est_out = 0;
  bool build_index = false;
  bool is_call = false;
};

CostedStep EstimateStep(const ast::Subgoal& g, const SubgoalInfo& info,
                        const CompileEnv& env, const BoundSet& bound,
                        double est_in) {
  CostedStep out;
  switch (g.kind) {
    case ast::SubgoalKind::kComparison:
      // A binding '=' passes every record through; anything else filters.
      // 0.5 is the classic "unknown predicate" selectivity.
      out.est_out = info.binds.empty() ? est_in * 0.5 : est_in;
      return out;
    case ast::SubgoalKind::kAtom:
      if (IsProcCall(info)) {
        out.is_call = true;
        out.est_out = est_in;
        return out;
      }
      break;
    case ast::SubgoalKind::kNegatedAtom:
      break;
    default:
      // Fixed kinds (group_by, updates) never reach the greedy chooser;
      // they are barriers costed as pass-through when annotated.
      out.est_out = est_in;
      return out;
  }

  AtomCard atom = ResolveAtomCard(g, info, env);
  double rel_rows =
      atom.known ? atom.card.rows : kDefaultRelationRows;
  double selectivity = 1.0;
  int bound_cols = 0;
  for (size_t c = 0; c < atom.columns.size(); ++c) {
    if (c >= 32 || !IsFullyBoundPattern(*atom.columns[c], bound)) continue;
    ++bound_cols;
    double ndv = atom.known && c < atom.card.ndv.size() && atom.card.ndv[c] >= 1
                     ? atom.card.ndv[c]
                     : 10.0;  // default: each bound column keeps 1/10th
    selectivity /= ndv;
  }

  if (g.kind == ast::SubgoalKind::kNegatedAtom) {
    // Negation filters the input; a bigger relation rejects more. Cap the
    // pass-through fraction at the comparison selectivity.
    out.est_out = est_in * 0.5;
    return out;
  }

  out.est_out = est_in * rel_rows * selectivity;
  // Planned index build (§10 folded into the planner): pays off when the
  // key is probed more than once against a relation big enough that a
  // scan per probe beats the build cost. 64 rows matches the threshold
  // delta maintenance uses for its up-front index builds.
  out.build_index = atom.stored && bound_cols > 0 && est_in >= 2.0 &&
                    atom.known && atom.card.rows >= 64;
  return out;
}

/// Annotates an already-decided order with estimates (used for the
/// syntactic model and for reorder=false, so EXPLAIN always has est_rows).
Result<std::vector<PhysicalChoice>> AnnotateOrder(
    const std::vector<size_t>& order, const std::vector<ast::Subgoal>& body,
    const CompileEnv& env, const BoundSet& initially_bound) {
  std::vector<PhysicalChoice> out;
  out.reserve(order.size());
  BoundSet bound = initially_bound;
  double est_in = 1.0;
  for (size_t idx : order) {
    GLUENAIL_ASSIGN_OR_RETURN(SubgoalInfo info,
                              AnalyzeSubgoal(body[idx], env, bound));
    CostedStep step = EstimateStep(body[idx], info, env, bound, est_in);
    PhysicalChoice choice;
    choice.body_index = idx;
    choice.est_rows = step.est_out;
    // The syntactic model predates planned builds; leave the runtime
    // adaptive policy in charge there so the A/B isolates ordering.
    choice.build_index = false;
    out.push_back(choice);
    est_in = step.est_out;
    for (const std::string& v : info.binds) bound.insert(v);
  }
  return out;
}

}  // namespace

PlannerCounters& GlobalPlannerCounters() {
  static PlannerCounters counters;
  return counters;
}

void RegisterPlannerMetrics(MetricsRegistry* registry) {
  PlannerCounters& c = GlobalPlannerCounters();
  registry->RegisterPullCounter(
      "gluenail_planner_bodies_planned_total",
      "statement bodies ordered by the physical planner", &c.bodies_planned);
  registry->RegisterPullCounter("gluenail_planner_index_builds_scheduled_total",
                                "planner-decided index builds",
                                &c.index_builds_scheduled);
}

Result<std::vector<PhysicalChoice>> PlanBodyOrder(
    const std::vector<ast::Subgoal>& body, const CompileEnv& env,
    const BoundSet& initially_bound, const PlannerOptions& opts) {
  GlobalPlannerCounters().bodies_planned.fetch_add(1,
                                                   std::memory_order_relaxed);
  if (!opts.reorder ||
      opts.cost_model == PlannerOptions::CostModel::kSyntactic) {
    std::vector<size_t> order;
    if (opts.reorder) {
      GLUENAIL_ASSIGN_OR_RETURN(order,
                                ReorderBody(body, env, initially_bound));
    } else {
      for (size_t i = 0; i < body.size(); ++i) order.push_back(i);
    }
    return AnnotateOrder(order, body, env, initially_bound);
  }

  std::vector<PhysicalChoice> out;
  out.reserve(body.size());
  BoundSet bound = initially_bound;
  double est_in = 1.0;

  auto emit = [&](size_t idx, double est_out, bool build_index) -> Status {
    PhysicalChoice choice;
    choice.body_index = idx;
    choice.est_rows = est_out;
    choice.build_index = build_index;
    if (build_index) {
      GlobalPlannerCounters().index_builds_scheduled.fetch_add(
          1, std::memory_order_relaxed);
    }
    out.push_back(choice);
    est_in = est_out;
    GLUENAIL_ASSIGN_OR_RETURN(SubgoalInfo info,
                              AnalyzeSubgoal(body[idx], env, bound));
    for (const std::string& v : info.binds) bound.insert(v);
    return Status::OK();
  };

  // Same segment structure as the syntactic reorderer: fixed subgoals are
  // barriers; only the non-fixed subgoals between them may move.
  size_t seg_start = 0;
  while (seg_start < body.size()) {
    size_t seg_end = body.size();  // exclusive of the barrier
    for (size_t i = seg_start; i < body.size(); ++i) {
      GLUENAIL_ASSIGN_OR_RETURN(SubgoalInfo info,
                                AnalyzeSubgoal(body[i], env, bound));
      if (info.fixed) {
        seg_end = i;
        break;
      }
    }

    std::vector<size_t> pending;
    for (size_t i = seg_start; i < seg_end; ++i) pending.push_back(i);
    while (!pending.empty()) {
      std::vector<SubgoalInfo> infos(pending.size());
      for (size_t p = 0; p < pending.size(); ++p) {
        GLUENAIL_ASSIGN_OR_RETURN(
            infos[p], AnalyzeSubgoal(body[pending[p]], env, bound));
      }
      size_t best_pos = pending.size();  // sentinel: none schedulable
      CostedStep best_step;
      for (size_t p = 0; p < pending.size(); ++p) {
        const SubgoalInfo& info = infos[p];
        if (!IsSchedulable(info.required, bound)) continue;
        // Semantics guard shared with the syntactic reorderer: a binding
        // '=' keeps its written order relative to written-earlier binders
        // of the same variable (binding installs the evaluated term;
        // running after a match would turn it into a numeric filter).
        if (body[pending[p]].kind == ast::SubgoalKind::kComparison &&
            !info.binds.empty()) {
          bool conflict = false;
          for (size_t q = 0; q < pending.size() && !conflict; ++q) {
            if (q == p || pending[q] > pending[p]) continue;
            for (const std::string& v : infos[q].binds) {
              if (std::find(info.binds.begin(), info.binds.end(), v) !=
                  info.binds.end()) {
                conflict = true;
                break;
              }
            }
          }
          if (conflict) continue;
        }
        CostedStep step =
            EstimateStep(body[pending[p]], info, env, bound, est_in);
        // Rank: relation subgoals before procedure calls (§9), then by
        // ascending estimated output; ties keep written order (pending is
        // sorted by body index, so strict '<' does exactly that).
        bool better =
            best_pos == pending.size() ||
            (step.is_call != best_step.is_call
                 ? !step.is_call
                 : step.est_out < best_step.est_out);
        if (better) {
          best_pos = p;
          best_step = step;
        }
      }
      if (best_pos == pending.size()) {
        // Nothing schedulable: emit the rest in written order and let the
        // logical planner report the first binding violation precisely.
        for (size_t idx : pending) {
          GLUENAIL_RETURN_NOT_OK(
              emit(idx, est_in, /*build_index=*/false));
        }
        break;
      }
      size_t chosen = pending[best_pos];
      pending.erase(pending.begin() + static_cast<ptrdiff_t>(best_pos));
      GLUENAIL_RETURN_NOT_OK(
          emit(chosen, best_step.est_out, best_step.build_index));
    }

    if (seg_end < body.size()) {
      // The barrier itself: pass-through estimate, no planned build.
      GLUENAIL_RETURN_NOT_OK(
          emit(seg_end, est_in, /*build_index=*/false));
      seg_start = seg_end + 1;
    } else {
      seg_start = body.size();
    }
  }
  return out;
}

}  // namespace gluenail
