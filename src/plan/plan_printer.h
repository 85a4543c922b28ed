/// \file plan_printer.h
/// \brief Human-readable rendering of compiled plans (EXPLAIN).
///
/// Developers of the original system debugged through the Prolog VM's
/// code; this is the native equivalent: a stable text form of the op
/// sequence the executors interpret, showing access paths (scan vs keyed
/// selection and on which columns), barriers, binding structure, and the
/// head action. Engine::ExplainStatement exposes it.

#ifndef GLUENAIL_PLAN_PLAN_PRINTER_H_
#define GLUENAIL_PLAN_PLAN_PRINTER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/plan/plan.h"

namespace gluenail {

/// Renders a statement plan, one op per line, e.g.:
///
///   slots: X=0 Y=1 W=2
///   0: match edb s keyed[] cols(bind:0, bind:2)  ; est=40
///   1: match edb t keyed[c0] cols(_, bind:1)  ; est=4
///   2: compare slot0 != slot1
///   head: += edb r cols 2
///
/// Ops carry the physical planner's estimated output cardinality
/// (`; est=N`, omitted when the plan was built without annotations) and a
/// `build-index` marker when the planner scheduled an index build.
std::string PlanToString(const StatementPlan& plan, const TermPool& pool);

/// EXPLAIN ANALYZE rendering: like PlanToString, but each op line also
/// shows the rows it actually produced (`; est=N actual=M`).
/// \p actual_rows is indexed by op position (Executor::OpProfile); a null
/// pointer degrades to the estimate-only form.
std::string PlanToString(const StatementPlan& plan, const TermPool& pool,
                         const std::vector<uint64_t>* actual_rows);

}  // namespace gluenail

#endif  // GLUENAIL_PLAN_PLAN_PRINTER_H_
