/// \file materialized.cc
/// \brief The materialized strategy: realize every supplementary relation.
///
/// This is the literal §3.2 semantics: sup_0 = {ε}; op i maps sup_{i-1} to
/// sup_i, fully computed before op i+1 starts. Execution stops as soon as
/// a supplementary relation is empty. Each pipelineable op is a
/// single-op batch-runner segment, so duplicates can be eliminated
/// between any two ops.

#include "src/exec/executor.h"
#include "src/exec/vector/batch_runner.h"

namespace gluenail {

Status Executor::RunMaterialized(const StatementPlan& plan, Frame* frame,
                                 RecordSet* out) {
  RecordSet cur;
  cur.Add(Record(static_cast<size_t>(plan.num_slots), kNullTerm), 0);

  BatchRunner runner(this, plan, frame);
  for (size_t idx = 0; idx < plan.ops.size(); ++idx) {
    if (cur.empty()) break;  // §3.2: empty sup stops the statement
    GLUENAIL_RETURN_NOT_OK(CheckControl(cur.records.size()));
    const PlanOp& op = plan.ops[idx];
    switch (op.kind) {
      case OpKind::kMatch:
      case OpKind::kNegMatch:
      case OpKind::kCompare: {
        RecordSet next;
        next.num_groups = cur.num_groups;
        GLUENAIL_RETURN_NOT_OK(runner.RunSegment(idx, idx + 1, cur, &next));
        cur = std::move(next);
        break;
      }
      case OpKind::kAggregate:
        // A supplementary relation is a *relation* (§3.2): duplicates in
        // the record vector are representation artifacts and must not be
        // visible to aggregates, so dedup here is mandatory even when the
        // performance knob has it off elsewhere.
        if (!options_.dedup_at_breaks) {
          stats_.duplicates_removed += DedupRecords(&cur);
        }
        GLUENAIL_RETURN_NOT_OK(ApplyAggregate(plan, op, &cur));
        break;
      case OpKind::kGroupBy:
        RefineGroups(&cur, op.group_slots);
        break;
      case OpKind::kCall: {
        RecordSet next;
        GLUENAIL_RETURN_NOT_OK(ApplyCall(plan, op, cur, &next));
        cur = std::move(next);
        break;
      }
      case OpKind::kUpdate:
        GLUENAIL_RETURN_NOT_OK(ApplyUpdate(plan, op, frame, &cur));
        break;
    }
    if (IsBarrier(op)) CountOpRows(plan, op, cur.records.size());
    if (options_.dedup_at_breaks) {
      stats_.duplicates_removed += DedupRecords(&cur);
    }
  }
  *out = std::move(cur);
  return Status::OK();
}

}  // namespace gluenail
