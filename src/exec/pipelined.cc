/// \file pipelined.cc
/// \brief The pipelined strategy of paper §9.
///
/// Each run of pipelineable ops (matches, negations, comparisons) is one
/// batch-runner segment: records flow through the whole run in lane
/// blocks without an intermediate supplementary relation. Fixed language
/// features — aggregators, group_by, procedure calls, body updates —
/// force "pipeline termination and the materialization of a supplementary
/// relation" (§9). At each break the supplementary relation is
/// materialized and (optionally) duplicates are eliminated, which §9
/// reports "has always been advantageous" on real programs; bench E2/E3
/// measure both effects.

#include "src/exec/executor.h"
#include "src/exec/vector/batch_runner.h"

namespace gluenail {

Status Executor::RunPipelined(const StatementPlan& plan, Frame* frame,
                              RecordSet* out) {
  RecordSet cur;
  cur.Add(Record(static_cast<size_t>(plan.num_slots), kNullTerm), 0);

  BatchRunner runner(this, plan, frame);
  size_t i = 0;
  const size_t n = plan.ops.size();
  while (i < n && !cur.empty()) {
    GLUENAIL_RETURN_NOT_OK(CheckControl(cur.records.size()));
    // Find the end of the pipelineable run [i, j).
    size_t j = i;
    while (j < n && !IsBarrier(plan.ops[j])) ++j;

    if (j > i) {
      RecordSet next;
      next.num_groups = cur.num_groups;
      GLUENAIL_RETURN_NOT_OK(runner.RunSegment(i, j, cur, &next));
      cur = std::move(next);
      if (options_.dedup_at_breaks) {
        stats_.duplicates_removed += DedupRecords(&cur);
      }
      i = j;
      if (cur.empty()) break;
    }

    if (i < n) {
      // A barrier op: the pipeline breaks here (§9).
      ++stats_.pipeline_breaks;
      const PlanOp& op = plan.ops[i];
      switch (op.kind) {
        case OpKind::kAggregate:
          // Mandatory dedup: sup relations are sets (§3.2); duplicates in
          // the materialized record vector must not reach an aggregate.
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
        default:
          return Status::Internal("non-barrier op at barrier position");
      }
      CountOpRows(plan, op, cur.records.size());
      if (options_.dedup_at_breaks) {
        stats_.duplicates_removed += DedupRecords(&cur);
      }
      ++i;
    }
  }
  *out = std::move(cur);
  return Status::OK();
}

}  // namespace gluenail
