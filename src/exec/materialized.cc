/// \file materialized.cc
/// \brief The materialized strategy: realize every supplementary relation.
///
/// This is the literal §3.2 semantics: sup_0 = {ε}; op i maps sup_{i-1} to
/// sup_i, fully computed before op i+1 starts. Execution stops as soon as
/// a supplementary relation is empty.

#include <optional>

#include "src/exec/executor.h"
#include "src/exec/ops.h"
#include "src/exec/vector/batch_runner.h"

namespace gluenail {

Status Executor::RunMaterialized(const StatementPlan& plan, Frame* frame,
                                 RecordSet* out) {
  RecordSet cur;
  cur.Add(Record(static_cast<size_t>(plan.num_slots), kNullTerm), 0);

  OpRunner runner(this, plan, frame);
  // Lazily constructed: most statements never take the batch path.
  std::optional<BatchRunner> batcher;
  for (const PlanOp& op : plan.ops) {
    if (cur.empty()) break;  // §3.2: empty sup stops the statement
    GLUENAIL_RETURN_NOT_OK(CheckControl(cur.records.size()));
    switch (op.kind) {
      case OpKind::kMatch:
      case OpKind::kNegMatch:
      case OpKind::kCompare: {
        RecordSet next;
        next.num_groups = cur.num_groups;
        if (UseBatchFor(plan, op)) {
          // Batch-at-a-time: single-op segments here, because this
          // strategy dedups between ops and a fused segment would skip
          // those intermediate dedups.
          if (!batcher) batcher.emplace(this, plan, frame);
          ++stats_.batch_segments;
          stats_.batch_rows += cur.records.size();
          size_t idx = static_cast<size_t>(&op - plan.ops.data());
          GLUENAIL_RETURN_NOT_OK(
              batcher->RunSegment(idx, idx + 1, cur, &next));
        } else {
          for (size_t i = 0; i < cur.records.size(); ++i) {
            uint32_t g = cur.group(i);
            GLUENAIL_RETURN_NOT_OK(runner.Stream(
                op, &cur.records[i], g, [&](Record* rec, uint32_t group) {
                  runner.CountRow(op);
                  next.Add(*rec, group);
                  return Status::OK();
                }));
          }
        }
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
        GLUENAIL_RETURN_NOT_OK(ApplyCall(plan, op, frame, cur, &next));
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
