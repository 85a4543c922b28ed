/// \file pipelined.cc
/// \brief The pipelined (nested join) strategy of paper §9.
///
/// Runs of pipelineable ops (matches, negations, comparisons) are fused:
/// each record flows through the whole run without intermediate storage.
/// Fixed language features — aggregators, group_by, procedure calls, body
/// updates — force "pipeline termination and the materialization of a
/// supplementary relation" (§9). At each break the supplementary relation
/// is materialized and (optionally) duplicates are eliminated, which §9
/// reports "has always been advantageous" on real programs; bench E2/E3
/// measure both effects.

#include <optional>

#include "src/exec/executor.h"
#include "src/exec/ops.h"
#include "src/exec/vector/batch_runner.h"

namespace gluenail {

namespace {

/// Recursively streams `rec` through ops[i..end): the fused nested join.
Status StreamSegment(OpRunner* runner, const std::vector<PlanOp>& ops,
                     size_t i, size_t end, Record* rec, uint32_t group,
                     RecordSet* sink) {
  if (i == end) {
    sink->Add(*rec, group);
    return Status::OK();
  }
  return runner->Stream(ops[i],  rec, group,
                        [&](Record* r, uint32_t g) {
                          runner->CountRow(ops[i]);
                          return StreamSegment(runner, ops, i + 1, end, r, g,
                                               sink);
                        });
}

}  // namespace

Status Executor::RunPipelined(const StatementPlan& plan, Frame* frame,
                              RecordSet* out) {
  RecordSet cur;
  cur.Add(Record(static_cast<size_t>(plan.num_slots), kNullTerm), 0);

  OpRunner runner(this, plan, frame);
  // Lazily constructed: most statements never take the batch path.
  std::optional<BatchRunner> batcher;
  size_t i = 0;
  const size_t n = plan.ops.size();
  while (i < n && !cur.empty()) {
    GLUENAIL_RETURN_NOT_OK(CheckControl(cur.records.size()));
    // Find the end of the pipelineable run [i, j).
    size_t j = i;
    while (j < n && !IsBarrier(plan.ops[j])) ++j;

    if (j > i) {
      // Split the run into maximal sub-segments of a single execution
      // mode. A batch sub-segment streams whole lane blocks through its
      // ops with one emit per batch; a tuple sub-segment is the classic
      // fused nested join. A mode switch materializes in between — the
      // same record multiset either way, so dedup at the end of the run
      // (the §9 break) is unaffected.
      size_t s = i;
      while (s < j && !cur.empty()) {
        const bool use_batch = UseBatchFor(plan, plan.ops[s]);
        size_t e = s + 1;
        while (e < j && UseBatchFor(plan, plan.ops[e]) == use_batch) ++e;
        RecordSet next;
        next.num_groups = cur.num_groups;
        if (use_batch) {
          if (!batcher) batcher.emplace(this, plan, frame);
          ++stats_.batch_segments;
          stats_.batch_rows += cur.records.size();
          GLUENAIL_RETURN_NOT_OK(batcher->RunSegment(s, e, cur, &next));
        } else {
          for (size_t r = 0; r < cur.records.size(); ++r) {
            uint32_t g = cur.group(r);
            GLUENAIL_RETURN_NOT_OK(StreamSegment(&runner, plan.ops, s, e,
                                                 &cur.records[r], g, &next));
          }
        }
        cur = std::move(next);
        s = e;
      }
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
          GLUENAIL_RETURN_NOT_OK(ApplyCall(plan, op, frame, cur, &next));
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
