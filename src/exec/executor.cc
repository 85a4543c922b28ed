#include "src/exec/executor.h"

#include <algorithm>
#include <cassert>
#include <unordered_map>
#include <unordered_set>

#include "src/common/strings.h"
#include "src/exec/vector/batch_runner.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/runtime/arith.h"

namespace gluenail {

void Executor::RegisterMetrics(MetricsRegistry* registry,
                               const std::unique_ptr<Executor>* slot) {
  struct Pull {
    const char* name;
    const char* help;
    uint64_t ExecStats::* field;
  };
  static constexpr Pull kPulls[] = {
      {"gluenail_exec_statements_total", "statement plans executed",
       &ExecStats::statements},
      {"gluenail_exec_records_produced_total", "binding records produced",
       &ExecStats::records_produced},
      {"gluenail_exec_rows_scanned_total",
       "rows visited answering matches (scan + probe chains)",
       &ExecStats::rows_scanned},
      {"gluenail_exec_control_checks_total", "full guardrail checks",
       &ExecStats::control_checks},
      {"gluenail_exec_pipeline_breaks_total",
       "pipelined-strategy materialization points",
       &ExecStats::pipeline_breaks},
      {"gluenail_exec_duplicates_removed_total",
       "records dropped by dedup-at-breaks", &ExecStats::duplicates_removed},
      {"gluenail_exec_batch_segments_total", "batch-at-a-time segments run",
       &ExecStats::batch_segments},
      {"gluenail_exec_batch_rows_total",
       "binding records entering batch segments", &ExecStats::batch_rows},
  };
  // Two-word captures fit std::function's inline buffer: engines are
  // created often, and a heap cell per metric fragments the heap.
  for (const Pull& p : kPulls) {
    registry->RegisterPullCounter(
        p.name, p.help, [slot, field = p.field]() -> uint64_t {
          return *slot != nullptr ? (*slot)->stats().*field : 0;
        });
  }
}

// ---------------------------------------------------------------------------
// Relation resolution
// ---------------------------------------------------------------------------

Relation* Executor::FindStored(const PredicateAccess& access) const {
  Store store = access.kind == PredicateAccess::Kind::kNail ? Store::kIdb
                                                             : Store::kEdb;
  if (!read_overrides_.empty()) {
    auto it = read_overrides_.find(
        StoredRelationKey(store, access.name, access.arity));
    if (it != read_overrides_.end()) return it->second;
  }
  return (store == Store::kIdb ? idb_ : edb_)->Find(access.name,
                                                     access.arity);
}

Result<Relation*> Executor::ResolveRead(const PredicateAccess& access,
                                        Frame* frame) {
  switch (access.kind) {
    case PredicateAccess::Kind::kEdb:
      return FindStored(access);
    case PredicateAccess::Kind::kLocal:
      return frame->local(access.local_index);
    case PredicateAccess::Kind::kIn:
      return frame->in();
    case PredicateAccess::Kind::kNail: {
      if (access_ == StorageAccess::kReadOnly) {
        // The engine guarantees the IDB is fresh before a read-only
        // executor runs (delta maintenance installs its read overrides on
        // one), so a plain lookup suffices.
        return FindStored(access);
      }
      if (env_.nail == nullptr) {
        return Status::Internal("NAIL! predicate read without an evaluator");
      }
      ++stats_.nail_refreshes;
      return env_.nail->EnsureNail(access.name, access.arity);
    }
    default:
      return Status::Internal("unexpected access kind in ResolveRead");
  }
}

Result<Relation*> Executor::ResolveWrite(const PredicateAccess& access,
                                         Frame* frame, TermId dynamic_name,
                                         bool insert) {
  if (access_ != StorageAccess::kReadWrite) {
    bool allowed = access.kind == PredicateAccess::Kind::kLocal ||
                   access.kind == PredicateAccess::Kind::kReturn ||
                   (access.kind == PredicateAccess::Kind::kNail &&
                    access_ == StorageAccess::kPrivateIdb);
    if (!allowed) {
      return Status::RuntimeError(
          "read-only session: the statement writes a shared relation; use a "
          "write entry point (Engine::ExecuteStatement / Session write "
          "methods)");
    }
  }
  switch (access.kind) {
    case PredicateAccess::Kind::kEdb:
      return edb_->GetOrCreate(access.name, access.arity);
    case PredicateAccess::Kind::kLocal:
      return frame->local(access.local_index);
    case PredicateAccess::Kind::kReturn:
      return frame->ret();
    case PredicateAccess::Kind::kNail:
      return idb_->GetOrCreate(access.name, access.arity);
    case PredicateAccess::Kind::kDynamic:
      if (insert && env_.nail != nullptr) {
        GLUENAIL_RETURN_NOT_OK(
            env_.nail->CheckEdbInsert(dynamic_name, access.arity));
      }
      return edb_->GetOrCreate(dynamic_name, access.arity);
    default:
      return Status::Internal("unexpected access kind in ResolveWrite");
  }
}

// ---------------------------------------------------------------------------
// The body loop
// ---------------------------------------------------------------------------

Status Executor::RunBody(const StatementPlan& plan, Frame* frame,
                         RecordSet* out, std::span<const TermId> params) {
  const bool pipelined =
      options_.strategy == ExecOptions::Strategy::kPipelined;
  RecordSet cur;
  Record first(static_cast<size_t>(plan.num_slots), kNullTerm);
  assert(params.size() <= first.size());
  std::copy(params.begin(), params.end(), first.begin());
  cur.Add(std::move(first), 0);

  BatchRunner runner(this, plan, frame);
  size_t i = 0;
  const size_t n = plan.ops.size();
  while (i < n && !cur.empty()) {
    GLUENAIL_RETURN_NOT_OK(CheckControl(cur.records.size()));
    // The pipelineable segment [i, j): one op under kMaterialized, the
    // whole barrier-free run under kPipelined.
    size_t j = i;
    while (j < n && !IsBarrier(plan.ops[j]) && (pipelined || j == i)) ++j;
    if (j > i) {
      RecordSet next;
      next.num_groups = cur.num_groups;
      GLUENAIL_RETURN_NOT_OK(runner.RunSegment(i, j, cur, &next));
      cur = std::move(next);
      if (options_.dedup_at_breaks) {
        stats_.duplicates_removed += DedupRecords(&cur);
      }
      i = j;
      // kMaterialized checks its guardrails again before the next op;
      // kPipelined runs the barrier that ended the run straight away.
      if (!pipelined || cur.empty() || i == n) continue;
    }
    // A barrier op: the pipeline breaks here (§9).
    if (pipelined) ++stats_.pipeline_breaks;
    const PlanOp& op = plan.ops[i];
    GLUENAIL_RETURN_NOT_OK(ApplyBarrier(plan, op, frame, &cur));
    CountOpRows(plan, op, cur.records.size());
    if (options_.dedup_at_breaks) {
      stats_.duplicates_removed += DedupRecords(&cur);
    }
    ++i;
  }
  *out = std::move(cur);
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Barrier ops
// ---------------------------------------------------------------------------

Status Executor::ApplyBarrier(const StatementPlan& plan, const PlanOp& op,
                              Frame* frame, RecordSet* set) {
  switch (op.kind) {
    case OpKind::kAggregate:
      // A supplementary relation is a *relation* (§3.2): duplicates in the
      // record vector are representation artifacts and must not be visible
      // to aggregates, so dedup here is mandatory even when the
      // performance knob has it off elsewhere.
      if (!options_.dedup_at_breaks) {
        stats_.duplicates_removed += DedupRecords(set);
      }
      return ApplyAggregate(plan, op, set);
    case OpKind::kGroupBy:
      RefineGroups(set, op.group_slots);
      return Status::OK();
    case OpKind::kCall: {
      RecordSet next;
      GLUENAIL_RETURN_NOT_OK(ApplyCall(plan, op, *set, &next));
      *set = std::move(next);
      return Status::OK();
    }
    case OpKind::kUpdate:
      return ApplyUpdate(plan, op, frame, set);
    default:
      return Status::Internal("non-barrier op at barrier position");
  }
}

Status Executor::ApplyAggregate(const StatementPlan& plan, const PlanOp& op,
                                RecordSet* set) {
  // One accumulator per group id; aggregates see one contribution per
  // supplementary tuple (§3.3), never a projection.
  std::vector<Record>& recs = set->records;
  std::vector<Aggregator> accs(set->num_groups, Aggregator(op.agg, pool_));
  for (size_t i = 0; i < recs.size(); ++i) {
    uint32_t g = set->group(i);
    assert(g < accs.size());
    GLUENAIL_ASSIGN_OR_RETURN(TermId v,
                              EvalExpr(plan, op.agg_arg, recs[i], pool_));
    GLUENAIL_RETURN_NOT_OK(accs[g].Add(v));
  }
  // A group a filter emptied has no record left and gets no value.
  std::vector<TermId> results(accs.size(), kNullTerm);
  for (size_t g = 0; g < accs.size(); ++g) {
    if (accs[g].count() == 0) continue;
    GLUENAIL_ASSIGN_OR_RETURN(results[g], accs[g].Finish(pool_));
  }
  // Bind or filter in place, compacting kept records to the front.
  size_t kept = 0;
  for (size_t i = 0; i < recs.size(); ++i) {
    uint32_t g = set->group(i);
    TermId value = results[g];
    if (op.bind_slot >= 0) {
      recs[i][static_cast<size_t>(op.bind_slot)] = value;
    } else {
      // "T = min(T)" with T bound: filter, i.e. the §3.3 aggregation+join.
      GLUENAIL_ASSIGN_OR_RETURN(TermId lhs,
                                EvalExpr(plan, op.lhs, recs[i], pool_));
      GLUENAIL_ASSIGN_OR_RETURN(
          bool eq, EvalCompare(*pool_, ast::CompareOp::kEq, lhs, value));
      if (!eq) continue;
    }
    if (kept != i) {
      recs[kept] = std::move(recs[i]);
      if (!set->groups.empty()) set->groups[kept] = g;
    }
    ++kept;
  }
  recs.resize(kept);
  if (!set->groups.empty()) set->groups.resize(kept);
  return Status::OK();
}

Status Executor::ApplyCall(const StatementPlan& plan, const PlanOp& op,
                           const RecordSet& in, RecordSet* out) {
  // Project the sup onto the bound arguments, dedupe, call ONCE (§4).
  Relation input("call_in", op.callee_bound_arity);
  std::vector<Tuple> rec_keys;
  rec_keys.reserve(in.records.size());
  for (const Record& rec : in.records) {
    GLUENAIL_ASSIGN_OR_RETURN(Tuple key,
                              EvalTuple(plan, op.call_in_exprs, rec, pool_));
    input.Insert(key);
    rec_keys.push_back(std::move(key));
  }

  Relation result("call_out", op.callee_bound_arity + op.callee_free_arity);
  switch (op.callee) {
    case CalleeKind::kBuiltin:
      ++stats_.builtin_calls;
      GLUENAIL_RETURN_NOT_OK(
          ExecBuiltinProc(static_cast<BuiltinProc>(op.callee_index), pool_,
                          &env_.io, input, &result));
      break;
    case CalleeKind::kHost: {
      ++stats_.host_calls;
      if (env_.hosts == nullptr ||
          op.callee_index >= static_cast<int>(env_.hosts->size())) {
        return Status::Internal("host procedure table missing");
      }
      const HostProcedure& host =
          (*env_.hosts)[static_cast<size_t>(op.callee_index)];
      GLUENAIL_RETURN_NOT_OK(
          host.fn(pool_, input, &result).WithContext(host.name));
      break;
    }
    case CalleeKind::kGlueProc: {
      ++stats_.proc_calls;
      GLUENAIL_RETURN_NOT_OK(
          CallProcedureByIndex(op.callee_index, input, &result));
      break;
    }
  }

  // Join the result back: group result tuples by their bound prefix. The
  // RowViews stay valid because `result` is not mutated during the join.
  std::unordered_map<Tuple, std::vector<RowView>, TupleHash> by_prefix;
  for (RowView t : result) {
    Tuple prefix(t.begin(), t.begin() + op.callee_bound_arity);
    by_prefix[std::move(prefix)].push_back(t);
  }
  for (size_t i = 0; i < in.records.size(); ++i) {
    auto it = by_prefix.find(rec_keys[i]);
    if (it == by_prefix.end()) continue;
    uint32_t g = in.group(i);
    Record rec = in.records[i];
    for (RowView t : it->second) {
      BindUndo undo;
      bool ok = true;
      for (size_t c = 0; c < op.call_out_patterns.size(); ++c) {
        if (!MatchTerm(op.call_out_patterns[c],
                       t[op.callee_bound_arity + c], *pool_, rec,
                       &undo)) {
          ok = false;
          break;
        }
      }
      if (ok) out->Add(rec, g);
      UnbindAll(undo, rec);
    }
  }
  out->num_groups = in.num_groups;
  return Status::OK();
}

Status Executor::ApplyUpdate(const StatementPlan& plan, const PlanOp& op,
                             Frame* frame, RecordSet* set) {
  // Every target resolves, and may be refused, before anything is written.
  std::vector<std::pair<Relation*, Tuple>> updates;
  updates.reserve(set->records.size());
  for (const Record& rec : set->records) {
    GLUENAIL_ASSIGN_OR_RETURN(Tuple tuple,
                              EvalTuple(plan, op.update_exprs, rec, pool_));
    TermId dynamic_name = kNullTerm;
    if (op.access.kind == PredicateAccess::Kind::kDynamic) {
      GLUENAIL_ASSIGN_OR_RETURN(dynamic_name,
                                EvalExpr(plan, op.access.name_expr, rec,
                                         pool_));
    }
    GLUENAIL_ASSIGN_OR_RETURN(
        Relation * rel,
        ResolveWrite(op.access, frame, dynamic_name, op.update_insert));
    updates.emplace_back(rel, std::move(tuple));
  }
  for (auto& [rel, tuple] : updates) {
    if (op.update_insert) {
      rel->Insert(tuple);
    } else {
      rel->Erase(tuple);
    }
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Heads
// ---------------------------------------------------------------------------

Status Executor::ApplyHead(const StatementPlan& plan, Frame* frame,
                           const RecordSet& sup) {
  const HeadPlan& head = plan.head;

  if (head.is_return) {
    Relation* ret = frame->ret();
    if (ret == nullptr) {
      return Status::Internal("return head outside a procedure frame");
    }
    for (const Record& rec : sup.records) {
      GLUENAIL_ASSIGN_OR_RETURN(Tuple tuple,
                                EvalTuple(plan, head.arg_exprs, rec, pool_));
      ret->Insert(tuple);
      ++stats_.head_tuples;
    }
    // Assigning to return exits the procedure (§4). When the body yields
    // nothing, §3.2's "execution stops on an empty supplementary relation"
    // applies: no assignment happened, so no exit — which is what makes
    // sequential return statements act as conditionals (base case /
    // recursive case) and matches Figure 1's final `return := confirmed`.
    if (!sup.records.empty()) frame->returned = true;
    return Status::OK();
  }

  const bool dynamic = head.access.kind == PredicateAccess::Kind::kDynamic;
  const bool insert = head.op != ast::AssignOp::kDelete;
  Relation* static_rel = nullptr;
  if (!dynamic) {
    GLUENAIL_ASSIGN_OR_RETURN(
        static_rel, ResolveWrite(head.access, frame, kNullTerm, insert));
  }
  Relation* delta_rel = nullptr;
  if (head.delta_access.kind != PredicateAccess::Kind::kNone) {
    GLUENAIL_ASSIGN_OR_RETURN(
        delta_rel,
        ResolveWrite(head.delta_access, frame, kNullTerm, /*insert=*/true));
  }

  // Build the head tuples (and their target relation when dynamic). Every
  // target resolves, and may be refused, before anything is written.
  std::vector<std::pair<Relation*, Tuple>> new_tuples;
  std::unordered_set<Relation*> cleared;
  if (!dynamic && head.op == ast::AssignOp::kClear) {
    cleared.insert(static_rel);  // ":=" clears even on an empty body
  }
  for (const Record& rec : sup.records) {
    Relation* rel = static_rel;
    if (dynamic) {
      GLUENAIL_ASSIGN_OR_RETURN(
          TermId name, EvalExpr(plan, head.access.name_expr, rec, pool_));
      GLUENAIL_ASSIGN_OR_RETURN(rel,
                                ResolveWrite(head.access, frame, name, insert));
      if (head.op == ast::AssignOp::kClear) cleared.insert(rel);
    }
    GLUENAIL_ASSIGN_OR_RETURN(Tuple tuple,
                              EvalTuple(plan, head.arg_exprs, rec, pool_));
    new_tuples.emplace_back(rel, std::move(tuple));
  }

  switch (head.op) {
    case ast::AssignOp::kClear:
      for (Relation* rel : cleared) rel->Clear();
      for (auto& [rel, tuple] : new_tuples) {
        if (rel->Insert(tuple)) ++stats_.head_tuples;
      }
      return Status::OK();
    case ast::AssignOp::kInsert:
      for (auto& [rel, tuple] : new_tuples) {
        if (rel->Insert(tuple)) {
          ++stats_.head_tuples;
          if (delta_rel != nullptr) delta_rel->Insert(tuple);
        }
      }
      return Status::OK();
    case ast::AssignOp::kDelete:
      for (auto& [rel, tuple] : new_tuples) {
        if (rel->Erase(tuple)) ++stats_.head_tuples;
      }
      return Status::OK();
    case ast::AssignOp::kModify: {
      // Update-by-key (§3.1): remove every existing tuple agreeing with a
      // new tuple on the key columns, then insert the new tuples.
      std::vector<std::pair<Relation*, Tuple>> victims;
      std::vector<uint32_t> rows;
      Tuple key;
      for (auto& [rel, tuple] : new_tuples) {
        ExtractKey(head.modify_mask, tuple, &key);
        rows.clear();
        rel->Select(head.modify_mask, key, &rows);
        for (uint32_t row : rows) {
          RowView victim = rel->row(row);
          victims.emplace_back(rel, Tuple(victim.begin(), victim.end()));
        }
      }
      for (auto& [rel, tuple] : victims) rel->Erase(tuple);
      for (auto& [rel, tuple] : new_tuples) {
        if (rel->Insert(tuple)) ++stats_.head_tuples;
      }
      return Status::OK();
    }
  }
  return Status::Internal("unreachable head op");
}

// ---------------------------------------------------------------------------
// Statements, loops, procedures
// ---------------------------------------------------------------------------

Status Executor::ExecuteStatementPlan(const StatementPlan& plan,
                                      Frame* frame) {
  RecordSet final_sup;
  GLUENAIL_RETURN_NOT_OK(ExecuteBodyOnly(plan, frame, &final_sup));
  return ApplyHead(plan, frame, final_sup);
}

Status Executor::ExecuteBodyOnly(const StatementPlan& plan, Frame* frame,
                                 RecordSet* final_sup,
                                 std::span<const TermId> params) {
  ++stats_.statements;
  final_sup->Clear();
#if GLUENAIL_TRACE
  const bool traced = TraceSink::Current() != nullptr;
#else
  const bool traced = false;
#endif
  GLUENAIL_RETURN_NOT_OK(traced
                             ? RunBodyTraced(plan, frame, final_sup, params)
                             : RunBody(plan, frame, final_sup, params));
  stats_.records_produced += final_sup->size();
  return Status::OK();
}

namespace {

const char* OpKindName(OpKind kind) {
  switch (kind) {
    case OpKind::kMatch: return "match";
    case OpKind::kNegMatch: return "negmatch";
    case OpKind::kCompare: return "compare";
    case OpKind::kAggregate: return "aggregate";
    case OpKind::kGroupBy: return "group_by";
    case OpKind::kCall: return "call";
    case OpKind::kUpdate: return "update";
  }
  return "op";
}

}  // namespace

std::string Executor::OpSpanName(const StatementPlan& plan,
                                 size_t idx) const {
  const PlanOp& op = plan.ops[idx];
  std::string name = StrCat("op", idx, ":", OpKindName(op.kind));
  if ((op.kind == OpKind::kMatch || op.kind == OpKind::kNegMatch) &&
      op.access.name != kNullTerm) {
    name += " ";
    name += pool_->ToString(op.access.name);
  }
  return name;
}

Status Executor::RunBodyTraced(const StatementPlan& plan, Frame* frame,
                               RecordSet* final_sup,
                               std::span<const TermId> params) {
  TraceSink* sink = TraceSink::Current();
  ScopedSpan stmt_span("stmt:execute");
  // Borrow (or create) the op profile so the per-op spans report the same
  // actual-rows numbers EXPLAIN ANALYZE would; the delta against a
  // snapshot keeps nested/repeated executions of a profiled plan honest.
  bool created_profile = OpProfile(&plan) == nullptr;
  if (created_profile) EnableOpProfile(&plan);
  std::vector<uint64_t> before = *OpProfile(&plan);
  Status st = RunBody(plan, frame, final_sup, params);
  const std::vector<uint64_t>* after = OpProfile(&plan);
  if (after != nullptr) {
    for (size_t i = 0; i < after->size(); ++i) {
      uint64_t delta = (*after)[i] - (i < before.size() ? before[i] : 0);
      int32_t span = sink->StartSpan(OpSpanName(plan, i));
      sink->AddRows(span, delta);
      sink->EndSpan(span);
    }
  }
  if (created_profile) DisableOpProfile(&plan);
  GLUENAIL_RETURN_NOT_OK(st);
  stmt_span.AddRows(final_sup->size());
  return Status::OK();
}

Result<bool> Executor::EvalCond(const CondPlan& cond, Frame* frame) {
  switch (cond.kind) {
    case ast::UntilCond::Kind::kAnd: {
      // No short-circuiting: unchanged() leaves must always update their
      // site state so later iterations see consistent versions.
      GLUENAIL_ASSIGN_OR_RETURN(bool a, EvalCond(cond.children[0], frame));
      GLUENAIL_ASSIGN_OR_RETURN(bool b, EvalCond(cond.children[1], frame));
      return a && b;
    }
    case ast::UntilCond::Kind::kOr: {
      GLUENAIL_ASSIGN_OR_RETURN(bool a, EvalCond(cond.children[0], frame));
      GLUENAIL_ASSIGN_OR_RETURN(bool b, EvalCond(cond.children[1], frame));
      return a || b;
    }
    case ast::UntilCond::Kind::kNot: {
      GLUENAIL_ASSIGN_OR_RETURN(bool a, EvalCond(cond.children[0], frame));
      return !a;
    }
    case ast::UntilCond::Kind::kUnchanged: {
      GLUENAIL_ASSIGN_OR_RETURN(Relation * rel,
                                ResolveRead(cond.access, frame));
      uint64_t current = rel == nullptr ? 0 : rel->version();
      Frame::UnchangedSite& site =
          frame->unchanged_sites[static_cast<size_t>(cond.unchanged_site)];
      // "always false the first time it is executed" (§4).
      bool result = site.seen && site.version == current;
      site.seen = true;
      site.version = current;
      return result;
    }
    case ast::UntilCond::Kind::kEmpty:
    case ast::UntilCond::Kind::kNonEmpty: {
      GLUENAIL_ASSIGN_OR_RETURN(Relation * rel,
                                ResolveRead(cond.access, frame));
      bool exists = false;
      if (rel != nullptr) {
        Record dummy;
        BindUndo undo;
        for (RowView t : *rel) {
          undo.clear();
          if (MatchColumns(cond.patterns, t, *pool_, dummy, &undo)) {
            exists = true;
            break;
          }
        }
      }
      return cond.kind == ast::UntilCond::Kind::kNonEmpty ? exists : !exists;
    }
  }
  return Status::Internal("unreachable cond kind");
}

Status Executor::ExecBlock(const std::vector<CInstr>& code,
                           const CompiledProcedure& proc, Frame* frame) {
  for (const CInstr& instr : code) {
    if (frame->returned) return Status::OK();
    if (instr.kind == CInstr::Kind::kExec) {
      GLUENAIL_RETURN_NOT_OK(ExecuteStatementPlan(
          proc.plans[static_cast<size_t>(instr.plan_index)], frame));
    } else {
      uint64_t iterations = 0;
      while (true) {
        ++stats_.loop_iterations;
        if (++iterations > options_.max_loop_iterations) {
          return Status::RuntimeError(
              StrCat("repeat loop in ", proc.name, " exceeded ",
                     options_.max_loop_iterations, " iterations"));
        }
        // Repeat loops are where generated NAIL! drivers (and user
        // programs) run their fixpoints; check guardrails per iteration.
        GLUENAIL_RETURN_NOT_OK(CheckStorageBudgets());
        GLUENAIL_RETURN_NOT_OK(ExecBlock(instr.body, proc, frame));
        if (frame->returned) return Status::OK();
        GLUENAIL_ASSIGN_OR_RETURN(bool done, EvalCond(instr.cond, frame));
        if (done) break;
      }
    }
  }
  return Status::OK();
}

Status Executor::CheckStorageBudgets() {
  const ExecControl* c = control_;
  if (c == nullptr) return Status::OK();
  ++stats_.control_checks;
  GLUENAIL_RETURN_NOT_OK(c->Check());
  if (c->limits.unlimited() || idb_ == nullptr) return Status::OK();
  uint64_t tuples = 0;
  uint64_t bytes = 0;
  idb_->ForEach([&](TermId, uint32_t, Relation* rel) {
    tuples += rel->size();
    bytes += rel->arena_bytes();
  });
  GLUENAIL_RETURN_NOT_OK(c->CheckTuples(tuples));
  return c->CheckArenaBytes(bytes);
}

Status Executor::CallProcedureByIndex(int index, const Relation& input,
                                      Relation* output) {
  if (call_depth_ >= options_.max_call_depth) {
    return Status::RuntimeError(
        StrCat("procedure call depth exceeded ", options_.max_call_depth));
  }
  const CompiledProcedure& proc =
      program_->procedures[static_cast<size_t>(index)];
  if (input.arity() != proc.bound_arity) {
    return Status::Internal(
        StrCat("call to ", proc.name, " with input arity ", input.arity(),
               ", expected ", proc.bound_arity));
  }
  Frame frame(&proc);
  frame.in()->CopyFrom(input);
  ++call_depth_;
  Status st = ExecBlock(proc.code, proc, &frame);
  --call_depth_;
  GLUENAIL_RETURN_NOT_OK(st.WithContext(StrCat("in ", proc.name)));
  output->UnionAll(*frame.ret());
  return Status::OK();
}

}  // namespace gluenail
