#include "src/exec/vector/batch_runner.h"

#include "src/common/strings.h"
#include "src/runtime/arith.h"

namespace gluenail {

bool BatchRunner::OpEligible(const StatementPlan& plan, const PlanOp& op) {
  (void)plan;
  switch (op.kind) {
    case OpKind::kCompare:
      return true;
    case OpKind::kMatch:
    case OpKind::kNegMatch: {
      // Dynamic (HiLog) accesses resolve the relation per record and may
      // enumerate predicates; structural patterns recurse into compound
      // terms. Both keep the tuple path.
      if (op.access.kind == PredicateAccess::Kind::kDynamic) return false;
      for (const MatchNode& m : op.col_patterns) {
        if (m.kind == MatchNode::Kind::kStruct) return false;
      }
      return true;
    }
    default:
      return false;
  }
}

BatchRunner::Operand BatchRunner::CompileOperand(ExprId e) const {
  Operand o;
  o.expr = e;
  const ExprNode& n = plan_.exprs[static_cast<size_t>(e)];
  if (n.kind == ExprKind::kConst) {
    o.kind = Operand::Kind::kConst;
    o.value = n.const_term;
  } else if (n.kind == ExprKind::kSlot) {
    o.kind = Operand::Kind::kSlot;
    o.slot = n.slot;
  } else {
    o.kind = Operand::Kind::kExpr;
  }
  return o;
}

void BatchRunner::CompileOp(size_t k) {
  OpState& st = states_[k];
  if (st.compiled) return;
  st.compiled = true;
  const PlanOp& op = plan_.ops[k];
  if (op.kind == OpKind::kCompare) {
    if (op.bind_slot < 0) st.lhs = CompileOperand(op.lhs);
    st.rhs = CompileOperand(op.rhs);
    return;
  }
  // kMatch / kNegMatch: flatten the column patterns into check/bind
  // actions. Pattern matching uses raw TermId equality (interned ground
  // terms), so every check compiles to one integer compare. A kCheck
  // against a slot first bound by an earlier column of the same op cannot
  // read the lane (the bind is only applied on emit), so it becomes a
  // row-column equality instead — the tuple path gets the same effect from
  // its in-record bind + undo log.
  std::vector<std::pair<int, uint32_t>> bound_here;
  for (uint32_t c = 0; c < op.col_patterns.size(); ++c) {
    const MatchNode& m = op.col_patterns[c];
    switch (m.kind) {
      case MatchNode::Kind::kWildcard:
        break;
      case MatchNode::Kind::kConst:
        st.const_checks.push_back({c, m.const_term});
        break;
      case MatchNode::Kind::kBind:
        st.binds.push_back({c, m.slot});
        bound_here.emplace_back(m.slot, c);
        break;
      case MatchNode::Kind::kCheck: {
        uint32_t other = UINT32_MAX;
        for (const auto& [slot, col] : bound_here) {
          if (slot == m.slot) {
            other = col;
            break;
          }
        }
        if (other != UINT32_MAX) {
          st.coleq_checks.push_back({c, other});
        } else {
          st.slot_checks.push_back({c, m.slot});
        }
        break;
      }
      case MatchNode::Kind::kStruct:
        // Unreachable: OpEligible rejects structural patterns.
        break;
    }
  }
  if (op.bound_mask != 0) {
    st.fast_key = true;
    for (ExprId e : op.key_exprs) {
      const ExprNode& n = plan_.exprs[static_cast<size_t>(e)];
      if (n.kind == ExprKind::kConst) {
        st.key_parts.push_back({true, n.const_term, -1});
      } else if (n.kind == ExprKind::kSlot) {
        st.key_parts.push_back({false, kNullTerm, n.slot});
      } else {
        st.fast_key = false;
        st.key_parts.clear();
        break;
      }
    }
  }
}

Result<TermId> BatchRunner::FetchOperand(const Operand& o,
                                         const TermId* lane) const {
  switch (o.kind) {
    case Operand::Kind::kConst:
      return o.value;
    case Operand::Kind::kSlot: {
      TermId v = lane[o.slot];
      if (v == kNullTerm) {
        return Status::Internal(
            StrCat("unbound slot ", o.slot, " read at run time"));
      }
      return v;
    }
    case Operand::Kind::kExpr:
      return EvalExpr(plan_, o.expr, {lane, width_}, exec_->pool_);
  }
  return Status::Internal("bad compare operand");
}

Status BatchRunner::BuildKey(const PlanOp& op, OpState& st,
                             const TermId* lane) {
  st.key.clear();
  if (st.fast_key) {
    for (const KeyPart& p : st.key_parts) {
      if (p.is_const) {
        st.key.push_back(p.value);
        continue;
      }
      TermId v = lane[p.slot];
      if (v == kNullTerm) {
        return Status::Internal(
            StrCat("unbound slot ", p.slot, " read at run time"));
      }
      st.key.push_back(v);
    }
    return Status::OK();
  }
  for (ExprId e : op.key_exprs) {
    GLUENAIL_ASSIGN_OR_RETURN(
        TermId v, EvalExpr(plan_, e, {lane, width_}, exec_->pool_));
    st.key.push_back(v);
  }
  return Status::OK();
}

Status BatchRunner::RunSegment(size_t begin, size_t end, const RecordSet& in,
                               RecordSet* out) {
  for (size_t k = begin; k < end; ++k) {
    CompileOp(k);
    out_bufs_[k].Reset(width_);
    emitted_[k] = 0;
  }
  seed_.Reset(width_);
  Status st = Status::OK();
  for (size_t i = 0; i < in.records.size(); ++i) {
    seed_.PushLane(in.records[i].data(), in.group(i));
    if (seed_.full()) {
      st = Push(begin, end, &seed_, out);
      seed_.ClearLanes();
      if (!st.ok()) break;
    }
  }
  if (st.ok() && !seed_.empty()) st = Push(begin, end, &seed_, out);
  // Account per-op actual rows in one bulk call per op: same totals as the
  // tuple path's per-record CountRow, flushed even when the segment aborts
  // so EXPLAIN ANALYZE sees the rows produced before the error.
  for (size_t k = begin; k < end; ++k) {
    if (emitted_[k] != 0) {
      exec_->CountOpRows(plan_, plan_.ops[k], emitted_[k]);
      emitted_[k] = 0;
    }
  }
  return st;
}

Status BatchRunner::Push(size_t k, size_t end, LaneBuffer* batch,
                         RecordSet* out) {
  if (batch->empty()) return Status::OK();
  if (k == end) {
    for (size_t i = 0; i < batch->count(); ++i) {
      Record rec;
      if (width_ != 0) {
        const TermId* lane = batch->lane(i);
        rec.assign(lane, lane + width_);
      }
      out->Add(std::move(rec), batch->group(i));
    }
    return Status::OK();
  }
  const PlanOp& op = plan_.ops[k];
  OpState& st = states_[k];
  switch (op.kind) {
    case OpKind::kCompare:
      GLUENAIL_RETURN_NOT_OK(RunCompare(op, st, batch));
      emitted_[k] += batch->count();
      return Push(k + 1, end, batch, out);
    case OpKind::kNegMatch:
      GLUENAIL_RETURN_NOT_OK(RunNegMatch(op, st, batch));
      emitted_[k] += batch->count();
      return Push(k + 1, end, batch, out);
    case OpKind::kMatch: {
      GLUENAIL_ASSIGN_OR_RETURN(Relation * rel,
                                exec_->ResolveRead(op.access, frame_));
      if (rel == nullptr || rel->empty()) return Status::OK();
      LaneBuffer* ob = &out_bufs_[k];
      ob->ClearLanes();
      GLUENAIL_RETURN_NOT_OK(
          op.bound_mask != 0
              ? RunMatchKeyed(op, st, rel, *batch, k, end, ob, out)
              : RunMatchScan(op, st, rel, *batch, k, end, ob, out));
      return FlushDown(k, end, ob, out);
    }
    default:
      return Status::Internal("barrier op in batch segment");
  }
}

Status BatchRunner::FlushDown(size_t k, size_t end, LaneBuffer* ob,
                              RecordSet* out) {
  if (ob->empty()) return Status::OK();
  emitted_[k] += ob->count();
  Status st = Push(k + 1, end, ob, out);
  ob->ClearLanes();
  return st;
}

Status BatchRunner::RunMatchKeyed(const PlanOp& op, OpState& st,
                                  Relation* rel, const LaneBuffer& in,
                                  size_t k, size_t end, LaneBuffer* ob,
                                  RecordSet* out) {
  // Planner-decided index build, same gating as the tuple path.
  if (op.build_index && !exec_->options_.read_only_storage &&
      rel->index_policy() != IndexPolicy::kNeverIndex) {
    rel->EnsureIndex(op.bound_mask);
  }
  const bool read_only = exec_->options_.read_only_storage;
  for (size_t l = 0; l < in.count(); ++l) {
    const TermId* lane = in.lane(l);
    const uint32_t group = in.group(l);
    GLUENAIL_RETURN_NOT_OK(BuildKey(op, st, lane));
    uint64_t visited = 0;
    std::span<const uint32_t> rows =
        read_only
            ? static_cast<const Relation*>(rel)->SelectSpanConst(
                  op.bound_mask, st.key, &st.rows, &visited)
            : rel->SelectSpan(op.bound_mask, st.key, &st.rows, &visited);
    GLUENAIL_RETURN_NOT_OK(exec_->ChargeScanRows(visited));
    for (uint32_t r : rows) {
      GLUENAIL_RETURN_NOT_OK(exec_->TickControl());
      const TermId* row = rel->row(r).data();
      if (!RowPassesStatic(st, row) || !RowPassesLane(st, row, lane)) {
        continue;
      }
      TermId* ol = ob->PushLane(lane, group);
      for (const ColBind& b : st.binds) ol[b.slot] = row[b.col];
      if (ob->full()) GLUENAIL_RETURN_NOT_OK(FlushDown(k, end, ob, out));
    }
  }
  return Status::OK();
}

Status BatchRunner::RunMatchScan(const PlanOp& op, OpState& st, Relation* rel,
                                 const LaneBuffer& in, size_t k, size_t end,
                                 LaneBuffer* ob, RecordSet* out) {
  const TupleArena& arena = rel->arena();
  const bool has_static =
      !st.const_checks.empty() || !st.coleq_checks.empty();
  for (uint32_t c = 0; c < arena.num_chunks(); ++c) {
    st.rows.clear();
    rel->CollectLiveRows(arena.chunk_begin(c), arena.chunk_end(c), &st.rows);
    if (st.rows.empty()) continue;
    // Tuple-path parity: a full scan visits every live row once per input
    // record; one bulk charge per (chunk, batch) covers the same total and
    // flushes the guardrail check on the same 4096-row cadence.
    GLUENAIL_RETURN_NOT_OK(
        exec_->ChargeScanRows(uint64_t{st.rows.size()} * in.count()));
    // Lane-independent checks (constants, same-op column equalities) run
    // once per chunk, not once per lane.
    const std::vector<uint32_t>* rows = &st.rows;
    if (has_static) {
      st.sel.clear();
      for (uint32_t r : st.rows) {
        if (RowPassesStatic(st, rel->row(r).data())) st.sel.push_back(r);
      }
      if (st.sel.empty()) continue;
      rows = &st.sel;
    }
    for (size_t l = 0; l < in.count(); ++l) {
      const TermId* lane = in.lane(l);
      const uint32_t group = in.group(l);
      for (uint32_t r : *rows) {
        const TermId* row = rel->row(r).data();
        if (!RowPassesLane(st, row, lane)) continue;
        TermId* ol = ob->PushLane(lane, group);
        for (const ColBind& b : st.binds) ol[b.slot] = row[b.col];
        if (ob->full()) GLUENAIL_RETURN_NOT_OK(FlushDown(k, end, ob, out));
      }
    }
  }
  return Status::OK();
}

Status BatchRunner::RunNegMatch(const PlanOp& op, OpState& st,
                                LaneBuffer* batch) {
  GLUENAIL_ASSIGN_OR_RETURN(Relation * rel,
                            exec_->ResolveRead(op.access, frame_));
  if (rel == nullptr || rel->empty()) return Status::OK();  // all survive
  st.sel.clear();
  if (op.bound_mask != 0) {
    const bool read_only = exec_->options_.read_only_storage;
    for (size_t l = 0; l < batch->count(); ++l) {
      const TermId* lane = batch->lane(l);
      GLUENAIL_RETURN_NOT_OK(BuildKey(op, st, lane));
      uint64_t visited = 0;
      std::span<const uint32_t> rows =
          read_only
              ? static_cast<const Relation*>(rel)->SelectSpanConst(
                    op.bound_mask, st.key, &st.rows, &visited)
              : rel->SelectSpan(op.bound_mask, st.key, &st.rows, &visited);
      GLUENAIL_RETURN_NOT_OK(exec_->ChargeScanRows(visited));
      bool found = false;
      for (uint32_t r : rows) {
        const TermId* row = rel->row(r).data();
        if (RowPassesStatic(st, row) && RowPassesLane(st, row, lane)) {
          found = true;
          break;
        }
      }
      if (!found) st.sel.push_back(static_cast<uint32_t>(l));
    }
  } else {
    st.rows.clear();
    rel->CollectLiveRows(0, rel->num_rows(), &st.rows);
    st.row_ok.assign(st.rows.size(), 0);
    for (size_t i = 0; i < st.rows.size(); ++i) {
      st.row_ok[i] =
          RowPassesStatic(st, rel->row(st.rows[i]).data()) ? 1 : 0;
    }
    for (size_t l = 0; l < batch->count(); ++l) {
      const TermId* lane = batch->lane(l);
      // Tuple-path parity: the existence scan visits live rows in order
      // and stops at the first match, charging every row it looked at
      // (including the matching one).
      uint64_t visited = 0;
      bool found = false;
      for (size_t i = 0; i < st.rows.size(); ++i) {
        ++visited;
        if (st.row_ok[i] == 0) continue;
        if (RowPassesLane(st, rel->row(st.rows[i]).data(), lane)) {
          found = true;
          break;
        }
      }
      GLUENAIL_RETURN_NOT_OK(exec_->ChargeScanRows(visited));
      if (!found) st.sel.push_back(static_cast<uint32_t>(l));
    }
  }
  batch->KeepOnly(st.sel);
  return Status::OK();
}

Status BatchRunner::RunCompare(const PlanOp& op, OpState& st,
                               LaneBuffer* batch) {
  if (op.bind_slot >= 0) {
    // Binding equality: write the slot in place — lanes are private copies,
    // so no undo is needed and every lane survives.
    const size_t slot = static_cast<size_t>(op.bind_slot);
    for (size_t l = 0; l < batch->count(); ++l) {
      TermId* lane = batch->lane(l);
      GLUENAIL_ASSIGN_OR_RETURN(TermId v, FetchOperand(st.rhs, lane));
      lane[slot] = v;
    }
    return Status::OK();
  }
  // Pure filter. Only the operand fetch is specialized: the comparison
  // itself always goes through EvalCompare, which coerces numerics
  // (1 == 1.0) — a raw TermId equality here would be unsound.
  st.sel.clear();
  for (size_t l = 0; l < batch->count(); ++l) {
    const TermId* lane = batch->lane(l);
    GLUENAIL_ASSIGN_OR_RETURN(TermId a, FetchOperand(st.lhs, lane));
    GLUENAIL_ASSIGN_OR_RETURN(TermId b, FetchOperand(st.rhs, lane));
    GLUENAIL_ASSIGN_OR_RETURN(bool pass,
                              EvalCompare(*exec_->pool_, op.cmp, a, b));
    if (pass) st.sel.push_back(static_cast<uint32_t>(l));
  }
  batch->KeepOnly(st.sel);
  return Status::OK();
}

}  // namespace gluenail
