#include "src/exec/vector/batch_runner.h"

#include <algorithm>

#include "src/common/strings.h"
#include "src/runtime/arith.h"

namespace gluenail {

bool IsInternalPredicateName(const TermPool& pool, TermId name) {
  TermId root = name;
  while (pool.IsCompound(root)) root = pool.Functor(root);
  return pool.IsSymbol(root) && StartsWith(pool.SymbolName(root), "$");
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
  bool structural = false;
  for (const MatchNode& m : op.col_patterns) {
    structural |= m.kind == MatchNode::Kind::kStruct;
  }
  // kMatch / kNegMatch: flatten the column patterns into check/bind
  // actions. Pattern matching uses raw TermId equality (interned ground
  // terms), so every check compiles to one integer compare. A kCheck
  // against a slot first bound by an earlier column of the same op cannot
  // read the lane (the bind is only applied on emit), so it becomes a
  // row-column equality instead. Structural ops keep their constant
  // checks and match every other column into the lane itself, where such
  // a kCheck reads the earlier bind directly.
  for (uint32_t c = 0; c < op.col_patterns.size(); ++c) {
    const MatchNode& m = op.col_patterns[c];
    if (m.kind == MatchNode::Kind::kWildcard) continue;
    if (m.kind == MatchNode::Kind::kConst) {
      st.const_checks.push_back({c, m.const_term});
      continue;
    }
    if (structural) {
      st.struct_cols.push_back(c);
      continue;
    }
    if (m.kind == MatchNode::Kind::kBind) {
      st.binds.push_back({c, m.slot});
      continue;
    }
    // kCheck: against an earlier column's bind, or the lane's slot.
    auto bound_here = std::find_if(
        st.binds.begin(), st.binds.end(),
        [&](const ColBind& b) { return b.slot == m.slot; });
    if (bound_here != st.binds.end()) {
      st.coleq_checks.push_back({c, bound_here->col});
    } else {
      st.slot_checks.push_back({c, m.slot});
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

bool BatchRunner::BindRow(const PlanOp& op, const OpState& st,
                          const TermId* row, TermId* ol) const {
  for (const ColBind& b : st.binds) ol[b.slot] = row[b.col];
  for (uint32_t c : st.struct_cols) {
    if (!MatchTerm(op.col_patterns[c], row[c], *exec_->pool_, {ol, width_},
                   nullptr)) {
      return false;
    }
  }
  return true;
}

bool BatchRunner::RowMatchesLane(const PlanOp& op, OpState& st,
                                 const TermId* row, const TermId* lane) {
  if (!RowPassesLane(st, row, lane)) return false;
  if (st.struct_cols.empty()) return true;
  st.probe.assign(lane, lane + width_);
  return BindRow(op, st, row, st.probe.data());
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

Result<std::span<const uint32_t>> BatchRunner::Probe(const PlanOp& op,
                                                     OpState& st,
                                                     Relation* rel) {
  // Shared readers never build indexes or touch adaptive statistics.
  uint64_t visited = 0;
  std::span<const uint32_t> rows =
      exec_->access_ != StorageAccess::kReadWrite
          ? static_cast<const Relation*>(rel)->SelectSpanConst(
                op.bound_mask, st.key, &st.rows, &visited)
          : rel->SelectSpan(op.bound_mask, st.key, &st.rows, &visited);
  GLUENAIL_RETURN_NOT_OK(exec_->ChargeScanRows(visited));
  return rows;
}

Status BatchRunner::RunSegment(size_t begin, size_t end, const RecordSet& in,
                               RecordSet* out) {
  ++exec_->stats_.batch_segments;
  exec_->stats_.batch_rows += in.records.size();
  for (size_t k = begin; k < end; ++k) {
    CompileOp(k);
    states_[k].out.Reset(width_);
    states_[k].emitted = 0;
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
  // Account per-op actual rows in one bulk call per op, flushed even when
  // the segment aborts so EXPLAIN ANALYZE sees the rows produced before
  // the error.
  for (size_t k = begin; k < end; ++k) {
    if (states_[k].emitted != 0) {
      exec_->CountOpRows(plan_, plan_.ops[k], states_[k].emitted);
      states_[k].emitted = 0;
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
      st.emitted += batch->count();
      return Push(k + 1, end, batch, out);
    case OpKind::kNegMatch:
      GLUENAIL_RETURN_NOT_OK(RunNegMatch(op, st, batch));
      st.emitted += batch->count();
      return Push(k + 1, end, batch, out);
    case OpKind::kMatch: {
      st.out.ClearLanes();
      if (op.access.kind == PredicateAccess::Kind::kDynamic) {
        GLUENAIL_RETURN_NOT_OK(RunDynamicMatch(op, st, *batch, k, end, out));
      } else {
        GLUENAIL_ASSIGN_OR_RETURN(Relation * rel,
                                  exec_->ResolveRead(op.access, frame_));
        GLUENAIL_RETURN_NOT_OK(
            RunMatch(op, st, rel, *batch, 0, batch->count(), k, end, out));
      }
      return FlushDown(k, end, &st.out, out);
    }
    default:
      return Status::Internal("barrier op in batch segment");
  }
}

Status BatchRunner::FlushDown(size_t k, size_t end, LaneBuffer* ob,
                              RecordSet* out) {
  if (ob->empty()) return Status::OK();
  states_[k].emitted += ob->count();
  Status st = Push(k + 1, end, ob, out);
  ob->ClearLanes();
  return st;
}

Result<Relation*> BatchRunner::ResolveDynamic(const PlanOp& op,
                                              const TermId* lane) {
  GLUENAIL_ASSIGN_OR_RETURN(
      TermId name,
      EvalExpr(plan_, op.access.name_expr, {lane, width_}, exec_->pool_));
  Relation* rel = exec_->edb_->Find(name, op.access.arity);
  NailEvaluator* nail = exec_->env_.nail;
  if (rel == nullptr && nail != nullptr && !nail->evaluating()) {
    GLUENAIL_RETURN_NOT_OK(nail->EnsureAllNail());
    rel = exec_->idb_->Find(name, op.access.arity);
  }
  return rel;
}

Status BatchRunner::RunMatch(const PlanOp& op, OpState& st, Relation* rel,
                             const LaneBuffer& in, size_t lo, size_t hi,
                             size_t k, size_t end, RecordSet* out) {
  if (rel == nullptr || rel->empty()) return Status::OK();
  return op.bound_mask != 0
             ? RunMatchKeyed(op, st, rel, in, lo, hi, k, end, out)
             : RunMatchScan(op, st, rel, in, lo, hi, k, end, out);
}

Status BatchRunner::RunDynamicMatch(const PlanOp& op, OpState& st,
                                    const LaneBuffer& in, size_t k,
                                    size_t end, RecordSet* out) {
  if (op.access.name_expr != kNoExpr) {
    for (size_t l = 0; l < in.count(); ++l) {
      GLUENAIL_ASSIGN_OR_RETURN(Relation * rel,
                                ResolveDynamic(op, in.lane(l)));
      GLUENAIL_RETURN_NOT_OK(RunMatch(op, st, rel, in, l, l + 1, k, end, out));
    }
    return Status::OK();
  }
  // Unbound name variables: enumerate every candidate predicate of the
  // right arity — paper §5.1: "predicate variables can only range over
  // predicate names", which are always finitely many. The name pattern
  // binds into a one-lane seed that the kernels then run over.
  const MatchNode& name_pattern =
      plan_.name_patterns[static_cast<size_t>(op.access.name_pattern_index)];
  // While a refresh runs, the memos are incomplete: the EDB only.
  NailEvaluator* nail = exec_->env_.nail;
  bool edb_only = nail != nullptr && nail->evaluating();
  for (size_t l = 0; l < in.count(); ++l) {
    if (nail != nullptr && !edb_only) {
      GLUENAIL_RETURN_NOT_OK(nail->EnsureAllNail());
    }
    for (Database* db : {exec_->edb_, exec_->idb_}) {
      if (db == nullptr || (edb_only && db == exec_->idb_)) continue;
      for (auto& [name, rel] : db->RelationsWithArity(op.access.arity)) {
        if (IsInternalPredicateName(*exec_->pool_, name)) continue;
        st.seed.Reset(width_);
        TermId* seed = st.seed.PushLane(in.lane(l), in.group(l));
        if (!MatchTerm(name_pattern, name, *exec_->pool_, {seed, width_},
                       nullptr)) {
          continue;
        }
        GLUENAIL_RETURN_NOT_OK(
            RunMatch(op, st, rel, st.seed, 0, 1, k, end, out));
      }
    }
  }
  return Status::OK();
}

Status BatchRunner::RunMatchKeyed(const PlanOp& op, OpState& st,
                                  Relation* rel, const LaneBuffer& in,
                                  size_t lo, size_t hi, size_t k, size_t end,
                                  RecordSet* out) {
  // Planner-decided index build (§10 folded into planning): build before
  // the first probe instead of waiting for the adaptive policy to amortize
  // scans. Shared readers never build; kNeverIndex still wins.
  if (op.build_index && exec_->access_ == StorageAccess::kReadWrite &&
      rel->index_policy() != IndexPolicy::kNeverIndex) {
    rel->EnsureIndex(op.bound_mask);
  }
  LaneBuffer* ob = &st.out;
  for (size_t l = lo; l < hi; ++l) {
    const TermId* lane = in.lane(l);
    const uint32_t group = in.group(l);
    GLUENAIL_RETURN_NOT_OK(BuildKey(op, st, lane));
    GLUENAIL_ASSIGN_OR_RETURN(std::span<const uint32_t> rows,
                              Probe(op, st, rel));
    for (uint32_t r : rows) {
      GLUENAIL_RETURN_NOT_OK(exec_->TickControl());
      const TermId* row = rel->row(r).data();
      if (!RowPassesStatic(st, row) || !RowPassesLane(st, row, lane)) {
        continue;
      }
      TermId* ol = ob->PushLane(lane, group);
      if (!BindRow(op, st, row, ol)) {
        ob->PopLane();
        continue;
      }
      if (ob->full()) GLUENAIL_RETURN_NOT_OK(FlushDown(k, end, ob, out));
    }
  }
  return Status::OK();
}

Status BatchRunner::RunMatchScan(const PlanOp& op, OpState& st, Relation* rel,
                                 const LaneBuffer& in, size_t lo, size_t hi,
                                 size_t k, size_t end, RecordSet* out) {
  const TupleArena& arena = rel->arena();
  const bool has_static =
      !st.const_checks.empty() || !st.coleq_checks.empty();
  LaneBuffer* ob = &st.out;
  for (uint32_t c = 0; c < arena.num_chunks(); ++c) {
    st.rows.clear();
    rel->CollectLiveRows(arena.chunk_begin(c), arena.chunk_end(c), &st.rows);
    if (st.rows.empty()) continue;
    // A full scan visits every live row once per input lane; one bulk
    // charge per (chunk, batch) flushes the guardrail check on the 4096-row
    // cadence.
    GLUENAIL_RETURN_NOT_OK(
        exec_->ChargeScanRows(uint64_t{st.rows.size()} * (hi - lo)));
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
    for (size_t l = lo; l < hi; ++l) {
      const TermId* lane = in.lane(l);
      const uint32_t group = in.group(l);
      for (uint32_t r : *rows) {
        const TermId* row = rel->row(r).data();
        if (!RowPassesLane(st, row, lane)) continue;
        TermId* ol = ob->PushLane(lane, group);
        if (!BindRow(op, st, row, ol)) {
          ob->PopLane();
          continue;
        }
        if (ob->full()) GLUENAIL_RETURN_NOT_OK(FlushDown(k, end, ob, out));
      }
    }
  }
  return Status::OK();
}

Status BatchRunner::RunNegMatch(const PlanOp& op, OpState& st,
                                LaneBuffer* batch) {
  st.sel.clear();
  if (op.access.kind == PredicateAccess::Kind::kDynamic) {
    for (size_t l = 0; l < batch->count(); ++l) {
      GLUENAIL_ASSIGN_OR_RETURN(Relation * rel,
                                ResolveDynamic(op, batch->lane(l)));
      GLUENAIL_RETURN_NOT_OK(SelectUnmatched(op, st, rel, *batch, l, l + 1));
    }
  } else {
    GLUENAIL_ASSIGN_OR_RETURN(Relation * rel,
                              exec_->ResolveRead(op.access, frame_));
    GLUENAIL_RETURN_NOT_OK(
        SelectUnmatched(op, st, rel, *batch, 0, batch->count()));
  }
  batch->KeepOnly(st.sel);
  return Status::OK();
}

Status BatchRunner::SelectUnmatched(const PlanOp& op, OpState& st,
                                    Relation* rel, const LaneBuffer& batch,
                                    size_t lo, size_t hi) {
  if (rel == nullptr || rel->empty()) {  // every lane survives
    for (size_t l = lo; l < hi; ++l) st.sel.push_back(static_cast<uint32_t>(l));
    return Status::OK();
  }
  if (op.bound_mask != 0) {
    for (size_t l = lo; l < hi; ++l) {
      const TermId* lane = batch.lane(l);
      GLUENAIL_RETURN_NOT_OK(BuildKey(op, st, lane));
      GLUENAIL_ASSIGN_OR_RETURN(std::span<const uint32_t> rows,
                                Probe(op, st, rel));
      bool found = false;
      for (uint32_t r : rows) {
        const TermId* row = rel->row(r).data();
        if (RowPassesStatic(st, row) && RowMatchesLane(op, st, row, lane)) {
          found = true;
          break;
        }
      }
      if (!found) st.sel.push_back(static_cast<uint32_t>(l));
    }
    return Status::OK();
  }
  st.rows.clear();
  rel->CollectLiveRows(0, rel->num_rows(), &st.rows);
  st.row_ok.assign(st.rows.size(), 0);
  for (size_t i = 0; i < st.rows.size(); ++i) {
    st.row_ok[i] = RowPassesStatic(st, rel->row(st.rows[i]).data()) ? 1 : 0;
  }
  for (size_t l = lo; l < hi; ++l) {
    const TermId* lane = batch.lane(l);
    // The existence scan visits live rows in order and stops at the first
    // match, charging every row it looked at (including the matching one).
    uint64_t visited = 0;
    bool found = false;
    for (size_t i = 0; i < st.rows.size(); ++i) {
      ++visited;
      if (st.row_ok[i] == 0) continue;
      if (RowMatchesLane(op, st, rel->row(st.rows[i]).data(), lane)) {
        found = true;
        break;
      }
    }
    GLUENAIL_RETURN_NOT_OK(exec_->ChargeScanRows(visited));
    if (!found) st.sel.push_back(static_cast<uint32_t>(l));
  }
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
