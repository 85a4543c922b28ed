/// \file ivm.cc
/// \brief Delta-driven NAIL! memo maintenance (docs/ARCHITECTURE.md,
/// "Incremental view maintenance").
///
/// When the engine's structured write path captured every EDB change since
/// the memo's snapshot (storage/delta_log.h), a stale memo is patched
/// instead of recomputed. Every affected SCC runs *DRed*
/// (delete-and-rederive) at a cost proportional to the delta, not to the
/// changed relations: over-delete via delta-restricted semi-naive over the
/// live relations (a live ∪ erased old-state copy is built only for a rule
/// that reads two or more positions with erased rows), erase, rederive in
/// one deletion-set semi-join pass, then run the ordinary semi-naive
/// fixpoint once over the rederived tuples and the insertions. A
/// non-recursive SCC is the degenerate case: no internal positions, so
/// nothing propagates and no fixpoint runs — the seeds go straight into
/// the memo.
///
/// Every relation — EDB relation, memo, or the reserved name a rule
/// position reads through — is identified by (store, name, arity), both
/// in the change map and in the executor's read overrides, so an EDB
/// relation that shares a memo's name and arity, or a name read at two
/// arities, stays apart.
///
/// Everything here is *optimistic*: any structural condition the
/// algorithm cannot handle (aggregates in rules, negation over a changed
/// relation) abandons the attempt and falls back to the full recompute in
/// seminaive.cc, which is always correct. Live EDB and memo relations are
/// never mutated to simulate old states — old-state reads go through
/// private override copies — so an abandoned attempt can at worst leave
/// the memo partially patched, which the caller handles by distrusting it
/// (valid_ = false).

#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "src/analysis/binding.h"
#include "src/common/strings.h"
#include "src/nail/nail_to_glue.h"
#include "src/nail/seminaive.h"
#include "src/obs/trace.h"
#include "src/plan/planner.h"

namespace gluenail {

namespace {

using ast::Subgoal;
using ast::Term;

/// Whether every op of \p plan is something the maintenance joins can run
/// body-only over frozen storage: matches/negations on EDB or NAIL!
/// relations (read-override-able) and comparisons. Aggregates, group_by,
/// calls, body updates, and dynamic HiLog access all disqualify the rule.
bool PlanCapable(const StatementPlan& plan) {
  for (const PlanOp& op : plan.ops) {
    switch (op.kind) {
      case OpKind::kMatch:
      case OpKind::kNegMatch:
        if (op.access.kind != PredicateAccess::Kind::kEdb &&
            op.access.kind != PredicateAccess::Kind::kNail) {
          return false;
        }
        break;
      case OpKind::kCompare:
        break;
      default:
        return false;
    }
  }
  return true;
}

/// Body-only executors read through SelectConst, which never builds
/// indexes — so build any keyed index up front, where the writer path
/// would have built it adaptively. \p ex resolves each read, overrides
/// included.
void BuildIndexesFor(const StatementPlan& plan, const Executor& ex) {
  for (const PlanOp& op : plan.ops) {
    if (op.kind != OpKind::kMatch && op.kind != OpKind::kNegMatch) continue;
    if (op.bound_mask == 0) continue;
    Relation* rel = ex.FindStored(op.access);
    if (rel != nullptr && rel->index_policy() != IndexPolicy::kNeverIndex &&
        rel->size() >= 64) {
      rel->EnsureIndex(op.bound_mask);
    }
  }
}

}  // namespace

/// Per-refresh working state. Everything old-state-shaped lives here as
/// private copies; live relations are only patched with *final* nets.
struct NailEngine::IvmCtx {
  /// Net change of one relation: rows now present that were absent at the
  /// memo's snapshot, and vice versa.
  struct Net {
    explicit Net(uint32_t arity)
        : inserted("$ivm+", arity), erased("$ivm-", arity) {}
    Relation inserted;
    Relation erased;
    uint64_t rows() const { return inserted.size() + erased.size(); }
  };

  /// StoredRelationKey -> net change. Seeded from the delta log's EDB
  /// captures; memo keys are appended as their SCCs complete, so
  /// downstream SCCs see upstream memo deltas uniformly.
  std::unordered_map<uint64_t, std::unique_ptr<Net>> changed;
  /// Nets of parameterized memos, to mirror into their published HiLog
  /// instances, in SCC order.
  std::vector<std::pair<int, const Net*>> publish;
  /// Old-state over-approximation per changed relation:
  /// live ∪ erased ⊇ old (also ⊇ new — safe for over-deletion). Built only
  /// for relations a rule reads at two or more positions with erased rows.
  std::unordered_map<uint64_t, std::unique_ptr<Relation>> unions;

  uint64_t rows_out = 0;
  /// Rows copied into `unions` (NailRefreshInfo::old_state_rows).
  uint64_t old_state_rows = 0;
  bool used_dred = false;

  Net* Find(uint64_t key) {
    auto it = changed.find(key);
    return it == changed.end() ? nullptr : it->second.get();
  }
};

Status NailEngine::EnsureIvmPlans() {
  if (ivm_plans_ready_) return Status::OK();
  ivm_plans_ready_ = true;
  ivm_program_capable_ = false;
  if (nail_scope_ == nullptr || exec_ == nullptr) return Status::OK();

  // All reserved names live in a scope layered over the direct-compile
  // scope; the plans intern everything they need, so the layer itself can
  // die with this function.
  Scope scope(nail_scope_.get());

  // Deletion-set relations for DRed rederivation, one per predicate.
  ivm_dset_names_.assign(program_.preds.size(), kNullTerm);
  for (size_t p = 0; p < program_.preds.size(); ++p) {
    const NailPred& pred = program_.preds[p];
    std::string dname = StrCat("$ivm$dset$", p);
    ivm_dset_names_[p] = pool_->MakeSymbol(dname);
    PredBinding b;
    b.cls = PredClass::kNail;
    b.free_arity = pred.columns();
    b.name = ivm_dset_names_[p];
    scope.Declare(dname, 0, pred.columns(), b);
  }

  CompileEnv env;
  env.pool = pool_;
  env.scope = &scope;
  env.implicit_edb = true;
  env.stats = stats_;
  // Delta-position-first plans: reordering off keeps the delta subgoal in
  // front so the join cost is proportional to the delta, not the base.
  PlannerOptions delta_opts = planner_opts_;
  delta_opts.reorder = false;

  // A plan that fails without reordering (the original body order may not
  // be schedulable as written) is retried with the regular planner — the
  // join result is the same set of bindings either way.
  auto plan_either = [&](const ast::Assignment& a,
                         StatementPlan* out) -> bool {
    Result<StatementPlan> r = PlanAssignment(a, env, delta_opts);
    if (!r.ok()) r = PlanAssignment(a, env, planner_opts_);
    if (!r.ok() || !PlanCapable(*r)) return false;
    *out = std::move(*r);
    return true;
  };

  std::vector<int> rule_pred(program_.rules.size(), -1);
  for (size_t p = 0; p < program_.preds.size(); ++p) {
    for (int r : program_.preds[p].rules) {
      rule_pred[static_cast<size_t>(r)] = static_cast<int>(p);
    }
  }

  ivm_rules_.clear();
  ivm_rules_.resize(program_.rules.size());
  bool all_ok = true;
  for (size_t r = 0; r < program_.rules.size(); ++r) {
    IvmRule& ir = ivm_rules_[r];
    ir.pred = rule_pred[r];
    const ast::NailRule& rule = program_.rules[r];
    bool ok = ir.pred >= 0;

    ir.head_cols = FlattenColumns(rule.head_pred, rule.head_args);
    for (const Term& c : ir.head_cols) {
      if (!c.IsVariable() && !c.IsGround()) ok = false;
    }

    // Resolve every atom position to its relation: NAIL! memo storage, or
    // an EDB relation named by the (ground) predicate term.
    auto resolve = [&](const Subgoal& g, size_t index,
                       IvmRule::Pos* pos) -> bool {
      std::string root;
      uint32_t params = 0;
      if (!StaticPredName(g.pred, &root, &params)) return false;
      int dp = program_.FindPred(root, params,
                                 static_cast<uint32_t>(g.args.size()));
      pos->index = index;
      if (dp >= 0) {
        const NailPred& dep = program_.preds[static_cast<size_t>(dp)];
        pos->rel = dep.storage;
        pos->arity = dep.columns();
        pos->nail_pred = dp;
        return true;
      }
      Result<TermId> nm = InternGroundTerm(pool_, g.pred);
      if (!nm.ok()) return false;
      pos->rel = *nm;
      pos->arity = static_cast<uint32_t>(g.args.size());
      pos->nail_pred = -1;
      return true;
    };
    for (size_t i = 0; ok && i < rule.body.size(); ++i) {
      const Subgoal& g = rule.body[i];
      IvmRule::Pos pos;
      switch (g.kind) {
        case ast::SubgoalKind::kAtom:
          if (!resolve(g, i, &pos)) ok = false;
          else ir.positions.push_back(pos);
          break;
        case ast::SubgoalKind::kNegatedAtom:
          if (!resolve(g, i, &pos)) ok = false;
          else ir.negations.push_back(pos);
          break;
        case ast::SubgoalKind::kComparison:
          break;
        default:
          ok = false;
          break;
      }
    }

    if (ok) {
      // Synthetic head over the head columns, shared by the delta and
      // rederive plans: DRed works on sets, so only the head tuple of a
      // binding record matters. An assignable reserved kNail name, so
      // head planning succeeds, though only bodies ever run.
      uint32_t H = static_cast<uint32_t>(ir.head_cols.size());
      std::string rhname = StrCat("$ivm$rh$", r);
      PredBinding rhb;
      rhb.cls = PredClass::kNail;
      rhb.free_arity = H;
      rhb.name = pool_->MakeSymbol(rhname);
      rhb.assignable = true;
      scope.Declare(rhname, 0, H, rhb);

      // One delta plan per positive position: that position rotated to the
      // front, redirected to a reserved per-(rule, position) name that the
      // refresh read-overrides to whichever delta relation it is joining.
      for (size_t k = 0; ok && k < ir.positions.size(); ++k) {
        IvmRule::Pos& pos = ir.positions[k];
        std::string uname = StrCat("$ivm$u$", r, "$", k);
        pos.scope_name = pool_->MakeSymbol(uname);
        PredBinding ub;
        ub.cls = PredClass::kNail;
        ub.free_arity = pos.arity;
        ub.name = pos.scope_name;
        scope.Declare(uname, 0, pos.arity, ub);

        ast::Assignment a;
        a.head_pred = Term::Symbol(rhname);
        a.head_args = ir.head_cols;
        a.op = ast::AssignOp::kInsert;
        Subgoal dg = rule.body[pos.index];
        if (pos.nail_pred >= 0) {
          // Memo positions flatten HiLog params into columns; EDB delta
          // rows already carry plain argument columns (the params live in
          // the relation name), so those keep their args.
          std::vector<Term> cols = FlattenColumns(dg.pred, dg.args);
          dg.args = std::move(cols);
        }
        dg.pred = Term::Symbol(uname);
        a.body.push_back(std::move(dg));
        for (size_t j = 0; j < rule.body.size(); ++j) {
          if (j != pos.index) a.body.push_back(rule.body[j]);
        }
        ir.delta_plans.emplace_back();
        if (!plan_either(a, &ir.delta_plans.back())) ok = false;
      }

      // DRed rederivation: semi-join the head predicate's deletion set
      // against the body — a deleted tuple with a surviving derivation
      // comes back.
      if (ok) {
        ast::Assignment a;
        a.head_pred = Term::Symbol(rhname);
        a.head_args = ir.head_cols;
        a.op = ast::AssignOp::kInsert;
        a.body.push_back(Subgoal::Atom(
            Term::Symbol(StrCat("$ivm$dset$", ir.pred)), ir.head_cols));
        for (const Subgoal& g : rule.body) a.body.push_back(g);
        if (!plan_either(a, &ir.rederive)) ok = false;
      }
    }

    all_ok = all_ok && ok;
  }
  ivm_program_capable_ = all_ok && !program_.rules.empty();
  return Status::OK();
}

/// kAuto's fall-back guard: recompute fully when any relation's captured
/// delta exceeds this fraction of its live size (delta joins stop paying
/// off well before the delta reaches the base's size).
constexpr double kMaxDeltaFraction = 0.25;

Status NailEngine::RefreshIncremental(NailRefreshInfo* info, bool* done) {
  *done = false;
  GLUENAIL_RETURN_NOT_OK(EnsureIvmPlans());
  if (!ivm_program_capable_) {
    info->fallback = "unsupported-rule";
    return Status::OK();
  }
  ScopedSpan span("nail:delta-refresh");

  IvmCtx ctx;
  uint64_t rows_in = 0;
  bool too_big = false;
  delta_log_->ForEach([&](TermId name, uint32_t arity,
                          const DeltaLog::RelDelta& d) {
    if (d.rows() == 0) return;
    rows_in += d.rows();
    if (ivm_mode_ != IvmMode::kForce) {
      Relation* live = edb_->Find(name, arity);
      size_t base = live != nullptr ? live->size() : 0;
      if (base < 256) base = 256;
      if (static_cast<double>(d.rows()) >
          kMaxDeltaFraction * static_cast<double>(base)) {
        too_big = true;
      }
    }
    auto net = std::make_unique<IvmCtx::Net>(arity);
    net->inserted.CopyFrom(d.inserted);
    net->erased.CopyFrom(d.erased);
    ctx.changed[StoredRelationKey(Store::kEdb, name, arity)] =
        std::move(net);
  });
  info->delta_rows_in = rows_in;
  if (span.active()) span.AddRows(rows_in);
  if (too_big) {
    info->fallback = "delta-fraction";
    return Status::OK();
  }
  if (ctx.changed.empty()) {
    info->mode = "empty";
    *done = true;
    return Status::OK();
  }

  for (size_t s = 0; s < program_.scc_order.size(); ++s) {
    const std::vector<int>& sccp = program_.scc_order[s];
    bool live_affected = false;
    for (int p : sccp) {
      for (int r : program_.preds[static_cast<size_t>(p)].rules) {
        const IvmRule& ir = ivm_rules_[static_cast<size_t>(r)];
        for (const IvmRule::Pos& pos : ir.positions) {
          IvmCtx::Net* net = ctx.Find(pos.key());
          if (net != nullptr && net->rows() > 0) live_affected = true;
        }
        for (const IvmRule::Pos& pos : ir.negations) {
          IvmCtx::Net* net = ctx.Find(pos.key());
          if (net != nullptr && net->rows() > 0) {
            // Negation is not monotone in the delta; DRed does not handle
            // a negated premise whose relation changed.
            info->fallback = "negation-on-delta";
            return Status::OK();
          }
        }
      }
    }
    if (!live_affected) continue;
    GLUENAIL_RETURN_NOT_OK(RefreshSccDred(s, &ctx));
  }

  // Patch the published HiLog instances with the final memo nets.
  for (const auto& [p, net] : ctx.publish) {
    const NailPred& pred = program_.preds[static_cast<size_t>(p)];
    TermId root = pool_->MakeSymbol(pred.root);
    for (RowView t : net->erased) {
      std::vector<TermId> params(t.begin(), t.begin() + pred.params);
      TermId name = pool_->MakeCompound(root, params);
      Relation* pub = idb_->Find(name, pred.arity);
      // An instance emptied by the erase stays behind as an empty
      // relation; readers treat empty and missing alike.
      if (pub != nullptr) pub->Erase(t.subspan(pred.params));
    }
    for (RowView t : net->inserted) {
      std::vector<TermId> params(t.begin(), t.begin() + pred.params);
      TermId name = pool_->MakeCompound(root, params);
      idb_->GetOrCreate(name, pred.arity)->Insert(t.subspan(pred.params));
    }
  }

  info->delta_rows_out = ctx.rows_out;
  info->old_state_rows = ctx.old_state_rows;
  info->mode = ctx.used_dred ? "dred" : "empty";
  *done = true;
  return Status::OK();
}

Status NailEngine::RefreshSccDred(size_t s, IvmCtx* ctx) {
  ScopedSpan span("nail:ivm-dred");
  ctx->used_dred = true;
  const std::vector<int>& sccp = program_.scc_order[s];
  std::unordered_set<int> internal(sccp.begin(), sccp.end());
  auto is_internal = [&](const IvmRule::Pos& pos) {
    return pos.nail_pred >= 0 && internal.count(pos.nail_pred) != 0;
  };

  // A non-recursive SCC is the degenerate case: no internal positions, so
  // no deletion propagates and no fixpoint runs — its seeds go straight
  // into the memo, and it needs no propagation or $delta relations.
  const bool recursive = !scc_plans_[s].iterate.empty();

  // Deletion sets and per-round propagation deltas.
  std::unordered_map<int, std::unique_ptr<Relation>> dset, ddelta, dnext;
  for (int p : sccp) {
    uint32_t cols = program_.preds[static_cast<size_t>(p)].columns();
    dset[p] = std::make_unique<Relation>("$ivm$D", cols);
    if (!recursive) continue;
    ddelta[p] = std::make_unique<Relation>("$ivm$Dd", cols);
    dnext[p] = std::make_unique<Relation>("$ivm$Dn", cols);
  }

  // The passes work for the query that pays for this refresh: the
  // writer's options and its control, whose row total they charge.
  RuntimeEnv renv;
  renv.nail = this;
  auto pass_executor = [&] {
    Executor exec(exec_->program(), edb_, idb_, pool_, renv,
                  exec_->options(), StorageAccess::kReadOnly);
    exec.set_control(exec_->control());
    return exec;
  };

  // ---- Phase 1: over-delete. Derivations lost to erased external rows,
  // then propagated through the SCC. The memos stay unpatched throughout,
  // so internal positions read exactly the old state. External positions
  // read the live relations, which hold at least old − erased: a
  // derivation that also uses an erased row at another position j is
  // found by j's seed pass, which reads the internal positions from the
  // unpatched memo. That argument fails only when one rule has two or
  // more external positions with erased rows (each seed pass would then
  // need the other position's erased rows); only those relations are
  // read through a live ∪ erased copy. Extra matches through inserted
  // rows are filtered by memo->Contains or rederived below.
  Executor del_exec = pass_executor();
  for (int p : sccp) {
    for (int r : program_.preds[static_cast<size_t>(p)].rules) {
      const IvmRule& ir = ivm_rules_[static_cast<size_t>(r)];
      std::vector<const IvmRule::Pos*> erased_pos;
      for (const IvmRule::Pos& pos : ir.positions) {
        if (is_internal(pos)) continue;
        IvmCtx::Net* net = ctx->Find(pos.key());
        if (net != nullptr && !net->erased.empty()) erased_pos.push_back(&pos);
      }
      if (erased_pos.size() < 2) continue;
      for (const IvmRule::Pos* pos : erased_pos) {
        uint64_t key = pos->key();
        auto uit = ctx->unions.find(key);
        if (uit == ctx->unions.end()) {
          auto u = std::make_unique<Relation>("$ivm$old+", pos->arity);
          Relation* live = (pos->nail_pred >= 0 ? idb_ : edb_)
                               ->Find(pos->rel, pos->arity);
          if (live != nullptr) u->CopyFrom(*live);
          u->UnionAll(ctx->Find(key)->erased);
          ctx->old_state_rows += u->size();
          uit = ctx->unions.emplace(key, std::move(u)).first;
        }
        del_exec.AddReadOverride(pos->store(), pos->rel, pos->arity,
                                 uit->second.get());
      }
    }
  }
  for (int p : sccp) {
    const NailPred& pred = program_.preds[static_cast<size_t>(p)];
    Relation* memo = idb_->GetOrCreate(pred.storage, pred.columns());
    for (int r : pred.rules) {
      const IvmRule& ir = ivm_rules_[static_cast<size_t>(r)];
      for (size_t k = 0; k < ir.positions.size(); ++k) {
        const IvmRule::Pos& pos = ir.positions[k];
        if (is_internal(pos)) continue;
        IvmCtx::Net* net = ctx->Find(pos.key());
        if (net == nullptr || net->erased.empty()) continue;
        del_exec.AddReadOverride(Store::kIdb, pos.scope_name, pos.arity,
                                 &net->erased);
        BuildIndexesFor(ir.delta_plans[k], del_exec);
        GLUENAIL_RETURN_NOT_OK(
            del_exec.RunPlanHeads(ir.delta_plans[k], [&](Tuple t) {
              if (memo->Contains(t) && dset[p]->Insert(t) && recursive) {
                ddelta[p]->Insert(t);
              }
            }));
      }
    }
  }
  // Propagate deletions through internal positions (textbook DRed: the
  // non-delta internal reads include the deleted tuples).
  bool progress = recursive;
  while (progress) {
    progress = false;
    for (int p : sccp) dnext[p]->Clear();
    for (int p : sccp) {
      const NailPred& pred = program_.preds[static_cast<size_t>(p)];
      Relation* memo = idb_->GetOrCreate(pred.storage, pred.columns());
      for (int r : pred.rules) {
        const IvmRule& ir = ivm_rules_[static_cast<size_t>(r)];
        for (size_t k = 0; k < ir.positions.size(); ++k) {
          const IvmRule::Pos& pos = ir.positions[k];
          if (!is_internal(pos)) continue;
          Relation* cur = ddelta[pos.nail_pred].get();
          if (cur->empty()) continue;
          del_exec.AddReadOverride(Store::kIdb, pos.scope_name, pos.arity,
                                   cur);
          BuildIndexesFor(ir.delta_plans[k], del_exec);
          GLUENAIL_RETURN_NOT_OK(
              del_exec.RunPlanHeads(ir.delta_plans[k], [&](Tuple t) {
                if (memo->Contains(t) && dset[p]->Insert(t)) {
                  dnext[p]->Insert(t);
                }
              }));
        }
      }
    }
    for (int p : sccp) {
      if (!dnext[p]->empty()) progress = true;
      std::swap(ddelta[p], dnext[p]);
    }
  }

  // ---- Phase 2: erase the over-deleted tuples. Rows appended to a memo
  // from here on (rederived or inserted) are the candidate net inserts,
  // and in a recursive SCC they double as the fixpoint's seeds in the
  // delta relations.
  std::unordered_map<int, uint32_t> marker;
  for (int p : sccp) {
    const NailPred& pred = program_.preds[static_cast<size_t>(p)];
    Relation* memo = idb_->GetOrCreate(pred.storage, pred.columns());
    for (RowView t : *dset[p]) memo->Erase(t);
    marker[p] = memo->num_rows();
    if (!recursive) continue;
    idb_->GetOrCreate(pred.delta_storage, pred.columns())->Clear();
    idb_->GetOrCreate(pred.newdelta_storage, pred.columns())->Clear();
  }

  // ---- Phase 3: seeds. Per rule, one rederive pass — the deletion-set
  // semi-join against the remaining memo and the new EDB — and the
  // insertions joined through each external position. Whatever a seed
  // enables, rederived or new, the fixpoint below derives. Rederived
  // tuples stay in the deletion set so the net-change step counts them
  // as washes.
  bool seeded = false;
  Executor seed_exec = pass_executor();
  for (int p : sccp) {
    seed_exec.AddReadOverride(Store::kIdb,
                              ivm_dset_names_[static_cast<size_t>(p)],
                              dset[p]->arity(), dset[p].get());
  }
  for (int p : sccp) {
    const NailPred& pred = program_.preds[static_cast<size_t>(p)];
    Relation* memo = idb_->GetOrCreate(pred.storage, pred.columns());
    Relation* delta =
        recursive ? idb_->GetOrCreate(pred.delta_storage, pred.columns())
                  : nullptr;
    auto seed = [&](Tuple t) {
      if (memo->Insert(t) && delta != nullptr) {
        delta->Insert(t);
        seeded = true;
      }
    };
    for (int r : pred.rules) {
      const IvmRule& ir = ivm_rules_[static_cast<size_t>(r)];
      if (!dset[p]->empty()) {
        BuildIndexesFor(ir.rederive, seed_exec);
        GLUENAIL_RETURN_NOT_OK(
            seed_exec.RunPlanHeads(ir.rederive, seed));
      }
      for (size_t k = 0; k < ir.positions.size(); ++k) {
        const IvmRule::Pos& pos = ir.positions[k];
        if (is_internal(pos)) continue;
        IvmCtx::Net* net = ctx->Find(pos.key());
        if (net == nullptr || net->inserted.empty()) continue;
        seed_exec.AddReadOverride(Store::kIdb, pos.scope_name, pos.arity,
                                  &net->inserted);
        BuildIndexesFor(ir.delta_plans[k], seed_exec);
        GLUENAIL_RETURN_NOT_OK(
            seed_exec.RunPlanHeads(ir.delta_plans[k], seed));
      }
    }
  }
  if (seeded) {
    // The seeds of a recursive SCC feed the same semi-naive fixpoint loop
    // as a full refresh.
    GLUENAIL_RETURN_NOT_OK(RunSccFixpoint(s));
  }

  // ---- Net change: an appended live row that is in the deletion set is
  // a wash (back through the rederive pass or the fixpoint); the other
  // appended rows are inserts; what remains of the deletion set is erased.
  for (int p : sccp) {
    const NailPred& pred = program_.preds[static_cast<size_t>(p)];
    Relation* memo = idb_->GetOrCreate(pred.storage, pred.columns());
    auto out = std::make_unique<IvmCtx::Net>(pred.columns());
    std::vector<uint32_t> newrows;
    memo->CollectLiveRows(marker[p], memo->num_rows(), &newrows);
    for (uint32_t rid : newrows) {
      RowView t = memo->row(rid);
      if (dset[p]->Erase(t)) continue;
      out->inserted.Insert(t);
    }
    for (RowView t : *dset[p]) out->erased.Insert(t);
    if (span.active()) span.AddRows(out->rows());
    ctx->rows_out += out->rows();
    if (out->rows() > 0) {
      if (pred.params > 0) ctx->publish.emplace_back(p, out.get());
      ctx->changed[StoredRelationKey(Store::kIdb, pred.storage,
                                     pred.columns())] = std::move(out);
    }
  }
  return Status::OK();
}

}  // namespace gluenail
