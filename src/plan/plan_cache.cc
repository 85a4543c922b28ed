#include "src/plan/plan_cache.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <utility>

#include "src/analysis/binding.h"
#include "src/common/strings.h"
#include "src/obs/metrics.h"
#include "src/plan/physical.h"

namespace gluenail {

namespace {

/// Marks a lifted argument in a shape key; no TermKind encodes to it.
constexpr char kParameterTag = 'P';

/// True for the arguments a read lifts to parameters: the top-level
/// atomic constants of a positive or negated atom.
bool IsParameter(const ast::Subgoal& g, const ast::Term& arg) {
  return (g.kind == ast::SubgoalKind::kAtom ||
          g.kind == ast::SubgoalKind::kNegatedAtom) &&
         (arg.kind == ast::TermKind::kInt ||
          arg.kind == ast::TermKind::kFloat ||
          arg.kind == ast::TermKind::kSymbol);
}

void AppendU64(uint64_t v, std::string* out) {
  char bytes[sizeof v];
  std::memcpy(bytes, &v, sizeof v);
  out->append(bytes, sizeof v);
}

/// Appends an unambiguous encoding of \p t: its kind, then its payload
/// (names length-prefixed, children counted).
void AppendTerm(const ast::Term& t, std::string* out) {
  out->push_back(static_cast<char>(t.kind));
  switch (t.kind) {
    case ast::TermKind::kVariable:
    case ast::TermKind::kSymbol:
      AppendU64(t.name.size(), out);
      out->append(t.name);
      break;
    case ast::TermKind::kInt:
      AppendU64(static_cast<uint64_t>(t.int_value), out);
      break;
    case ast::TermKind::kFloat:
      AppendU64(std::bit_cast<uint64_t>(t.float_value), out);
      break;
    case ast::TermKind::kApply:
      AppendU64(t.children.size(), out);
      for (const ast::Term& c : t.children) AppendTerm(c, out);
      break;
    case ast::TermKind::kWildcard:
      break;
  }
}

/// The key of \p goal's shape under \p epoch. Collects the arguments
/// lifted to parameters into \p params, in slot order.
std::string ShapeKey(uint64_t epoch, std::vector<ast::Subgoal>* goal,
                     std::vector<ast::Term*>* params) {
  std::string key;
  AppendU64(epoch, &key);
  for (ast::Subgoal& g : *goal) {
    key.push_back(static_cast<char>(g.kind));
    key.push_back(static_cast<char>(g.cmp));
    AppendTerm(g.pred, &key);
    AppendU64(g.args.size(), &key);
    for (ast::Term& a : g.args) {
      if (IsParameter(g, a)) {
        key.push_back(kParameterTag);
        params->push_back(&a);
      } else {
        AppendTerm(a, &key);
      }
    }
    AppendTerm(g.lhs, &key);
    AppendTerm(g.rhs, &key);
  }
  return key;
}

/// Every variable of \p goal, in first-appearance order.
std::vector<std::string> GoalVariables(const std::vector<ast::Subgoal>& goal) {
  std::vector<std::string> vars;
  for (const ast::Subgoal& g : goal) {
    g.pred.CollectVariables(&vars);
    for (const ast::Term& a : g.args) a.CollectVariables(&vars);
    g.lhs.CollectVariables(&vars);
    g.rhs.CollectVariables(&vars);
  }
  return vars;
}

/// The stored relations \p plan reads, with the sizes \p stats gives now.
std::vector<PlanCache::CostedRelation> CostedRelations(
    const StatementPlan& plan, const StatsProvider* stats) {
  std::vector<PlanCache::CostedRelation> out;
  if (stats == nullptr) return out;
  for (const PlanOp& op : plan.ops) {
    if (op.kind != OpKind::kMatch && op.kind != OpKind::kNegMatch) continue;
    PlanCache::CostedRelation rel;
    if (op.access.kind == PredicateAccess::Kind::kEdb) {
      rel.store = Store::kEdb;
    } else if (op.access.kind == PredicateAccess::Kind::kNail) {
      rel.store = Store::kIdb;
    } else {
      continue;
    }
    rel.name = op.access.name;
    rel.arity = op.access.arity;
    // A self-join reads one relation twice; check it once.
    if (std::any_of(out.begin(), out.end(), [&rel](const auto& other) {
          return other.store == rel.store && other.name == rel.name &&
                 other.arity == rel.arity;
        })) {
      continue;
    }
    rel.known = stats->Rows(rel.store, rel.name, rel.arity, &rel.rows);
    out.push_back(rel);
  }
  return out;
}

/// True once a relation \p costed was planned against appeared, vanished
/// or drifted past the re-plan rule.
bool Stale(const std::vector<PlanCache::CostedRelation>& costed,
           const StatsProvider* stats) {
  for (const PlanCache::CostedRelation& rel : costed) {
    uint64_t rows = 0;
    bool known = stats->Rows(rel.store, rel.name, rel.arity, &rows);
    if (known != rel.known || (known && RowsDrifted(rel.rows, rows))) {
      return true;
    }
  }
  return false;
}

}  // namespace

Result<PlanCache::Read> PlanCache::Plan(std::vector<ast::Subgoal> goal,
                                        const CompileEnv& env,
                                        const PlannerOptions& opts) {
  ast::Assignment a;
  a.head_pred = ast::Term::Symbol("$query");
  a.op = ast::AssignOp::kClear;
  a.body = std::move(goal);
  std::vector<ast::Term*> params;
  std::string key =
      ShapeKey(epoch_.load(std::memory_order_acquire), &a.body, &params);

  Read read;
  read.params.reserve(params.size());
  for (const ast::Term* p : params) {
    GLUENAIL_ASSIGN_OR_RETURN(TermId id, InternGroundTerm(env.pool, *p));
    read.params.push_back(id);
  }

  std::shared_ptr<const Entry> found = Find(key);
  if (found != nullptr && (env.stats == nullptr ||
                           !Stale(found->costed, env.stats))) {
    hits_.fetch_add(1, std::memory_order_relaxed);
    read.entry = std::move(found);
    read.cached = true;
    return read;
  }
  (found != nullptr ? replans_ : misses_)
      .fetch_add(1, std::memory_order_relaxed);

  auto entry = std::make_shared<Entry>();
  entry->vars = GoalVariables(a.body);
  for (const std::string& v : entry->vars) {
    a.head_args.push_back(ast::Term::Variable(v));
  }
  std::vector<std::string> names;
  std::vector<ast::Term> constants;
  for (size_t i = 0; i < params.size(); ++i) {
    names.push_back(StrCat("$p", i));
    constants.push_back(
        std::exchange(*params[i], ast::Term::Variable(names.back())));
  }
  CompileEnv penv = env;
  penv.parameters = names;
  Result<StatementPlan> plan = PlanAssignment(a, penv, opts);
  if (!plan.ok()) {
    // Report the goal as written, and run it uncached should it plan.
    for (size_t i = 0; i < params.size(); ++i) {
      *params[i] = std::move(constants[i]);
    }
    GLUENAIL_ASSIGN_OR_RETURN(entry->plan, PlanAssignment(a, env, opts));
    read.params.clear();
    read.entry = std::move(entry);
    return read;
  }
  entry->plan = std::move(*plan);
  entry->costed = CostedRelations(entry->plan, env.stats);
  read.entry = entry;
  Insert(std::move(key), std::move(entry));
  return read;
}

std::shared_ptr<const PlanCache::Entry> PlanCache::Find(
    const std::string& key) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(key);
  if (it == index_.end()) return nullptr;
  lru_.splice(lru_.begin(), lru_, it->second);
  return it->second->entry;
}

void PlanCache::Insert(std::string key, std::shared_ptr<const Entry> entry) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(key);
  if (it != index_.end()) {
    // Another read planned the same shape meanwhile, or this one re-plans.
    it->second->entry = std::move(entry);
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  lru_.push_front(Slot{std::move(key), std::move(entry)});
  index_.emplace(lru_.front().key, lru_.begin());
  if (lru_.size() > kCapacity) {
    index_.erase(lru_.back().key);
    lru_.pop_back();
  }
}

void PlanCache::Invalidate() {
  std::lock_guard<std::mutex> lock(mu_);
  epoch_.fetch_add(1, std::memory_order_acq_rel);
  index_.clear();
  lru_.clear();
}

void PlanCache::RegisterMetrics(MetricsRegistry* registry,
                                const PlanCache* cache) {
  registry->RegisterPullCounter("gluenail_plan_cache_hits_total",
                                "reads served a cached plan of their shape",
                                &cache->hits_);
  registry->RegisterPullCounter(
      "gluenail_plan_cache_misses_total",
      "reads planned because no plan of their shape was cached",
      &cache->misses_);
  registry->RegisterPullCounter(
      "gluenail_plan_cache_replans_total",
      "cached read plans planned again after a relation they read drifted "
      "8x in size",
      &cache->replans_);
}

}  // namespace gluenail
