/// \file scope.h
/// \brief Compile-time name resolution tables.
///
/// Paper §6: modules "give the Glue compiler valuable information
/// concerning which predicates are visible at any point in a program",
/// letting predicate dereferencing happen at compile time. §9: "in Glue it
/// is possible at compile time to determine which predicate classes (i.e.
/// EDB, IDB, Glue procedure, or reference) a statically unbound name ...
/// could refer to at run time."
///
/// A Scope maps (name, HiLog parameter arity, arity) to a PredBinding.
/// Scopes nest: procedure scope (locals, in, return) -> module scope
/// (own declarations + imports) -> builtin scope (I/O procedures, true).

#ifndef GLUENAIL_ANALYSIS_SCOPE_H_
#define GLUENAIL_ANALYSIS_SCOPE_H_

#include <optional>
#include <span>
#include <string>
#include <unordered_map>

#include "src/common/strings.h"
#include "src/term/term_pool.h"

namespace gluenail {

class StatsProvider;

/// The predicate classes of paper §2 (plus implementation-level refinements
/// of "Glue procedure": host and predefined I/O procedures share the same
/// calling convention).
enum class PredClass : uint8_t {
  kEdb,
  kLocal,
  kNail,
  kGlueProc,
  kHostProc,
  kBuiltinProc,
  kIn,
  kReturn,
};

std::string_view PredClassName(PredClass cls);

struct PredBinding {
  PredClass cls = PredClass::kEdb;
  /// For procedure-like classes: the (bound : free) split. For relations
  /// bound_arity is 0 and free_arity the relation arity.
  uint32_t bound_arity = 0;
  uint32_t free_arity = 0;
  /// Procedure table / host table / local table index, or BuiltinProc.
  int index = -1;
  /// Side-effecting (paper §3.1: fixed subgoals).
  bool fixed = false;
  /// Interned relation name (kEdb) or flattened storage name (kNail).
  TermId name = kNullTerm;
  /// HiLog parameter arity (kNail): students(ID)(S) has 1.
  uint32_t nail_params = 0;
  /// Statement heads may write to this predicate. True for EDB and locals;
  /// true for kNail only inside generated NAIL!-evaluation procedures.
  bool assignable = false;

  uint32_t arity() const { return bound_arity + free_arity; }
};

class Scope {
 public:
  explicit Scope(const Scope* parent = nullptr) : parent_(parent) {}

  /// Registers a binding; later declarations in the same scope win (paper
  /// §4: local declarations "hide" outer predicates they unify with).
  void Declare(std::string_view name, uint32_t param_arity, uint32_t arity,
               PredBinding binding) {
    table_[Key(name, param_arity, arity)] = binding;
  }

  /// Innermost binding for (name, param_arity, arity), or nullptr.
  const PredBinding* Lookup(std::string_view name, uint32_t param_arity,
                            uint32_t arity) const {
    auto it = table_.find(Key(name, param_arity, arity));
    if (it != table_.end()) return &it->second;
    return parent_ != nullptr ? parent_->Lookup(name, param_arity, arity)
                              : nullptr;
  }

 private:
  static std::string Key(std::string_view name, uint32_t param_arity,
                         uint32_t arity) {
    return StrCat(name, "/", param_arity, "/", arity);
  }

  const Scope* parent_;
  std::unordered_map<std::string, PredBinding> table_;
};

/// Everything the subgoal analyzer and planner need to compile one
/// statement.
struct CompileEnv {
  TermPool* pool = nullptr;
  const Scope* scope = nullptr;
  /// Ad-hoc mode (Engine::ExecuteStatement): unresolved simple names
  /// resolve to EDB relations created on demand.
  bool implicit_edb = false;
  /// Inside a procedure: `in` and `return` are meaningful.
  bool in_procedure = false;
  uint32_t proc_bound_arity = 0;
  uint32_t proc_arity = 0;
  /// Cardinality oracle for the physical planner; nullptr means no
  /// statistics are available (the planner falls back to defaults).
  const StatsProvider* stats = nullptr;
  /// Variables bound before the body runs, in slots 0..n-1 in this order:
  /// the parameters a cached read plan takes its constants in
  /// (plan/plan_cache.h). The caller seeds their values into the first
  /// record.
  std::span<const std::string> parameters;
};

}  // namespace gluenail

#endif  // GLUENAIL_ANALYSIS_SCOPE_H_
