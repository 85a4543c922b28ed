/// \file resolver.h
/// \brief Program linking: modules -> one compiled program.
///
/// Modules are purely a compile-time concept (paper §6); linking
///   1. indexes every procedure (qualified and exported names),
///   2. merges all NAIL! rules into one stratified program,
///   3. builds scopes (builtins+hosts <- all EDB declarations <- module
///      declarations and imports),
///   4. computes transitive procedure fixedness (§3.1),
///   5. plans every procedure through the same planner ("the Glue
///      optimizer runs over all the code", §11) — and, only when
///      LinkOptions::nail_mode asks for kCompiledGlue (the E10 artifact),
///      the generated `$nail$*` NAIL! evaluation procedures too.

#ifndef GLUENAIL_ANALYSIS_RESOLVER_H_
#define GLUENAIL_ANALYSIS_RESOLVER_H_

#include <memory>
#include <vector>

#include "src/analysis/scope.h"
#include "src/ast/ast.h"
#include "src/nail/rule_graph.h"
#include "src/nail/seminaive.h"
#include "src/plan/planner.h"
#include "src/runtime/io.h"
#include "src/storage/tuple.h"

namespace gluenail {

struct LinkOptions {
  PlannerOptions planner;
  NailMode nail_mode = NailMode::kDirect;
  /// Cardinality oracle handed to the physical planner; may be nullptr
  /// (plans fall back to default cardinalities).
  const StatsProvider* stats = nullptr;
};

struct LinkedProgram {
  CompiledProgram program;
  NailProgram nail;
  /// Generated NAIL! driver procedure (compiled-Glue mode), else -1.
  int nail_driver_proc = -1;
  /// Module-level facts, to be inserted into the EDB.
  std::vector<std::pair<TermId, Tuple>> facts;
  /// Scopes kept alive for ad-hoc statement compilation: global_scope sees
  /// builtins, hosts, every EDB declaration, every export, and every NAIL!
  /// predicate.
  std::unique_ptr<Scope> builtin_scope;
  std::unique_ptr<Scope> edb_scope;
  std::unique_ptr<Scope> global_scope;
};

Result<LinkedProgram> LinkProgram(const ast::Program& program,
                                  const std::vector<HostProcedure>& hosts,
                                  TermPool* pool, const LinkOptions& opts);

/// Declares the predefined procedures (write, writeln, nl, read,
/// read_line, true) into \p scope. Exposed for standalone NAIL!
/// evaluation (magic-set queries, tests).
void DeclareBuiltinScope(Scope* scope);

}  // namespace gluenail

#endif  // GLUENAIL_ANALYSIS_RESOLVER_H_
