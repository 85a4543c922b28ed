/// \file command.h
/// \brief The engine's unified Command/Response surface.
///
/// Every way into the engine — the in-process API, the REPL, and the
/// network server — funnels through one dispatch point:
///
///     Session session = engine.OpenSession();
///     Response r = session.Execute(Command::Query("path(1,X)"));
///
/// A Command is a tagged, *serializable* request: its payloads are plain
/// strings, numbers, and a MutationBatch, so the same value can be built
/// in-process, encoded onto a socket (src/server/protocol.h), and decoded
/// on the other side. Guardrails ride along as WireQueryOptions (a
/// serializable projection of QueryOptions: relative timeouts instead of
/// absolute deadlines, no cancel token — in-process callers needing a
/// CancelToken use Engine/Session::Query directly).
///
/// A Response always carries a Status; result data comes back as typed
/// fields (query variables + rows, or a text blob for plans, metrics,
/// slow-log dumps). Response rows are pool-relative Tuples — render them
/// with the owning engine's TermPool; the wire codec does exactly that
/// when shipping a response to a remote client.
///
/// The wire error enum (WireError) freezes one stable byte per StatusCode
/// so remote clients can distinguish kCancelled / kResourceExhausted /
/// parse errors programmatically even as StatusCode grows; see
/// docs/PROTOCOL.md.

#ifndef GLUENAIL_API_COMMAND_H_
#define GLUENAIL_API_COMMAND_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/api/engine.h"
#include "src/storage/mutation_batch.h"

namespace gluenail {

enum class CommandKind : uint8_t {
  kPing = 0,     ///< liveness check; responds with text "pong"
  kQuery = 1,    ///< conjunctive goal -> vars + rows
  kMutate = 2,   ///< a MutationBatch and/or a Glue statement
  kExplain = 3,  ///< plan text for a statement (optionally ANALYZE)
  kLoad = 4,     ///< load a program (inline text or file) or an EDB file
  kSave = 5,     ///< save the EDB to a file
  kMetrics = 6,  ///< DumpMetrics (Prometheus or JSON) -> text
  kSlowlog = 7,  ///< slow-query log -> text
};

std::string_view CommandKindToString(CommandKind kind);

/// \brief Stable wire representation of StatusCode.
///
/// The numeric values are frozen independently of StatusCode: adding or
/// reordering StatusCode members must not change what goes on the wire.
/// Round-trip invariant (tested in tests/server_test.cc):
///   StatusCodeFromWireError(WireErrorFromStatus(c)) == c  for every c.
enum class WireError : uint8_t {
  kOk = 0,
  kParseError = 1,
  kCompileError = 2,
  kRuntimeError = 3,
  kIoError = 4,
  kInvalidArgument = 5,
  kInternal = 6,
  kNotFound = 7,
  kCancelled = 8,
  kResourceExhausted = 9,
  kFailedPrecondition = 10,
};

WireError WireErrorFromStatus(StatusCode code);
/// Unknown bytes (a newer server talking to an older client) map to
/// kInternal rather than failing the decode.
StatusCode StatusCodeFromWireError(uint8_t wire);

/// Serializable projection of QueryOptions (also honored by kMutate and
/// kExplain-analyze executions).
struct WireQueryOptions {
  QueryStrategy strategy = QueryStrategy::kBottomUp;
  /// Relative deadline; 0 = none. Converted to an absolute Deadline when
  /// the command executes, not when it is built.
  uint64_t timeout_millis = 0;
  /// ResourceLimits projections; 0 = unlimited.
  uint64_t max_tuples = 0;
  uint64_t max_arena_bytes = 0;
  uint64_t max_rows_scanned = 0;
  bool trace = false;

  QueryOptions ToQueryOptions() const;
};

/// What kLoad loads.
enum class LoadTarget : uint8_t {
  kProgram = 0,  ///< Glue-Nail source (replaces the loaded program)
  /// §10 facts merged into the EDB: inline text (Engine::LoadEdbText) or a
  /// file (Engine::LoadEdbFile), committed as one logged insert batch.
  kEdb = 1,
};

/// A tagged request. Only the fields of the active kind matter; the
/// factory functions below build well-formed commands.
struct Command {
  CommandKind kind = CommandKind::kPing;

  // kQuery: the goal; options also govern kMutate/kExplain execution.
  std::string goal;
  WireQueryOptions options;

  // kMutate: `batch` applies first, then `statement` (either may be
  // empty; an entirely empty mutate is a no-op).
  std::string statement;  // also the kExplain target
  MutationBatch batch;

  // kExplain
  bool analyze = false;

  // kLoad / kSave: when `source` is non-empty it is inline text;
  // otherwise `path` names a server-side file.
  LoadTarget load_target = LoadTarget::kProgram;
  std::string path;
  std::string source;

  // kMetrics
  MetricsFormat metrics_format = MetricsFormat::kPrometheus;

  static Command Ping() { return Command{}; }
  static Command Query(std::string goal, WireQueryOptions options = {});
  static Command MutateStatement(std::string statement,
                                 WireQueryOptions options = {});
  static Command MutateBatch(MutationBatch batch);
  static Command Explain(std::string statement, bool analyze = false);
  static Command LoadProgramText(std::string source);
  static Command LoadProgramFile(std::string path);
  static Command LoadEdbText(std::string source);
  static Command LoadEdbFile(std::string path);
  static Command SaveEdb(std::string path);
  static Command Metrics(MetricsFormat format = MetricsFormat::kPrometheus);
  static Command Slowlog();
};

/// The engine's answer to one Command. `status` is always meaningful; the
/// data fields depend on the command kind (and are empty on error).
struct Response {
  Status status;

  /// kQuery: goal variables (first-appearance order) and distinct answer
  /// rows in canonical term order. Rows are Tuples over the *serving*
  /// engine's TermPool.
  std::vector<std::string> vars;
  std::vector<Tuple> rows;

  /// kExplain plan text, kMetrics blob, kSlowlog dump, kPing "pong",
  /// kLoad/kSave human-readable summary.
  std::string text;

  /// kMutate: ops applied / tuples actually inserted / erased (batch
  /// path; statement mutations report applied = 1).
  uint64_t applied = 0;
  uint64_t inserted = 0;
  uint64_t erased = 0;

  bool ok() const { return status.ok(); }

  static Response Error(Status s) {
    Response r;
    r.status = std::move(s);
    return r;
  }
  static Response Ok(std::string text = "") {
    Response r;
    r.text = std::move(text);
    return r;
  }
};

}  // namespace gluenail

#endif  // GLUENAIL_API_COMMAND_H_
