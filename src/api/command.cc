#include "src/api/command.h"

#include "src/api/session.h"
#include "src/common/strings.h"

namespace gluenail {

std::string_view CommandKindToString(CommandKind kind) {
  switch (kind) {
    case CommandKind::kPing:
      return "ping";
    case CommandKind::kQuery:
      return "query";
    case CommandKind::kMutate:
      return "mutate";
    case CommandKind::kExplain:
      return "explain";
    case CommandKind::kLoad:
      return "load";
    case CommandKind::kSave:
      return "save";
    case CommandKind::kMetrics:
      return "metrics";
    case CommandKind::kSlowlog:
      return "slowlog";
  }
  return "unknown";
}

WireError WireErrorFromStatus(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return WireError::kOk;
    case StatusCode::kParseError:
      return WireError::kParseError;
    case StatusCode::kCompileError:
      return WireError::kCompileError;
    case StatusCode::kRuntimeError:
      return WireError::kRuntimeError;
    case StatusCode::kIoError:
      return WireError::kIoError;
    case StatusCode::kInvalidArgument:
      return WireError::kInvalidArgument;
    case StatusCode::kInternal:
      return WireError::kInternal;
    case StatusCode::kNotFound:
      return WireError::kNotFound;
    case StatusCode::kCancelled:
      return WireError::kCancelled;
    case StatusCode::kResourceExhausted:
      return WireError::kResourceExhausted;
    case StatusCode::kFailedPrecondition:
      return WireError::kFailedPrecondition;
  }
  return WireError::kInternal;
}

StatusCode StatusCodeFromWireError(uint8_t wire) {
  switch (static_cast<WireError>(wire)) {
    case WireError::kOk:
      return StatusCode::kOk;
    case WireError::kParseError:
      return StatusCode::kParseError;
    case WireError::kCompileError:
      return StatusCode::kCompileError;
    case WireError::kRuntimeError:
      return StatusCode::kRuntimeError;
    case WireError::kIoError:
      return StatusCode::kIoError;
    case WireError::kInvalidArgument:
      return StatusCode::kInvalidArgument;
    case WireError::kInternal:
      return StatusCode::kInternal;
    case WireError::kNotFound:
      return StatusCode::kNotFound;
    case WireError::kCancelled:
      return StatusCode::kCancelled;
    case WireError::kResourceExhausted:
      return StatusCode::kResourceExhausted;
    case WireError::kFailedPrecondition:
      return StatusCode::kFailedPrecondition;
  }
  return StatusCode::kInternal;
}

QueryOptions WireQueryOptions::ToQueryOptions() const {
  QueryOptions q;
  q.strategy = strategy;
  if (timeout_millis != 0) {
    q.deadline = Deadline::After(std::chrono::milliseconds(timeout_millis));
  }
  q.limits.max_tuples = max_tuples;
  q.limits.max_arena_bytes = max_arena_bytes;
  q.limits.max_rows_scanned = max_rows_scanned;
  q.trace = trace;
  return q;
}

Command Command::Query(std::string goal, WireQueryOptions options) {
  Command c;
  c.kind = CommandKind::kQuery;
  c.goal = std::move(goal);
  c.options = options;
  return c;
}

Command Command::MutateStatement(std::string statement,
                                 WireQueryOptions options) {
  Command c;
  c.kind = CommandKind::kMutate;
  c.statement = std::move(statement);
  c.options = options;
  return c;
}

Command Command::MutateBatch(MutationBatch batch) {
  Command c;
  c.kind = CommandKind::kMutate;
  c.batch = std::move(batch);
  return c;
}

Command Command::Explain(std::string statement, bool analyze) {
  Command c;
  c.kind = CommandKind::kExplain;
  c.statement = std::move(statement);
  c.analyze = analyze;
  return c;
}

Command Command::LoadProgramText(std::string source) {
  Command c;
  c.kind = CommandKind::kLoad;
  c.load_target = LoadTarget::kProgram;
  c.source = std::move(source);
  return c;
}

Command Command::LoadProgramFile(std::string path) {
  Command c;
  c.kind = CommandKind::kLoad;
  c.load_target = LoadTarget::kProgram;
  c.path = std::move(path);
  return c;
}

Command Command::LoadEdbText(std::string source) {
  Command c;
  c.kind = CommandKind::kLoad;
  c.load_target = LoadTarget::kEdb;
  c.source = std::move(source);
  return c;
}

Command Command::LoadEdbFile(std::string path) {
  Command c;
  c.kind = CommandKind::kLoad;
  c.load_target = LoadTarget::kEdb;
  c.path = std::move(path);
  return c;
}

Command Command::SaveEdb(std::string path) {
  Command c;
  c.kind = CommandKind::kSave;
  c.path = std::move(path);
  return c;
}

Command Command::Metrics(MetricsFormat format) {
  Command c;
  c.kind = CommandKind::kMetrics;
  c.metrics_format = format;
  return c;
}

Command Command::Slowlog() {
  Command c;
  c.kind = CommandKind::kSlowlog;
  return c;
}

// --- The one dispatch point ----------------------------------------------
// Defined here (not session.cc) so everything Command-shaped lives in one
// translation unit; Session's read/write plumbing stays in session.cc.

Response Session::Execute(const Command& cmd) {
  switch (cmd.kind) {
    case CommandKind::kPing:
      return Response::Ok("pong");

    case CommandKind::kQuery: {
      Result<Engine::QueryResult> r =
          Query(cmd.goal, cmd.options.ToQueryOptions());
      if (!r.ok()) return Response::Error(r.status());
      Response resp;
      resp.vars = std::move(r->vars);
      resp.rows = std::move(r->rows);
      return resp;
    }

    case CommandKind::kMutate: {
      // ApplyBatch and ExecuteStatement fence replicas themselves.
      Response resp;
      if (!cmd.batch.empty()) {
        // The durable write path: when a WAL is configured the batch is
        // logged (and, per the durability level, fsynced) before this
        // returns; otherwise it is a plain in-memory apply.
        Result<MutationBatch::ApplyReport> r =
            engine_->ApplyBatch(cmd.batch);
        if (!r.ok()) return Response::Error(r.status());
        resp.applied = r->applied;
        resp.inserted = r->inserted;
        resp.erased = r->erased;
      }
      if (!cmd.statement.empty()) {
        Status s = engine_->ExecuteStatement(cmd.statement,
                                             cmd.options.ToQueryOptions());
        if (!s.ok()) return Response::Error(std::move(s));
        ++resp.applied;
      }
      return resp;
    }

    case CommandKind::kExplain: {
      ExplainOptions eopts;
      eopts.analyze = cmd.analyze;
      Result<std::string> r =
          engine_->ExplainStatement(cmd.statement, eopts);
      if (!r.ok()) return Response::Error(r.status());
      return Response::Ok(std::move(*r));
    }

    case CommandKind::kLoad: {
      if (cmd.load_target == LoadTarget::kProgram) {
        Status s = cmd.source.empty() ? engine_->LoadProgramFile(cmd.path)
                                      : engine_->LoadProgram(cmd.source);
        if (!s.ok()) return Response::Error(std::move(s));
        return Response::Ok(
            StrCat("loaded: ", FormatCompileStats(engine_->compile_stats())));
      }
      // Both loads stage their facts and commit them as one logged,
      // delta-captured insert batch; a replica refuses before parsing.
      Result<LoadReport> r = cmd.source.empty()
                                 ? engine_->LoadEdbFile(cmd.path)
                                 : engine_->LoadEdbText(cmd.source);
      if (!r.ok()) return Response::Error(r.status());
      return Response::Ok(cmd.source.empty()
                              ? StrCat("edb loaded from ", cmd.path)
                              : std::string("edb loaded"));
    }

    case CommandKind::kSave: {
      Status s = engine_->SaveEdbFile(cmd.path);
      if (!s.ok()) return Response::Error(std::move(s));
      return Response::Ok(StrCat("edb saved to ", cmd.path));
    }

    case CommandKind::kMetrics:
      return Response::Ok(engine_->DumpMetrics(cmd.metrics_format));

    case CommandKind::kSlowlog:
      return Response::Ok(engine_->slow_query_log().Render());
  }
  return Response::Error(Status::InvalidArgument(
      StrCat("unknown command kind ", static_cast<int>(cmd.kind))));
}

}  // namespace gluenail
