#include "src/server/protocol.h"

#include <sys/socket.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "src/common/strings.h"

namespace gluenail {

// --- Framing -------------------------------------------------------------

std::string EncodeFrame(FrameType type, std::string_view payload) {
  std::string out;
  out.reserve(kFrameHeaderSize + payload.size());
  out.append(kFrameMagic, sizeof(kFrameMagic));
  out.push_back(static_cast<char>(type));
  PutFixed32(&out, static_cast<uint32_t>(payload.size()));
  PutFixed64(&out, Fnv1a64(payload.data(), payload.size()));
  out.append(payload.data(), payload.size());
  return out;
}

bool SendAll(int fd, std::string_view data) {
  size_t off = 0;
  while (off < data.size()) {
    ssize_t n =
        ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      if (n == 0) errno = EPIPE;
      return false;
    }
    off += static_cast<size_t>(n);
  }
  return true;
}

Result<std::optional<WireFrame>> FrameDecoder::Next() {
  // Compact the consumed prefix occasionally so a long-lived connection
  // does not grow its buffer without bound.
  if (pos_ > 0 && (pos_ == buf_.size() || pos_ > (64u << 10))) {
    buf_.erase(0, pos_);
    pos_ = 0;
  }
  if (buffered() < kFrameHeaderSize) return std::optional<WireFrame>();
  const char* h = buf_.data() + pos_;
  if (std::memcmp(h, kFrameMagic, sizeof(kFrameMagic)) != 0) {
    return Status::InvalidArgument("frame: bad magic (stream desynced?)");
  }
  uint8_t type = static_cast<uint8_t>(h[4]);
  if (type < static_cast<uint8_t>(FrameType::kCommand) ||
      type > static_cast<uint8_t>(FrameType::kReplHeartbeat)) {
    return Status::InvalidArgument(StrCat("frame: unknown type ", type));
  }
  uint32_t len = DecodeFixed32(h + 5);
  if (len > max_payload_) {
    // Reject before any allocation: the declared length never becomes a
    // buffer size until it passes this bound.
    return Status::ResourceExhausted(StrCat(
        "frame: declared payload of ", len, " bytes exceeds the ",
        max_payload_, "-byte limit"));
  }
  uint64_t declared_checksum = DecodeFixed64(h + 9);
  if (buffered() < kFrameHeaderSize + len) return std::optional<WireFrame>();
  const char* body = h + kFrameHeaderSize;
  uint64_t actual = Fnv1a64(body, len);
  if (actual != declared_checksum) {
    return Status::InvalidArgument("frame: payload checksum mismatch");
  }
  WireFrame frame;
  frame.type = static_cast<FrameType>(type);
  frame.payload.assign(body, len);
  pos_ += kFrameHeaderSize + len;
  return std::optional<WireFrame>(std::move(frame));
}

// --- Scalars / strings ---------------------------------------------------

void ByteWriter::PutU32(uint32_t v) { PutFixed32(&out_, v); }
void ByteWriter::PutU64(uint64_t v) { PutFixed64(&out_, v); }

void ByteWriter::PutString(std::string_view s) {
  PutU32(static_cast<uint32_t>(s.size()));
  out_.append(s.data(), s.size());
}

Result<uint8_t> ByteReader::GetU8() {
  if (remaining() < 1) {
    return Status::InvalidArgument("payload truncated reading u8");
  }
  return static_cast<uint8_t>(data_[pos_++]);
}

Result<uint32_t> ByteReader::GetU32() {
  if (remaining() < 4) {
    return Status::InvalidArgument("payload truncated reading u32");
  }
  uint32_t v = DecodeFixed32(data_.data() + pos_);
  pos_ += 4;
  return v;
}

Result<uint64_t> ByteReader::GetU64() {
  if (remaining() < 8) {
    return Status::InvalidArgument("payload truncated reading u64");
  }
  uint64_t v = DecodeFixed64(data_.data() + pos_);
  pos_ += 8;
  return v;
}

Result<std::string> ByteReader::GetString() {
  GLUENAIL_ASSIGN_OR_RETURN(uint32_t len, GetU32());
  if (remaining() < len) {
    return Status::InvalidArgument(
        StrCat("payload truncated reading ", len, "-byte string (",
               remaining(), " left)"));
  }
  std::string s(data_.substr(pos_, len));
  pos_ += len;
  return s;
}

// --- Command encoding ----------------------------------------------------

namespace {

void PutWireQueryOptions(ByteWriter* w, const WireQueryOptions& o) {
  w->PutU8(static_cast<uint8_t>(o.strategy));
  w->PutU64(o.timeout_millis);
  w->PutU64(o.max_tuples);
  w->PutU64(o.max_arena_bytes);
  w->PutU64(o.max_rows_scanned);
  w->PutU8(o.trace ? 1 : 0);
}

Status GetWireQueryOptions(ByteReader* r, WireQueryOptions* o) {
  GLUENAIL_ASSIGN_OR_RETURN(uint8_t strategy, r->GetU8());
  if (strategy > static_cast<uint8_t>(QueryStrategy::kMagic)) {
    return Status::InvalidArgument(
        StrCat("command: unknown query strategy ", strategy));
  }
  o->strategy = static_cast<QueryStrategy>(strategy);
  GLUENAIL_ASSIGN_OR_RETURN(o->timeout_millis, r->GetU64());
  GLUENAIL_ASSIGN_OR_RETURN(o->max_tuples, r->GetU64());
  GLUENAIL_ASSIGN_OR_RETURN(o->max_arena_bytes, r->GetU64());
  GLUENAIL_ASSIGN_OR_RETURN(o->max_rows_scanned, r->GetU64());
  GLUENAIL_ASSIGN_OR_RETURN(uint8_t trace, r->GetU8());
  o->trace = trace != 0;
  return Status::OK();
}

}  // namespace

std::string EncodeCommand(const Command& cmd) {
  ByteWriter w;
  w.PutU8(static_cast<uint8_t>(cmd.kind));
  switch (cmd.kind) {
    case CommandKind::kPing:
    case CommandKind::kSlowlog:
      break;
    case CommandKind::kQuery:
      w.PutString(cmd.goal);
      PutWireQueryOptions(&w, cmd.options);
      break;
    case CommandKind::kMutate:
      w.PutString(cmd.statement);
      w.PutString(cmd.batch.empty() ? std::string() : cmd.batch.Serialize());
      PutWireQueryOptions(&w, cmd.options);
      break;
    case CommandKind::kExplain:
      w.PutString(cmd.statement);
      w.PutU8(cmd.analyze ? 1 : 0);
      break;
    case CommandKind::kLoad:
      w.PutU8(static_cast<uint8_t>(cmd.load_target));
      w.PutString(cmd.path);
      w.PutString(cmd.source);
      break;
    case CommandKind::kSave:
      w.PutString(cmd.path);
      break;
    case CommandKind::kMetrics:
      w.PutU8(static_cast<uint8_t>(cmd.metrics_format));
      break;
  }
  return w.Take();
}

Result<Command> DecodeCommand(std::string_view payload) {
  ByteReader r(payload);
  GLUENAIL_ASSIGN_OR_RETURN(uint8_t kind, r.GetU8());
  if (kind > static_cast<uint8_t>(CommandKind::kSlowlog)) {
    return Status::InvalidArgument(
        StrCat("command: unknown kind byte ", kind));
  }
  Command cmd;
  cmd.kind = static_cast<CommandKind>(kind);
  switch (cmd.kind) {
    case CommandKind::kPing:
    case CommandKind::kSlowlog:
      break;
    case CommandKind::kQuery: {
      GLUENAIL_ASSIGN_OR_RETURN(cmd.goal, r.GetString());
      GLUENAIL_RETURN_NOT_OK(GetWireQueryOptions(&r, &cmd.options));
      break;
    }
    case CommandKind::kMutate: {
      GLUENAIL_ASSIGN_OR_RETURN(cmd.statement, r.GetString());
      GLUENAIL_ASSIGN_OR_RETURN(std::string batch_text, r.GetString());
      if (!batch_text.empty()) {
        GLUENAIL_ASSIGN_OR_RETURN(cmd.batch, MutationBatch::Parse(batch_text));
      }
      GLUENAIL_RETURN_NOT_OK(GetWireQueryOptions(&r, &cmd.options));
      break;
    }
    case CommandKind::kExplain: {
      GLUENAIL_ASSIGN_OR_RETURN(cmd.statement, r.GetString());
      GLUENAIL_ASSIGN_OR_RETURN(uint8_t analyze, r.GetU8());
      cmd.analyze = analyze != 0;
      break;
    }
    case CommandKind::kLoad: {
      GLUENAIL_ASSIGN_OR_RETURN(uint8_t target, r.GetU8());
      if (target > static_cast<uint8_t>(LoadTarget::kEdb)) {
        return Status::InvalidArgument(
            StrCat("command: unknown load target ", target));
      }
      cmd.load_target = static_cast<LoadTarget>(target);
      GLUENAIL_ASSIGN_OR_RETURN(cmd.path, r.GetString());
      GLUENAIL_ASSIGN_OR_RETURN(cmd.source, r.GetString());
      break;
    }
    case CommandKind::kSave: {
      GLUENAIL_ASSIGN_OR_RETURN(cmd.path, r.GetString());
      break;
    }
    case CommandKind::kMetrics: {
      GLUENAIL_ASSIGN_OR_RETURN(uint8_t format, r.GetU8());
      if (format > static_cast<uint8_t>(MetricsFormat::kJson)) {
        return Status::InvalidArgument(
            StrCat("command: unknown metrics format ", format));
      }
      cmd.metrics_format = static_cast<MetricsFormat>(format);
      break;
    }
  }
  if (!r.exhausted()) {
    return Status::InvalidArgument(
        StrCat("command: ", r.remaining(), " trailing bytes after payload"));
  }
  return cmd;
}

// --- Response encoding ---------------------------------------------------

std::string EncodeResponse(const Response& response, const TermPool& pool) {
  ByteWriter w;
  w.PutU8(static_cast<uint8_t>(WireErrorFromStatus(response.status.code())));
  w.PutString(response.status.ok() ? std::string_view()
                                   : response.status.message());
  w.PutString(response.text);
  w.PutU32(static_cast<uint32_t>(response.vars.size()));
  for (const std::string& v : response.vars) w.PutString(v);
  w.PutU32(static_cast<uint32_t>(response.rows.size()));
  std::string cell;
  for (const Tuple& row : response.rows) {
    w.PutU32(static_cast<uint32_t>(row.size()));
    for (TermId t : row) {
      cell.clear();
      pool.AppendTerm(t, &cell);
      w.PutString(cell);
    }
  }
  w.PutU64(response.applied);
  w.PutU64(response.inserted);
  w.PutU64(response.erased);
  return w.Take();
}

Result<WireResponse> DecodeResponse(std::string_view payload) {
  ByteReader r(payload);
  WireResponse out;
  GLUENAIL_ASSIGN_OR_RETURN(uint8_t wire_error, r.GetU8());
  GLUENAIL_ASSIGN_OR_RETURN(std::string message, r.GetString());
  StatusCode code = StatusCodeFromWireError(wire_error);
  out.status = code == StatusCode::kOk ? Status::OK()
                                       : Status(code, std::move(message));
  GLUENAIL_ASSIGN_OR_RETURN(out.text, r.GetString());
  GLUENAIL_ASSIGN_OR_RETURN(uint32_t nvars, r.GetU32());
  out.vars.reserve(std::min<size_t>(nvars, r.remaining() / 4 + 1));
  for (uint32_t i = 0; i < nvars; ++i) {
    GLUENAIL_ASSIGN_OR_RETURN(std::string v, r.GetString());
    out.vars.push_back(std::move(v));
  }
  GLUENAIL_ASSIGN_OR_RETURN(uint32_t nrows, r.GetU32());
  // Row/column counts are attacker-controlled until proven consistent
  // with the payload size; cap reserve() at what the bytes could hold.
  out.rows.reserve(std::min<size_t>(nrows, r.remaining() / 4 + 1));
  for (uint32_t i = 0; i < nrows; ++i) {
    GLUENAIL_ASSIGN_OR_RETURN(uint32_t ncols, r.GetU32());
    std::vector<std::string> row;
    row.reserve(std::min<size_t>(ncols, r.remaining() / 4 + 1));
    for (uint32_t c = 0; c < ncols; ++c) {
      GLUENAIL_ASSIGN_OR_RETURN(std::string cell, r.GetString());
      row.push_back(std::move(cell));
    }
    out.rows.push_back(std::move(row));
  }
  GLUENAIL_ASSIGN_OR_RETURN(out.applied, r.GetU64());
  GLUENAIL_ASSIGN_OR_RETURN(out.inserted, r.GetU64());
  GLUENAIL_ASSIGN_OR_RETURN(out.erased, r.GetU64());
  if (!r.exhausted()) {
    return Status::InvalidArgument(
        StrCat("response: ", r.remaining(), " trailing bytes after payload"));
  }
  return out;
}

}  // namespace gluenail
