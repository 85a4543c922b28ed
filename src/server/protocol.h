/// \file protocol.h
/// \brief The Glue-Nail wire protocol: checksummed length-prefixed frames
/// carrying encoded Commands and Responses.
///
/// Frame layout (all integers little-endian; see docs/PROTOCOL.md):
///
///     offset  size  field
///     0       4     magic "GNP1"
///     4       1     frame type (1 = command, 2 = response)
///     5       4     payload length N (u32)
///     9       8     FNV-1a 64 checksum of the payload bytes (u64)
///     17      N     payload
///
/// The checksum reuses the same FNV-1a discipline the v2 EDB file format
/// and MutationBatch use, so every byte the engine persists or ships is
/// integrity-checked the same way. The decoder validates magic, bounds
/// the declared length *before* allocating, and verifies the checksum
/// before handing the payload up — a torn, truncated, or bit-flipped
/// frame surfaces as a Status, never as a bad parse downstream.
///
/// Payload encodings are flat binary: u8/u32/u64 little-endian scalars
/// and u32-length-prefixed strings (ByteWriter/ByteReader). Query result
/// rows cross the wire as term *text* per cell (`f(a,1)`), because TermIds
/// are meaningless outside the pool that interned them.

#ifndef GLUENAIL_SERVER_PROTOCOL_H_
#define GLUENAIL_SERVER_PROTOCOL_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/api/command.h"
#include "src/common/result.h"

namespace gluenail {

// --- Framing -------------------------------------------------------------

enum class FrameType : uint8_t {
  kCommand = 1,
  kResponse = 2,
  // Log-shipping replication (src/server/replication.h). A replica opens a
  // plain protocol connection and sends one kReplSubscribe; the primary
  // answers with a one-way stream of kReplRecord / kReplHeartbeat frames.
  kReplSubscribe = 3,  ///< replica -> primary: {u8 version, u64 from_lsn}
  kReplRecord = 4,     ///< primary -> replica: a batch record or snapshot
  kReplHeartbeat = 5,  ///< primary -> replica: {u64 durable_lsn} keepalive
};

inline constexpr char kFrameMagic[4] = {'G', 'N', 'P', '1'};
inline constexpr size_t kFrameHeaderSize = 4 + 1 + 4 + 8;
/// Frames whose header declares a payload larger than this are rejected
/// before any allocation happens (a malicious or corrupt 4-byte length
/// must not become a multi-gigabyte resize).
inline constexpr size_t kDefaultMaxPayload = 64u << 20;  // 64 MiB

struct WireFrame {
  FrameType type;
  std::string payload;
};

/// Wraps \p payload in a checksummed frame.
std::string EncodeFrame(FrameType type, std::string_view payload);

/// Writes all of \p data to socket \p fd; false on a broken connection,
/// with errno saying why. MSG_NOSIGNAL, so a peer that hung up surfaces as
/// EPIPE, not a process-killing SIGPIPE.
bool SendAll(int fd, std::string_view data);

/// Incremental frame parser for a byte stream. Feed() arbitrary chunks
/// (as they arrive from a socket); Next() yields completed frames,
/// std::nullopt when more bytes are needed, or an error for an
/// unrecoverable stream (bad magic, oversized length, bad checksum) —
/// after an error the connection must be dropped, since frame boundaries
/// are lost.
class FrameDecoder {
 public:
  explicit FrameDecoder(size_t max_payload = kDefaultMaxPayload)
      : max_payload_(max_payload) {}

  void Feed(std::string_view bytes) { buf_.append(bytes.data(), bytes.size()); }

  Result<std::optional<WireFrame>> Next();

  /// Bytes buffered but not yet consumed by a completed frame.
  size_t buffered() const { return buf_.size() - pos_; }

 private:
  size_t max_payload_;
  std::string buf_;
  size_t pos_ = 0;  ///< consumed prefix of buf_
};

// --- Payload scalar/string encoding --------------------------------------

class ByteWriter {
 public:
  void PutU8(uint8_t v) { out_.push_back(static_cast<char>(v)); }
  void PutU32(uint32_t v);
  void PutU64(uint64_t v);
  /// u32 length + raw bytes.
  void PutString(std::string_view s);

  std::string Take() { return std::move(out_); }
  const std::string& bytes() const { return out_; }

 private:
  std::string out_;
};

/// Bounds-checked reader over one payload; every getter fails (rather
/// than reading past the end) on truncated input.
class ByteReader {
 public:
  explicit ByteReader(std::string_view data) : data_(data) {}

  Result<uint8_t> GetU8();
  Result<uint32_t> GetU32();
  Result<uint64_t> GetU64();
  Result<std::string> GetString();

  bool exhausted() const { return pos_ == data_.size(); }
  size_t remaining() const { return data_.size() - pos_; }

 private:
  std::string_view data_;
  size_t pos_ = 0;
};

// --- Command / Response payloads -----------------------------------------

/// A Response as decoded on the *client* side of the wire: rows come back
/// as term text per cell (the server's TermIds do not survive the trip).
struct WireResponse {
  Status status;
  std::vector<std::string> vars;
  std::vector<std::vector<std::string>> rows;
  std::string text;
  uint64_t applied = 0;
  uint64_t inserted = 0;
  uint64_t erased = 0;

  bool ok() const { return status.ok(); }
};

std::string EncodeCommand(const Command& cmd);
Result<Command> DecodeCommand(std::string_view payload);

/// \p pool renders the response's Tuples to term text (the serving
/// engine's pool).
std::string EncodeResponse(const Response& response, const TermPool& pool);
Result<WireResponse> DecodeResponse(std::string_view payload);

}  // namespace gluenail

#endif  // GLUENAIL_SERVER_PROTOCOL_H_
