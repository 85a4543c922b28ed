#include "src/server/replication.h"

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <utility>

#include "src/common/strings.h"
#include "src/server/client.h"
#include "src/storage/mutation_batch.h"

namespace gluenail {

// --- Payload codecs ------------------------------------------------------

std::string EncodeReplSubscribe(uint64_t from_lsn) {
  ByteWriter w;
  w.PutU8(kReplProtocolVersion);
  w.PutU64(from_lsn);
  return w.Take();
}

Result<uint64_t> DecodeReplSubscribe(std::string_view payload) {
  ByteReader r(payload);
  GLUENAIL_ASSIGN_OR_RETURN(uint8_t version, r.GetU8());
  if (version != kReplProtocolVersion) {
    return Status::InvalidArgument(
        StrCat("replication protocol version ", static_cast<int>(version),
               " is not supported (this side speaks ",
               static_cast<int>(kReplProtocolVersion), ")"));
  }
  GLUENAIL_ASSIGN_OR_RETURN(uint64_t from_lsn, r.GetU64());
  if (!r.exhausted()) {
    return Status::InvalidArgument("trailing bytes after subscribe payload");
  }
  return from_lsn;
}

std::string EncodeReplBatch(uint64_t lsn, std::string_view batch_text) {
  ByteWriter w;
  w.PutU8(static_cast<uint8_t>(ReplRecordKind::kBatch));
  w.PutU64(lsn);
  w.PutString(batch_text);
  return w.Take();
}

std::string EncodeReplSnapshot(uint64_t covers_lsn, std::string_view image) {
  ByteWriter w;
  w.PutU8(static_cast<uint8_t>(ReplRecordKind::kSnapshot));
  w.PutU64(covers_lsn);
  w.PutString(image);
  return w.Take();
}

Result<ReplRecord> DecodeReplRecord(std::string_view payload) {
  ByteReader r(payload);
  GLUENAIL_ASSIGN_OR_RETURN(uint8_t kind, r.GetU8());
  if (kind > static_cast<uint8_t>(ReplRecordKind::kSnapshot)) {
    return Status::InvalidArgument(
        StrCat("unknown replication record kind ", static_cast<int>(kind)));
  }
  ReplRecord rec;
  rec.kind = static_cast<ReplRecordKind>(kind);
  GLUENAIL_ASSIGN_OR_RETURN(rec.lsn, r.GetU64());
  GLUENAIL_ASSIGN_OR_RETURN(rec.body, r.GetString());
  if (!r.exhausted()) {
    return Status::InvalidArgument("trailing bytes after replication record");
  }
  return rec;
}

std::string EncodeReplHeartbeat(uint64_t durable_lsn) {
  ByteWriter w;
  w.PutU64(durable_lsn);
  return w.Take();
}

Result<uint64_t> DecodeReplHeartbeat(std::string_view payload) {
  ByteReader r(payload);
  GLUENAIL_ASSIGN_OR_RETURN(uint64_t durable_lsn, r.GetU64());
  if (!r.exhausted()) {
    return Status::InvalidArgument("trailing bytes after heartbeat");
  }
  return durable_lsn;
}

// --- Replica-side client -------------------------------------------------

ReplicationClient::ReplicationClient(Engine* engine,
                                     ReplicationClientOptions options)
    : engine_(engine), options_(std::move(options)) {}

ReplicationClient::~ReplicationClient() { Stop(); }

Status ReplicationClient::Start() {
  if (engine_ == nullptr || !engine_->replica()) {
    return Status::InvalidArgument(
        "ReplicationClient needs an engine with EngineOptions::replica set");
  }
  if (running_.exchange(true, std::memory_order_acq_rel)) {
    return Status::InvalidArgument("replication client already running");
  }
  thread_ = std::thread([this] { Run(); });
  return Status::OK();
}

void ReplicationClient::Stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) {
    if (thread_.joinable()) thread_.join();
    return;
  }
  {
    // Interrupt a backoff sleep and a blocking recv (shutdown under mu_
    // so we never race the tailing thread closing the fd).
    std::lock_guard<std::mutex> lock(mu_);
    int fd = fd_.load(std::memory_order_acquire);
    if (fd >= 0) ::shutdown(fd, SHUT_RDWR);
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

void ReplicationClient::Run() {
  auto delay = options_.reconnect_initial;
  bool first_attempt = true;
  while (running_.load(std::memory_order_acquire)) {
    if (!first_attempt) {
      reconnects_.fetch_add(1, std::memory_order_relaxed);
    }
    first_attempt = false;
    bool progressed = false;
    Status s = StreamOnce(&progressed);
    (void)s;  // stream errors are retried; stats tell the story
    if (!running_.load(std::memory_order_acquire)) break;
    if (progressed) delay = options_.reconnect_initial;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait_for(lock, delay, [this] {
        return !running_.load(std::memory_order_acquire);
      });
    }
    delay = std::min(delay * 2, options_.reconnect_max);
  }
}

Status ReplicationClient::StreamOnce(bool* progressed) {
  GLUENAIL_ASSIGN_OR_RETURN(int fd,
                            internal::DialOnce(options_.host, options_.port));
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!running_.load(std::memory_order_acquire)) {
      ::close(fd);
      return Status::OK();
    }
    fd_.store(fd, std::memory_order_release);
  }
  // A short receive timeout keeps the loop re-checking running_, so
  // Stop() never waits on a silent primary.
  timeval tv{};
  tv.tv_usec = 250 * 1000;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));

  auto finish = [this, fd](Status s) {
    std::lock_guard<std::mutex> lock(mu_);
    fd_.store(-1, std::memory_order_release);
    ::close(fd);
    return s;
  };

  // Resume from exactly after the last applied batch; the primary
  // re-ships everything from there.
  const uint64_t from = engine_->replica_applied_lsn() + 1;
  if (!SendAll(fd, EncodeFrame(FrameType::kReplSubscribe,
                                 EncodeReplSubscribe(from)))) {
    return finish(Status::IoError("subscribe: primary hung up"));
  }

  FrameDecoder decoder(options_.max_frame_payload);
  char buf[64 << 10];
  while (running_.load(std::memory_order_acquire)) {
    Result<std::optional<WireFrame>> next = decoder.Next();
    if (!next.ok()) {
      // Torn or corrupt stream: drop the connection and resubscribe from
      // the applied watermark — nothing partial was applied.
      return finish(next.status());
    }
    if (next->has_value()) {
      WireFrame& frame = **next;
      switch (frame.type) {
        case FrameType::kReplRecord: {
          Result<ReplRecord> rec = DecodeReplRecord(frame.payload);
          if (!rec.ok()) return finish(rec.status());
          // Arena growth inside the apply path reports OOM (real or
          // injected) as bad_alloc; surface it as a retryable stream
          // error — the applied watermark did not advance, so the next
          // subscription re-ships the same record.
          try {
            if (rec->kind == ReplRecordKind::kBatch) {
              Result<MutationBatch> batch = MutationBatch::Parse(rec->body);
              if (!batch.ok()) return finish(batch.status());
              Status applied =
                  engine_->ApplyReplicatedBatch(rec->lsn, *batch);
              if (!applied.ok()) return finish(applied);
              batches_applied_.fetch_add(1, std::memory_order_relaxed);
            } else {
              Status reset = engine_->ResetFromCheckpointImage(rec->lsn,
                                                               rec->body);
              if (!reset.ok()) return finish(reset);
              snapshots_applied_.fetch_add(1, std::memory_order_relaxed);
            }
          } catch (const std::bad_alloc&) {
            return finish(Status::ResourceExhausted(
                "allocation failed applying a replicated record"));
          }
          // A shipped record is durable on the primary by contract.
          engine_->set_replica_primary_lsn(rec->lsn);
          *progressed = true;
          continue;
        }
        case FrameType::kReplHeartbeat: {
          Result<uint64_t> durable = DecodeReplHeartbeat(frame.payload);
          if (!durable.ok()) return finish(durable.status());
          engine_->set_replica_primary_lsn(*durable);
          continue;
        }
        case FrameType::kResponse: {
          // The primary refused the subscription (bad version, no WAL,
          // itself a replica, ...) with an ordinary error response.
          Result<WireResponse> resp = DecodeResponse(frame.payload);
          if (!resp.ok()) return finish(resp.status());
          return finish(resp->status.ok()
                            ? Status::InvalidArgument(
                                  "unexpected response on the "
                                  "replication stream")
                            : resp->status);
        }
        default:
          return finish(Status::InvalidArgument(
              "unexpected frame type on the replication stream"));
      }
    }
    ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n == 0) {
      return finish(Status::IoError("primary closed the stream"));
    }
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) continue;  // timeout
      return finish(
          Status::IoError(StrCat("recv: ", std::strerror(errno))));
    }
    decoder.Feed(std::string_view(buf, static_cast<size_t>(n)));
  }
  return finish(Status::OK());
}

}  // namespace gluenail
