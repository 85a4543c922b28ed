#include "src/server/client.h"

#include <arpa/inet.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <thread>
#include <utility>

#include "src/common/strings.h"

namespace gluenail {

namespace internal {

Result<int> DialOnce(const std::string& host, uint16_t port) {
  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* res = nullptr;
  int rc = ::getaddrinfo(host.c_str(), std::to_string(port).c_str(), &hints,
                         &res);
  if (rc != 0) {
    return Status::IoError(
        StrCat("resolve ", host, ": ", ::gai_strerror(rc)));
  }
  int fd = -1;
  Status last = Status::IoError(StrCat("no usable address for ", host));
  for (addrinfo* ai = res; ai != nullptr; ai = ai->ai_next) {
    fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) {
      last = Status::IoError(StrCat("socket(): ", std::strerror(errno)));
      continue;
    }
    if (::connect(fd, ai->ai_addr, ai->ai_addrlen) == 0) break;
    last = Status::IoError(StrCat("connect ", host, ":", port, ": ",
                                  std::strerror(errno)));
    ::close(fd);
    fd = -1;
  }
  ::freeaddrinfo(res);
  if (fd < 0) return last;
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

}  // namespace internal

namespace {

uint64_t Xorshift64(uint64_t* state) {
  uint64_t x = *state;
  x ^= x << 13;
  x ^= x >> 7;
  x ^= x << 17;
  return *state = x;
}

}  // namespace

namespace internal {

uint64_t SanitizeJitterSeed(uint64_t seed) {
  if (seed == 0) {
    // Zero is Xorshift64's fixed point: left there, every delay would use
    // the same degenerate draw. Any nonzero constant restores a real
    // sequence; the golden-ratio increment is the conventional choice.
    return 0x9e3779b97f4a7c15ULL;
  }
  return seed;
}

uint64_t DeriveJitterSeed(uint64_t jitter_seed, std::string_view host,
                          uint16_t port) {
  if (jitter_seed != 0) return jitter_seed;
  return SanitizeJitterSeed(Fnv1a64(host.data(), host.size()) ^ (port + 1));
}

}  // namespace internal

namespace {

/// Dials with the options' bounded backoff schedule.
Result<int> DialWithRetry(const std::string& host, uint16_t port,
                          const ClientOptions& options) {
  uint64_t rng =
      internal::DeriveJitterSeed(options.jitter_seed, host, port);
  Status last;
  for (int attempt = 0;; ++attempt) {
    Result<int> fd = internal::DialOnce(host, port);
    if (fd.ok()) return fd;
    last = fd.status();
    if (attempt >= options.max_retries) break;
    // Exponential backoff with jitter: delay doubles per attempt (capped),
    // then is scaled into [0.5, 1.0] so a fleet of clients desynchronizes.
    auto delay = options.backoff_initial * (int64_t{1} << std::min(attempt, 20));
    if (delay > options.backoff_max) delay = options.backoff_max;
    const int64_t us =
        std::chrono::duration_cast<std::chrono::microseconds>(delay).count();
    const int64_t jittered = us / 2 + static_cast<int64_t>(
                                          Xorshift64(&rng) % (us / 2 + 1));
    std::this_thread::sleep_for(std::chrono::microseconds(jittered));
  }
  if (options.max_retries > 0) {
    return last.WithContext(
        StrCat("after ", options.max_retries + 1, " attempts"));
  }
  return last;
}

}  // namespace

Client& Client::operator=(Client&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = std::exchange(other.fd_, -1);
    decoder_ = std::move(other.decoder_);
    host_ = std::move(other.host_);
    port_ = other.port_;
    options_ = other.options_;
  }
  return *this;
}

Result<Client> Client::Connect(const std::string& host, uint16_t port,
                               const ClientOptions& options) {
  GLUENAIL_ASSIGN_OR_RETURN(int fd, DialWithRetry(host, port, options));
  Client client;
  client.fd_ = fd;
  client.host_ = host;
  client.port_ = port;
  client.options_ = options;
  client.decoder_ = FrameDecoder(options.max_frame_payload);
  return client;
}

Status Client::Reconnect() {
  if (host_.empty()) {
    return Status::InvalidArgument("client was never connected");
  }
  Close();
  GLUENAIL_ASSIGN_OR_RETURN(fd_, DialWithRetry(host_, port_, options_));
  // Drop any half-received frame bytes, keeping the configured payload cap
  // (a default-constructed decoder would silently shrink it back).
  decoder_ = FrameDecoder(options_.max_frame_payload);
  return Status::OK();
}

void Client::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Result<WireResponse> Client::Execute(const Command& cmd) {
  if (fd_ < 0) return Status::InvalidArgument("client is not connected");
  if (!SendAll(fd_, EncodeFrame(FrameType::kCommand, EncodeCommand(cmd)))) {
    Status s = Status::IoError(StrCat("send: ", std::strerror(errno)));
    Close();
    return s;
  }
  char buf[64 << 10];
  while (true) {
    Result<std::optional<WireFrame>> next = decoder_.Next();
    if (!next.ok()) {
      Close();
      return next.status();
    }
    if (next->has_value()) {
      if ((*next)->type != FrameType::kResponse) {
        Close();
        return Status::InvalidArgument(
            "protocol: expected a response frame");
      }
      return DecodeResponse((*next)->payload);
    }
    ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
    if (n == 0) {
      Close();
      return Status::IoError("server closed the connection mid-response");
    }
    if (n < 0) {
      if (errno == EINTR) continue;
      Status s = Status::IoError(StrCat("recv: ", std::strerror(errno)));
      Close();
      return s;
    }
    decoder_.Feed(std::string_view(buf, static_cast<size_t>(n)));
  }
}

Status Client::Ping() {
  GLUENAIL_ASSIGN_OR_RETURN(WireResponse r, Execute(Command::Ping()));
  if (!r.ok()) return r.status;
  if (r.text != "pong") {
    return Status::Internal(StrCat("ping answered '", r.text, "'"));
  }
  return Status::OK();
}

}  // namespace gluenail
