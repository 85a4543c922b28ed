#include "src/server/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>

#include "src/common/strings.h"
#include "src/server/replication.h"

namespace gluenail {

namespace {

/// Creates a listening TCP socket on \p port (0 = ephemeral); returns the
/// fd and writes the actual port to \p bound_port.
Result<int> BindListen(uint16_t port, int backlog, uint16_t* bound_port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IoError(StrCat("socket(): ", std::strerror(errno)));
  }
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_ANY);
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    Status s = Status::IoError(
        StrCat("bind(port ", port, "): ", std::strerror(errno)));
    ::close(fd);
    return s;
  }
  if (::listen(fd, backlog) != 0) {
    Status s = Status::IoError(StrCat("listen(): ", std::strerror(errno)));
    ::close(fd);
    return s;
  }
  sockaddr_in actual{};
  socklen_t len = sizeof(actual);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&actual), &len) == 0) {
    *bound_port = ntohs(actual.sin_port);
  }
  return fd;
}

std::string HttpResponse(int code, std::string_view reason,
                         std::string_view content_type,
                         std::string_view body) {
  return StrCat("HTTP/1.0 ", code, " ", reason,
                "\r\nContent-Type: ", content_type,
                "\r\nContent-Length: ", body.size(),
                "\r\nConnection: close\r\n\r\n", body);
}

}  // namespace

Server::Server(Engine* engine, ServerOptions options)
    : engine_(engine), options_(options) {}

Server::~Server() { Stop(); }

Status Server::Start() {
  if (running_.load(std::memory_order_acquire)) {
    return Status::InvalidArgument("server already running");
  }
  GLUENAIL_ASSIGN_OR_RETURN(
      listen_fd_, BindListen(options_.port, options_.backlog, &port_));
  if (options_.admin_port >= 0) {
    Result<int> admin = BindListen(static_cast<uint16_t>(options_.admin_port),
                                   options_.backlog, &admin_port_);
    if (!admin.ok()) {
      ::close(listen_fd_);
      listen_fd_ = -1;
      return admin.status();
    }
    admin_fd_ = *admin;
  }
  // Mirror server activity into the engine's registry so the admin
  // /metrics surface covers the service layer too. Handles are owned by
  // the registry (safe past this Server's lifetime); intended deployment
  // is one Server per Engine.
  MetricsRegistry& reg = engine_->metrics();
  m_connections_ = reg.RegisterCounter(
      "gluenail_server_connections_total", "client connections accepted");
  m_commands_ = reg.RegisterCounter("gluenail_server_commands_total",
                                    "wire commands served");
  m_proto_errors_ =
      reg.RegisterCounter("gluenail_server_protocol_errors_total",
                          "connections dropped on framing/decode errors");
  m_live_ = reg.RegisterGauge("gluenail_server_connections_live",
                              "currently connected clients");
  m_rejected_ = reg.RegisterCounter(
      "gluenail_server_rejected_connections_total",
      "connections turned away by max_connections admission control");
  m_repl_subscribers_ = reg.RegisterGauge(
      "gluenail_repl_subscribers", "replicas currently streaming the WAL");
  m_repl_shipped_ =
      reg.RegisterCounter("gluenail_repl_records_shipped_total",
                          "WAL batch + snapshot records shipped to replicas");
  m_repl_snapshots_ = reg.RegisterCounter(
      "gluenail_repl_snapshots_shipped_total",
      "checkpoint images shipped to replicas that fell behind the log");
  m_repl_heartbeats_ =
      reg.RegisterCounter("gluenail_repl_heartbeats_total",
                          "heartbeat frames sent to caught-up replicas");
  running_.store(true, std::memory_order_release);
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  if (admin_fd_ >= 0) {
    admin_thread_ = std::thread([this] { AdminLoop(); });
  }
  return Status::OK();
}

void Server::Stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) {
    // Not started or already stopped; still join any leftover threads.
    if (accept_thread_.joinable()) accept_thread_.join();
    if (admin_thread_.joinable()) admin_thread_.join();
    return;
  }
  // shutdown(2) unblocks accept(2) in both loops; the fds are closed only
  // after the loops joined, so no loop ever races a reused descriptor.
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  if (admin_fd_ >= 0) ::shutdown(admin_fd_, SHUT_RDWR);
  if (accept_thread_.joinable()) accept_thread_.join();
  if (admin_thread_.joinable()) admin_thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  if (admin_fd_ >= 0) {
    ::close(admin_fd_);
    admin_fd_ = -1;
  }
  // Drain the workers: shutting down a connection's read side makes its
  // next recv() return 0, so each worker finishes the command it is
  // executing (response included), then exits; join waits for that.
  std::vector<std::unique_ptr<Connection>> conns;
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    conns.swap(conns_);
  }
  for (auto& conn : conns) {
    ::shutdown(conn->fd, SHUT_RD);
  }
  for (auto& conn : conns) {
    if (conn->worker.joinable()) conn->worker.join();
    ::close(conn->fd);
  }
}

void Server::ReapFinishedLocked() {
  for (auto it = conns_.begin(); it != conns_.end();) {
    if ((*it)->done.load(std::memory_order_acquire)) {
      if ((*it)->worker.joinable()) (*it)->worker.join();
      ::close((*it)->fd);
      it = conns_.erase(it);
    } else {
      ++it;
    }
  }
}

void Server::AcceptLoop() {
  while (running_.load(std::memory_order_acquire)) {
    int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // listening socket closed (Stop) or fatal
    }
    if (!running_.load(std::memory_order_acquire)) {
      ::close(fd);
      return;
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    bool reject = false;
    {
      std::lock_guard<std::mutex> lock(conns_mu_);
      ReapFinishedLocked();
      if (options_.max_connections > 0 &&
          conns_.size() >= static_cast<size_t>(options_.max_connections)) {
        reject = true;
      } else {
        connections_accepted_.fetch_add(1, std::memory_order_relaxed);
        m_connections_->Add(1);
        auto conn = std::make_unique<Connection>();
        conn->fd = fd;
        Connection* raw = conn.get();
        conn->worker = std::thread([this, raw] { ServeConnection(raw); });
        conns_.push_back(std::move(conn));
      }
    }
    if (!reject) continue;
    // Admission control: answer with a clean wire-level error (so the
    // client sees *why* instead of a bare RST) and close. The rejected
    // socket never gets a worker thread or a Session — and the courtesy
    // response is written on a throwaway thread, never on this one: a
    // peer that fills its receive window and stops reading would
    // otherwise park the accept loop inside send() (holding conns_mu_,
    // pre-fix), wedging every future connection behind one bad client.
    connections_rejected_.fetch_add(1, std::memory_order_relaxed);
    m_rejected_->Add(1);
    std::string frame =
        EncodeFrame(FrameType::kResponse,
                    EncodeResponse(Response::Error(Status::ResourceExhausted(
                                       StrCat("server at max_connections=",
                                              options_.max_connections,
                                              "; retry later"))),
                                   engine_->terms()));
    std::thread([fd, frame = std::move(frame),
                 stall = options_.reject_send_stall_for_testing] {
      // Best effort, time-bounded: the peer was told to go away; if it
      // will not even read that, give up after 200ms.
      timeval tv{};
      tv.tv_usec = 200 * 1000;
      ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
      if (stall) stall();
      SendAll(fd, frame);
      ::shutdown(fd, SHUT_RDWR);
      ::close(fd);
    }).detach();
  }
}

void Server::ServeConnection(Connection* conn) {
  connections_live_.fetch_add(1, std::memory_order_relaxed);
  m_live_->Add(1);
  Session session = engine_->OpenSession();
  FrameDecoder decoder(options_.max_frame_payload);
  char buf[64 << 10];
  bool alive = true;
  while (alive) {
    ssize_t n = ::recv(conn->fd, buf, sizeof(buf), 0);
    if (n == 0) break;  // peer closed (or Stop shut the read side down)
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    decoder.Feed(std::string_view(buf, static_cast<size_t>(n)));
    while (alive) {
      Result<std::optional<WireFrame>> next = decoder.Next();
      if (!next.ok()) {
        // Framing is lost: answer with the error so the client can log
        // something meaningful, then drop the connection.
        protocol_errors_.fetch_add(1, std::memory_order_relaxed);
        m_proto_errors_->Add(1);
        SendAll(conn->fd,
                EncodeFrame(FrameType::kResponse,
                            EncodeResponse(Response::Error(next.status()),
                                           engine_->terms())));
        alive = false;
        break;
      }
      if (!next->has_value()) break;  // need more bytes
      if ((*next)->type == FrameType::kReplSubscribe) {
        // The connection changes roles: from here on it is a one-way
        // record stream driven by this worker until the replica hangs up
        // or the server stops.
        ServeReplicationSubscriber(conn, (*next)->payload);
        alive = false;
        break;
      }
      Response response;
      if ((*next)->type != FrameType::kCommand) {
        protocol_errors_.fetch_add(1, std::memory_order_relaxed);
        m_proto_errors_->Add(1);
        response = Response::Error(Status::InvalidArgument(
            "protocol: expected a command frame"));
        alive = false;
      } else {
        Result<Command> cmd = DecodeCommand((*next)->payload);
        if (!cmd.ok()) {
          protocol_errors_.fetch_add(1, std::memory_order_relaxed);
          m_proto_errors_->Add(1);
          response = Response::Error(cmd.status());
          alive = false;  // cannot trust the stream past a bad payload
        } else {
          response = session.Execute(*cmd);
          commands_served_.fetch_add(1, std::memory_order_relaxed);
          m_commands_->Add(1);
        }
      }
      if (!SendAll(conn->fd, EncodeFrame(FrameType::kResponse,
                                         EncodeResponse(response,
                                                        engine_->terms())))) {
        alive = false;
      }
    }
  }
  ::shutdown(conn->fd, SHUT_RDWR);  // fd itself is closed by reap/Stop
  connections_live_.fetch_sub(1, std::memory_order_relaxed);
  m_live_->Add(-1);
  conn->done.store(true, std::memory_order_release);
}

void Server::ServeReplicationSubscriber(Connection* conn,
                                        std::string_view subscribe_payload) {
  Result<uint64_t> from = DecodeReplSubscribe(subscribe_payload);
  Status refuse;
  if (!from.ok()) {
    refuse = from.status();
  } else if (engine_->replica()) {
    refuse = Status::FailedPrecondition(
        "this server is itself a replica; subscribe to the primary");
  }
  uint64_t next_lsn = from.ok() && *from != 0 ? *from : 1;
  // Every poll reads the log open at that moment: a Recover on the
  // primary replaces the log, and the first poll finds whether one exists.
  Result<Wal::TailChunk> first =
      refuse.ok() ? engine_->ReadWalTail(next_lsn) : refuse;
  if (!first.ok()) {
    SendAll(conn->fd,
            EncodeFrame(FrameType::kResponse,
                        EncodeResponse(Response::Error(first.status()),
                                       engine_->terms())));
    return;
  }
  // A replica that stops reading must not pin this worker past Stop():
  // bound each send, and poll running_ between rounds.
  timeval tv{};
  tv.tv_sec = 1;
  ::setsockopt(conn->fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
  m_repl_subscribers_->Add(1);
  uint64_t last_heartbeat = UINT64_MAX;  // forces one initial heartbeat
  bool ok = true;
  for (Result<Wal::TailChunk> tail = std::move(first);
       running_.load(std::memory_order_acquire);
       tail = engine_->ReadWalTail(next_lsn)) {
    if (!tail.ok()) break;
    if (next_lsn < tail->start_lsn) {
      // The log was rotated past the replica's position; ship the
      // checkpoint image the rotation folded that prefix into.
      Result<CheckpointImage> img = engine_->ReadCheckpointImage();
      if (!img.ok()) break;
      if (!SendAll(conn->fd,
                   EncodeFrame(FrameType::kReplRecord,
                               EncodeReplSnapshot(img->covers_lsn,
                                                  img->bytes)))) {
        break;
      }
      m_repl_snapshots_->Add(1);
      m_repl_shipped_->Add(1);
      next_lsn = img->covers_lsn + 1;
      continue;
    }
    bool progressed = false;
    for (const Wal::TailRecord& rec : tail->records) {
      if (!SendAll(conn->fd,
                   EncodeFrame(FrameType::kReplRecord,
                               EncodeReplBatch(rec.lsn, rec.payload)))) {
        ok = false;
        break;
      }
      m_repl_shipped_->Add(1);
      next_lsn = rec.lsn + 1;
      progressed = true;
    }
    if (!ok) break;
    if (progressed) continue;
    // Caught up: tell the replica how far the primary's durable
    // watermark is (it measures lag from this), then idle briefly.
    if (tail->durable_lsn != last_heartbeat) {
      if (!SendAll(conn->fd,
                   EncodeFrame(FrameType::kReplHeartbeat,
                               EncodeReplHeartbeat(tail->durable_lsn)))) {
        break;
      }
      m_repl_heartbeats_->Add(1);
      last_heartbeat = tail->durable_lsn;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  m_repl_subscribers_->Add(-1);
}

void Server::AdminLoop() {
  while (running_.load(std::memory_order_acquire)) {
    int fd = ::accept(admin_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;
    }
    // Admin requests are tiny and the handlers are O(metrics dump);
    // serving them inline keeps the listener single-threaded and simple.
    ServeAdminConnection(fd);
    ::close(fd);
  }
}

void Server::ServeAdminConnection(int fd) {
  std::string request;
  char buf[4096];
  while (request.size() < (16u << 10) &&
         request.find("\r\n\r\n") == std::string::npos &&
         request.find("\n\n") == std::string::npos) {
    ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      break;
    }
    request.append(buf, static_cast<size_t>(n));
  }
  size_t eol = request.find_first_of("\r\n");
  std::string line =
      eol == std::string::npos ? request : request.substr(0, eol);
  // "GET /path HTTP/1.x"
  if (line.size() < 5 || line.substr(0, 4) != "GET ") {
    SendAll(fd, HttpResponse(405, "Method Not Allowed", "text/plain",
                             "only GET is served here\n"));
    return;
  }
  std::string target = line.substr(4);
  size_t space = target.find(' ');
  if (space != std::string::npos) target = target.substr(0, space);
  std::string path = target, query;
  size_t qmark = target.find('?');
  if (qmark != std::string::npos) {
    path = target.substr(0, qmark);
    query = target.substr(qmark + 1);
  }

  if (path == "/healthz") {
    std::string body = "ok\n";
    if (engine_->replica()) {
      // Replication lag at a glance, curl-able without a metrics scrape.
      body = StrCat("ok\nrole=replica\napplied_lsn=",
                    engine_->replica_applied_lsn(), "\nprimary_durable_lsn=",
                    engine_->replica_primary_lsn(), "\nlag=",
                    engine_->replica_lag(), "\n");
    }
    SendAll(fd, HttpResponse(200, "OK", "text/plain", body));
  } else if (path == "/metrics") {
    bool json = query.find("format=json") != std::string::npos;
    SendAll(fd, HttpResponse(
                    200, "OK",
                    json ? "application/json"
                         : "text/plain; version=0.0.4; charset=utf-8",
                    engine_->DumpMetrics(json ? MetricsFormat::kJson
                                              : MetricsFormat::kPrometheus)));
  } else if (path == "/slowlog") {
    SendAll(fd, HttpResponse(200, "OK", "text/plain",
                             engine_->slow_query_log().Render()));
  } else {
    SendAll(fd, HttpResponse(404, "Not Found", "text/plain",
                             StrCat("no route for ", path, "\n")));
  }
}

}  // namespace gluenail
