#include "net/socket_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>

namespace polysse {

namespace {

Status Errno(const std::string& what) {
  return Status::Unavailable(what + ": " + std::strerror(errno));
}

void CloseFd(int fd) {
  if (fd >= 0) ::close(fd);
}

/// epoll user-data markers for the two non-connection descriptors.
constexpr uint64_t kListenMarker = 0;
constexpr uint64_t kWakeMarker = ~0ull;

bool IsRequestKind(uint8_t kind) {
  return kind >= static_cast<uint8_t>(MessageKind::kEval) &&
         kind <= static_cast<uint8_t>(MessageKind::kPing);
}

/// Frames a dispatch outcome as the response to request `tag`.
std::vector<uint8_t> FrameReply(uint32_t tag,
                                const Result<std::vector<uint8_t>>& reply) {
  std::vector<uint8_t> frame;
  uint8_t status;
  std::span<const uint8_t> payload;
  if (reply.ok()) {
    status = static_cast<uint8_t>(StatusCode::kOk);
    payload = std::span<const uint8_t>(reply->data(), reply->size());
  } else {
    status = static_cast<uint8_t>(reply.status().code());
    const std::string& msg = reply.status().message();
    payload = std::span<const uint8_t>(
        reinterpret_cast<const uint8_t*>(msg.data()), msg.size());
  }
  AppendTaggedFrame(&frame, status, tag, payload);
  return frame;
}

}  // namespace

Result<std::unique_ptr<SocketServer>> SocketServer::Listen(
    ServerHandler* handler, uint16_t port) {
  return Listen(handler, port, Options());
}

Result<std::unique_ptr<SocketServer>> SocketServer::Listen(
    ServerHandler* handler, uint16_t port, Options options) {
  if (handler == nullptr)
    return Status::InvalidArgument("SocketServer needs a handler");
  int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
  if (fd < 0) return Errno("socket");
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    Status s = Errno("bind");
    CloseFd(fd);
    return s;
  }
  if (::listen(fd, 128) != 0) {
    Status s = Errno("listen");
    CloseFd(fd);
    return s;
  }
  socklen_t addr_len = sizeof addr;
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &addr_len) != 0) {
    Status s = Errno("getsockname");
    CloseFd(fd);
    return s;
  }
  auto server = std::unique_ptr<SocketServer>(
      new SocketServer(handler, fd, ntohs(addr.sin_port), options));
  if (server->epoll_fd_ < 0 || server->wake_fd_ < 0)
    return Status::Unavailable("epoll/eventfd setup failed");
  return server;
}

SocketServer::SocketServer(ServerHandler* handler, int listen_fd,
                           uint16_t port, Options options)
    : handler_(handler),
      options_(options),
      listen_fd_(listen_fd),
      port_(port) {
  epoll_fd_ = ::epoll_create1(0);
  wake_fd_ = ::eventfd(0, EFD_NONBLOCK);
  if (epoll_fd_ < 0 || wake_fd_ < 0) return;
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = kListenMarker;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev);
  ev.data.u64 = kWakeMarker;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev);
  workers_ = std::make_unique<ThreadPool>(
      options_.worker_threads == 0 ? 1 : options_.worker_threads);
  loop_thread_ = std::thread([this] { LoopThread(); });
}

SocketServer::~SocketServer() {
  Stop();
  CloseFd(wake_fd_);
  CloseFd(epoll_fd_);
}

void SocketServer::Stop() {
  std::call_once(stop_once_, [this] {
    stop_requested_.store(true, std::memory_order_release);
    uint64_t one = 1;
    [[maybe_unused]] ssize_t n = ::write(wake_fd_, &one, sizeof one);
    if (loop_thread_.joinable()) loop_thread_.join();
    // Workers may still be finishing dispatches whose connections are
    // already gone; join them before their completion sink goes away.
    workers_.reset();
    std::lock_guard<std::mutex> lock(done_mu_);
    done_.clear();
  });
}

bool SocketServer::FullyDrained() const {
  for (const auto& [id, conn] : conns_) {
    if (conn->inflight > 0 || !conn->out.empty()) return false;
  }
  return true;
}

void SocketServer::LoopThread() {
  using Clock = std::chrono::steady_clock;
  bool stopping = false;
  Clock::time_point drain_deadline{};
  epoll_event events[64];
  for (;;) {
    const int timeout_ms = stopping ? 10 : -1;
    int n = ::epoll_wait(epoll_fd_, events, 64, timeout_ms);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    for (int i = 0; i < n; ++i) {
      const uint64_t marker = events[i].data.u64;
      if (marker == kWakeMarker) {
        uint64_t drained;
        while (::read(wake_fd_, &drained, sizeof drained) > 0) {
        }
        DrainCompletions();
        continue;
      }
      if (marker == kListenMarker) {
        if (!stopping) HandleAccepts();
        continue;
      }
      auto it = conns_.find(marker);
      if (it == conns_.end()) continue;  // closed earlier this batch
      Connection* conn = it->second.get();
      if (events[i].events & (EPOLLHUP | EPOLLERR)) {
        // Peer vanished: nothing more can be written; drop everything.
        if (conn->inflight == 0) {
          CloseConnection(conn->id);
          continue;
        }
        conn->read_closed = true;  // completions will find nothing to write
        conn->out.clear();
        conn->out_off = 0;
        UpdateInterest(conn);
        continue;
      }
      if (events[i].events & EPOLLIN) HandleReadable(conn);
      it = conns_.find(marker);  // HandleReadable may have closed it
      if (it == conns_.end()) continue;
      if (events[i].events & EPOLLOUT) HandleWritable(it->second.get());
    }

    if (!stopping && stop_requested_.load(std::memory_order_acquire)) {
      stopping = true;
      drain_deadline = Clock::now() + std::chrono::milliseconds(
                                          options_.drain_timeout_ms);
      // Stop accepting and stop reading; anything already dispatched (or
      // fully received and queued) still gets its response written.
      epoll_event ev{};
      ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, listen_fd_, &ev);
      CloseFd(listen_fd_);
      listen_fd_ = -1;
      for (auto& [id, conn] : conns_) {
        if (!conn->read_closed) {
          ::shutdown(conn->fd, SHUT_RD);
          conn->read_closed = true;
          conn->in.clear();  // partial frames can never complete now
          UpdateInterest(conn.get());
        }
      }
    }
    if (stopping && (FullyDrained() || Clock::now() >= drain_deadline)) break;
  }
  std::vector<uint64_t> ids;
  ids.reserve(conns_.size());
  for (const auto& [id, conn] : conns_) ids.push_back(id);
  for (uint64_t id : ids) CloseConnection(id);
  CloseFd(listen_fd_);
  listen_fd_ = -1;
}

void SocketServer::HandleAccepts() {
  for (;;) {
    int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK);
    if (fd < 0) return;  // EAGAIN, or the listen socket went away
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    connections_accepted_.fetch_add(1, std::memory_order_relaxed);
    auto conn = std::make_unique<Connection>();
    conn->fd = fd;
    conn->id = next_conn_id_++;
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = conn->id;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
      CloseFd(fd);
      continue;
    }
    conns_.emplace(conn->id, std::move(conn));
  }
}

void SocketServer::HandleReadable(Connection* conn) {
  uint8_t buf[16 * 1024];
  for (;;) {
    ssize_t n = ::recv(conn->fd, buf, sizeof buf, 0);
    if (n > 0) {
      conn->in.insert(conn->in.end(), buf, buf + n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    // EOF or hard error: serve what was fully received, then close once
    // the pipeline drains.
    conn->read_closed = true;
    break;
  }
  if (!ParseFrames(conn)) {
    CloseConnection(conn->id);
    return;
  }
  UpdateInterest(conn);
  CloseIfDone(conn);
}

bool SocketServer::ParseFrames(Connection* conn) {
  size_t pos = 0;
  const std::vector<uint8_t>& in = conn->in;
  for (;;) {
    const size_t avail = in.size() - pos;
    if (avail == 0) break;
    // A peer that does not open with the hello is not speaking this
    // protocol: close before buffering anything it sends.
    if (!conn->greeted && in[pos] != kHelloFrameKind) return false;
    if (avail < kTaggedFrameHeaderBytes) break;
    auto header =
        DecodeTaggedFrameHeader(std::span<const uint8_t>(in.data() + pos, avail));
    if (!header.ok()) return false;  // oversize announcement: close
    const size_t frame_bytes = kTaggedFrameHeaderBytes + header->len;
    if (avail < frame_bytes) break;  // wait for the rest
    std::vector<uint8_t> payload(in.begin() + pos + kTaggedFrameHeaderBytes,
                                 in.begin() + pos + frame_bytes);
    pos += frame_bytes;

    if (header->kind == kHelloFrameKind) {
      // Version exchange: the ack echoes the supported version. A
      // mismatched client gets an error frame and decides for itself.
      if (payload.size() == 1 && payload[0] == kPipelineProtocolVersion) {
        if (!conn->greeted)
          pipelined_connections_.fetch_add(1, std::memory_order_relaxed);
        conn->greeted = true;
        QueueResponse(conn, FrameReply(header->tag, std::move(payload)));
      } else {
        QueueResponse(conn, FrameReply(header->tag,
                                       Status::InvalidArgument(
                                           "unsupported pipeline protocol "
                                           "version")));
      }
      continue;
    }
    if (conn->inflight >= options_.max_inflight_per_connection)
      return false;  // flood guard: the peer is not reading its responses
    if (!IsRequestKind(header->kind)) {
      QueueResponse(conn, FrameReply(header->tag,
                                     Status::InvalidArgument(
                                         "unknown message kind")));
      continue;
    }
    DispatchRequest(conn, header->kind, header->tag, std::move(payload));
  }
  conn->in.erase(conn->in.begin(), conn->in.begin() + pos);
  return true;
}

void SocketServer::DispatchRequest(Connection* conn, uint8_t kind,
                                   uint32_t tag,
                                   std::vector<uint8_t> payload) {
  ++conn->inflight;
  const uint64_t conn_id = conn->id;
  workers_->Submit([this, conn_id, kind, tag,
                    payload = std::move(payload)] {
    Result<std::vector<uint8_t>> reply = DispatchSerialized(
        handler_, static_cast<MessageKind>(kind), payload);
    {
      std::lock_guard<std::mutex> lock(done_mu_);
      done_.push_back({conn_id, FrameReply(tag, reply)});
    }
    uint64_t one = 1;
    [[maybe_unused]] ssize_t n = ::write(wake_fd_, &one, sizeof one);
  });
}

void SocketServer::DrainCompletions() {
  std::vector<Completion> batch;
  {
    std::lock_guard<std::mutex> lock(done_mu_);
    batch.swap(done_);
  }
  for (Completion& c : batch) {
    auto it = conns_.find(c.conn_id);
    if (it == conns_.end()) continue;  // connection already closed
    Connection* conn = it->second.get();
    --conn->inflight;
    QueueResponse(conn, std::move(c.frame));
    CloseIfDone(conn);
  }
}

void SocketServer::QueueResponse(Connection* conn,
                                 std::vector<uint8_t> frame) {
  conn->out.push_back(std::move(frame));
  FlushWrites(conn);
}

void SocketServer::FlushWrites(Connection* conn) {
  while (!conn->out.empty()) {
    const std::vector<uint8_t>& front = conn->out.front();
    ssize_t n = ::send(conn->fd, front.data() + conn->out_off,
                       front.size() - conn->out_off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      // Peer gone: responses are undeliverable; drop the queue so the
      // drain logic can retire the connection.
      conn->out.clear();
      conn->out_off = 0;
      conn->read_closed = true;
      break;
    }
    conn->out_off += static_cast<size_t>(n);
    if (conn->out_off == front.size()) {
      conn->out.pop_front();
      conn->out_off = 0;
    }
  }
  UpdateInterest(conn);
}

void SocketServer::UpdateInterest(Connection* conn) {
  const bool want_write = !conn->out.empty();
  epoll_event ev{};
  ev.events = (conn->read_closed ? 0u : static_cast<uint32_t>(EPOLLIN)) |
              (want_write ? static_cast<uint32_t>(EPOLLOUT) : 0u);
  ev.data.u64 = conn->id;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn->fd, &ev);
  conn->want_write = want_write;
}

void SocketServer::HandleWritable(Connection* conn) {
  FlushWrites(conn);
  CloseIfDone(conn);
}

void SocketServer::CloseIfDone(Connection* conn) {
  if (conn->read_closed && conn->inflight == 0 && conn->out.empty())
    CloseConnection(conn->id);
}

void SocketServer::CloseConnection(uint64_t conn_id) {
  auto it = conns_.find(conn_id);
  if (it == conns_.end()) return;
  epoll_event ev{};
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, it->second->fd, &ev);
  CloseFd(it->second->fd);
  conns_.erase(it);
}

}  // namespace polysse
