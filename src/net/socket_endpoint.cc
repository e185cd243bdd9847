#include "net/socket_endpoint.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "util/bytes.h"

namespace polysse {

namespace {

Status Errno(const std::string& what) {
  return Status::Unavailable(what + ": " + std::strerror(errno));
}

void CloseFd(int fd) {
  if (fd >= 0) ::close(fd);
}

/// Dials host:port, returning a connected fd with TCP_NODELAY set.
Result<int> DialTcp(const std::string& host, uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1)
    return Status::InvalidArgument("not a numeric IPv4 address: " + host);
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Errno("socket");
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    Status s = Errno("connect " + host + ":" + std::to_string(port));
    CloseFd(fd);
    return s;
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return fd;
}

/// Reads one tagged frame synchronously (the hello exchange happens before
/// the reader thread exists).
Result<std::pair<TaggedFrameHeader, std::vector<uint8_t>>> ReadTaggedFrame(
    int fd) {
  uint8_t header[kTaggedFrameHeaderBytes];
  RETURN_IF_ERROR(ReadFull(fd, header, sizeof header, nullptr));
  ASSIGN_OR_RETURN(TaggedFrameHeader h,
                   DecodeTaggedFrameHeader(
                       std::span<const uint8_t>(header, sizeof header)));
  std::vector<uint8_t> payload(h.len);
  if (h.len > 0)
    RETURN_IF_ERROR(ReadFull(fd, payload.data(), payload.size(), nullptr));
  return std::make_pair(h, std::move(payload));
}

}  // namespace

Result<std::unique_ptr<SocketEndpoint>> SocketEndpoint::Connect(
    const std::string& host, uint16_t port) {
  return Connect(host, port, ConnectOptions());
}

Result<std::unique_ptr<SocketEndpoint>> SocketEndpoint::Connect(
    const std::string& host, uint16_t port, ConnectOptions options) {
  auto endpoint = std::unique_ptr<SocketEndpoint>(
      new SocketEndpoint(host, port, options));
  ASSIGN_OR_RETURN(auto wire, endpoint->Dial());
  endpoint->wire_ = std::move(wire);
  return endpoint;
}

SocketEndpoint::~SocketEndpoint() {
  std::shared_ptr<Wire> wire;
  {
    std::lock_guard<std::mutex> lock(conn_mu_);
    wire = std::move(wire_);
  }
  if (wire) {
    Poison(wire);
    Teardown(wire);
  }
}

size_t SocketEndpoint::pending() const {
  std::lock_guard<std::mutex> lock(conn_mu_);
  return wire_ ? wire_->router->pending() : 0;
}

Result<std::shared_ptr<SocketEndpoint::Wire>> SocketEndpoint::Dial() {
  ASSIGN_OR_RETURN(int fd, DialTcp(host_, port_));
  // Version negotiation: hello out, ack back, all before any request — the
  // server closes a connection whose first frame is anything else.
  std::vector<uint8_t> hello;
  const uint8_t version[] = {kPipelineProtocolVersion};
  AppendTaggedFrame(&hello, kHelloFrameKind, /*tag=*/0, version);
  Status s = WriteFull(fd, hello.data(), hello.size());
  if (s.ok()) {
    auto ack = ReadTaggedFrame(fd);
    if (!ack.ok()) {
      s = ack.status();
    } else if (ack->first.kind != static_cast<uint8_t>(StatusCode::kOk)) {
      s = StatusFromWire(ack->first.kind,
                         std::string(ack->second.begin(), ack->second.end()));
    } else if (ack->second.size() != 1 ||
               ack->second[0] != kPipelineProtocolVersion) {
      s = Status::Corruption("malformed hello ack from server");
    }
  }
  if (!s.ok()) {
    CloseFd(fd);
    return s;
  }
  auto wire = std::make_shared<Wire>();
  wire->fd = fd;
  wire->router = std::make_shared<TagRouter>(options_.max_pending);
  wire->reader = std::thread([this, wire] { ReaderLoop(wire); });
  return wire;
}

Result<std::shared_ptr<SocketEndpoint::Wire>> SocketEndpoint::EnsureWire() {
  std::lock_guard<std::mutex> lock(conn_mu_);
  if (wire_ && !wire_->poisoned.load(std::memory_order_acquire))
    return wire_;
  if (wire_) {
    Poison(wire_);
    Teardown(wire_);
    wire_.reset();
  }
  ASSIGN_OR_RETURN(auto wire, Dial());
  wire_ = std::move(wire);
  reconnects_.fetch_add(1, std::memory_order_relaxed);
  return wire_;
}

void SocketEndpoint::Poison(const std::shared_ptr<Wire>& wire) {
  wire->poisoned.store(true, std::memory_order_release);
  std::lock_guard<std::mutex> lock(wire->fd_mu);
  if (wire->fd >= 0) ::shutdown(wire->fd, SHUT_RDWR);
}

void SocketEndpoint::Teardown(const std::shared_ptr<Wire>& wire) {
  if (wire->reader.joinable()) wire->reader.join();
  // Closing under write_mu keeps a submitter mid-WriteFull, and closing
  // under fd_mu a concurrent Poison, from racing the close into a recycled
  // descriptor (the redial that follows may get the same number).
  std::lock_guard<std::mutex> write_lock(wire->write_mu);
  std::lock_guard<std::mutex> fd_lock(wire->fd_mu);
  CloseFd(wire->fd);
  wire->fd = -1;
}

void SocketEndpoint::ReaderLoop(std::shared_ptr<Wire> wire) {
  Status cause = Status::Unavailable("connection closed");
  for (;;) {
    uint8_t header[kTaggedFrameHeaderBytes];
    bool clean_eof = false;
    Status s = ReadFull(wire->fd, header, sizeof header, &clean_eof);
    if (!s.ok()) {
      cause = clean_eof ? Status::Unavailable("server closed connection")
                        : std::move(s);
      break;
    }
    auto h = DecodeTaggedFrameHeader(
        std::span<const uint8_t>(header, sizeof header));
    if (!h.ok()) {
      cause = h.status();
      break;
    }
    std::vector<uint8_t> payload(h->len);
    if (h->len > 0) {
      s = ReadFull(wire->fd, payload.data(), payload.size(), nullptr);
      if (!s.ok()) {
        cause = std::move(s);
        break;
      }
    }
    CountDown(kTaggedFrameHeaderBytes + payload.size());
    Result<std::vector<uint8_t>> result =
        h->kind == static_cast<uint8_t>(StatusCode::kOk)
            ? Result<std::vector<uint8_t>>(std::move(payload))
            : Result<std::vector<uint8_t>>(StatusFromWire(
                  h->kind, std::string(payload.begin(), payload.end())));
    Status routed = wire->router->Complete(h->tag, std::move(result));
    if (!routed.ok()) {
      // Unknown or duplicate tag: the stream is lying about what it
      // carries, and a tag-multiplexed protocol cannot resynchronize.
      cause = std::move(routed);
      break;
    }
  }
  wire->poisoned.store(true, std::memory_order_release);
  wire->router->FailAll(cause);
}

Result<SocketEndpoint::SubmitHandle> SocketEndpoint::SubmitFrame(
    MessageKind kind, std::span<const uint8_t> payload) {
  ASSIGN_OR_RETURN(auto wire, EnsureWire());
  ASSIGN_OR_RETURN(auto registered, wire->router->Register());
  std::vector<uint8_t> frame;
  AppendTaggedFrame(&frame, static_cast<uint8_t>(kind), registered.first,
                    payload);
  Status sent;
  {
    std::lock_guard<std::mutex> lock(wire->write_mu);
    sent = wire->fd >= 0
               ? WriteFull(wire->fd, frame.data(), frame.size())
               : Status::Unavailable("connection closed");
  }
  if (sent.ok()) {
    CountUp(frame.size());
  } else {
    // The reader wakes on the shutdown, fails every pending slot
    // (including the one just registered) and exits.
    Poison(wire);
  }
  return SubmitHandle{std::move(wire), std::move(registered.second)};
}

Result<std::vector<uint8_t>> SocketEndpoint::AwaitWithRetry(
    MessageKind kind, const std::vector<uint8_t>& payload, SubmitHandle h) {
  Result<std::vector<uint8_t>> result = h.slot->Await();
  if (result.ok() || !h.wire->poisoned.load(std::memory_order_acquire))
    return result;  // success, or a server-reported error (framing intact)
  // Transport failure: the connection died with this request in flight.
  // One resubmit over a redialed connection (the reconnect policy).
  Status first = result.status();
  auto resubmitted = SubmitFrame(kind, payload);
  if (!resubmitted.ok()) {
    return Status::Unavailable(first.message() + "; reconnect failed: " +
                               resubmitted.status().message());
  }
  return resubmitted->slot->Await();
}

template <typename Resp, typename Req>
Deferred<Resp> SocketEndpoint::Begin(MessageKind kind, const Req& req) {
  ByteWriter up;
  req.Serialize(&up);
  auto payload = std::make_shared<std::vector<uint8_t>>(up.span().begin(),
                                                        up.span().end());
  auto submitted = SubmitFrame(kind, *payload);
  if (!submitted.ok())
    return Deferred<Resp>(Result<Resp>(submitted.status()));
  auto handle = std::make_shared<SubmitHandle>(std::move(*submitted));
  return Deferred<Resp>(std::function<Result<Resp>()>(
      [this, kind, payload, handle]() -> Result<Resp> {
        ASSIGN_OR_RETURN(std::vector<uint8_t> down,
                         AwaitWithRetry(kind, *payload, std::move(*handle)));
        ByteReader r(down);
        return Resp::Deserialize(&r);
      }));
}

Deferred<EvalResponse> SocketEndpoint::BeginEval(const EvalRequest& req) {
  return Begin<EvalResponse>(MessageKind::kEval, req);
}

Deferred<FetchResponse> SocketEndpoint::BeginFetch(const FetchRequest& req) {
  return Begin<FetchResponse>(MessageKind::kFetch, req);
}

Result<EvalResponse> SocketEndpoint::Eval(const EvalRequest& req) {
  return Call<EvalResponse>(MessageKind::kEval, req);
}

Result<FetchResponse> SocketEndpoint::Fetch(const FetchRequest& req) {
  return Call<FetchResponse>(MessageKind::kFetch, req);
}

Result<AdminAck> SocketEndpoint::AddDoc(const AddDocRequest& req) {
  return Call<AdminAck>(MessageKind::kAddDoc, req);
}

Result<AdminAck> SocketEndpoint::RemoveDoc(const RemoveDocRequest& req) {
  return Call<AdminAck>(MessageKind::kRemoveDoc, req);
}

Result<ExportDocResponse> SocketEndpoint::ExportDoc(
    const ExportDocRequest& req) {
  return Call<ExportDocResponse>(MessageKind::kExportDoc, req);
}

Result<AdminAck> SocketEndpoint::RebaseDoc(const RebaseDocRequest& req) {
  return Call<AdminAck>(MessageKind::kRebaseDoc, req);
}

Result<PingResponse> SocketEndpoint::Ping(const PingRequest& req) {
  return Call<PingResponse>(MessageKind::kPing, req);
}

}  // namespace polysse
