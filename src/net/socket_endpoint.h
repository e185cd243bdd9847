// Real network transport for the §4.3 wire protocol: a ServerEndpoint that
// speaks framed messages over TCP to a SocketServer wrapping any
// ServerHandler through DispatchSerialized. Bytes are the only thing that
// crosses the trust boundary — exactly the property the serialized dispatch
// path was built for.
//
// Frames are tagged ([kind][tag][len][payload], see net/frame.h): any
// number of requests overlap on one connection and responses return in
// completion order, routed back by tag. Each dial performs a synchronous
// hello exchange (version negotiation), then starts a reader thread that
// routes every response frame to the submitter waiting on its tag.
// Eval/Fetch/AddDoc/RemoveDoc stay synchronous per call, but concurrent
// callers share the connection without queueing behind each other, and
// BeginEval/BeginFetch expose the submit/await split directly —
// QuerySession uses it to keep whole BFS rounds in flight.
//
//   // server process (registry: a ServerStoreRegistry, store_registry.h)
//   auto server = SocketServer::Listen(&registry, /*port=*/0);
//   printf("serving on %u\n", (*server)->port());
//
//   // client process
//   auto ep = SocketEndpoint::Connect("127.0.0.1", port);
//   QuerySession<FpCyclotomicRing> session(
//       &client, EndpointGroup::TwoParty(ep->get()));
#ifndef POLYSSE_NET_SOCKET_ENDPOINT_H_
#define POLYSSE_NET_SOCKET_ENDPOINT_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/endpoint.h"
#include "net/frame.h"
#include "net/socket_server.h"
#include "util/status.h"

namespace polysse {

/// Client-side TCP endpoint: one connection to one SocketServer. Counters
/// report the actual framed bytes on the wire (hello negotiation frames
/// excluded — they are connection setup, not protocol messages).
///
/// Reconnect policy: a transport/framing failure poisons the current
/// connection (the stream cannot be resynchronized mid-frame), and each
/// call makes ONE automatic attempt to dial the server again — riding out
/// a server restart or a dropped connection — before surfacing
/// Unavailable, which multi-server failover then routes around. Eval and
/// Fetch are idempotent reads, so retrying a request whose response was
/// lost is safe; AddDoc/RemoveDoc retries can double-apply, which the
/// registry reports cleanly (duplicate id / not registered). A transport
/// failure fails every in-flight request; each affected call retries
/// independently over the redialed connection.
class SocketEndpoint final : public ServerEndpoint {
 public:
  struct ConnectOptions {
    /// Cap on concurrently pending requests (the TagRouter map bound).
    size_t max_pending = TagRouter::kDefaultMaxPending;
  };

  /// Connects to host:port (numeric IPv4 host, e.g. "127.0.0.1").
  static Result<std::unique_ptr<SocketEndpoint>> Connect(
      const std::string& host, uint16_t port);
  static Result<std::unique_ptr<SocketEndpoint>> Connect(
      const std::string& host, uint16_t port, ConnectOptions options);

  ~SocketEndpoint() override;
  SocketEndpoint(const SocketEndpoint&) = delete;
  SocketEndpoint& operator=(const SocketEndpoint&) = delete;

  Result<EvalResponse> Eval(const EvalRequest& req) override;
  Result<FetchResponse> Fetch(const FetchRequest& req) override;
  Result<AdminAck> AddDoc(const AddDocRequest& req) override;
  Result<AdminAck> RemoveDoc(const RemoveDocRequest& req) override;
  Result<ExportDocResponse> ExportDoc(const ExportDocRequest& req) override;
  Result<AdminAck> RebaseDoc(const RebaseDocRequest& req) override;
  /// Real framed round trip — the inherited Probe() therefore measures an
  /// actual network liveness check, not an in-process shortcut.
  Result<PingResponse> Ping(const PingRequest& req) override;

  /// Pipelined submit/await: the request goes on the wire before Begin*
  /// returns; Await blocks until its tagged response arrives.
  Deferred<EvalResponse> BeginEval(const EvalRequest& req) override;
  Deferred<FetchResponse> BeginFetch(const FetchRequest& req) override;
  bool SupportsPipelining() const override { return true; }

  /// Successful automatic reconnects so far (test/diagnostic visibility).
  size_t reconnects() const {
    return reconnects_.load(std::memory_order_relaxed);
  }

  /// Requests currently awaiting responses.
  size_t pending() const;

 private:
  /// One live connection. Reference-counted so a caller awaiting a
  /// response keeps its connection's state alive across a concurrent
  /// teardown/redial by another caller.
  struct Wire {
    int fd = -1;
    std::atomic<bool> poisoned{false};
    std::mutex write_mu;  ///< serializes frame writes from submitters
    /// Guards fd between Poison's shutdown and Teardown's close. Never held
    /// across a blocking write, so a Poison can always wake a stuck writer.
    std::mutex fd_mu;
    std::shared_ptr<TagRouter> router;
    std::thread reader;
  };

  /// A submitted request: where to wait and on which wire.
  struct SubmitHandle {
    std::shared_ptr<Wire> wire;
    std::shared_ptr<PendingFrameSlot> slot;
  };

  SocketEndpoint(std::string host, uint16_t port, ConnectOptions options)
      : host_(std::move(host)), port_(port), options_(options) {}

  /// Dials, performs the hello exchange, and starts the reader thread.
  /// Pure function of host/port/options — no member state.
  Result<std::shared_ptr<Wire>> Dial();
  /// Returns the live wire, tearing down a poisoned one and dialing a
  /// replacement (counted in reconnects_) when needed.
  Result<std::shared_ptr<Wire>> EnsureWire();
  /// Marks the wire dead and shuts the socket down so the reader thread
  /// wakes, fails all pending requests and exits.
  static void Poison(const std::shared_ptr<Wire>& wire);
  /// Joins the reader and closes the fd. Caller must hold conn_mu_ or be
  /// the destructor.
  static void Teardown(const std::shared_ptr<Wire>& wire);
  /// Reads response frames and routes them by tag until the connection
  /// dies; then fails every pending request with the cause.
  void ReaderLoop(std::shared_ptr<Wire> wire);

  /// Registers a tag and writes one tagged request frame.
  Result<SubmitHandle> SubmitFrame(MessageKind kind,
                                   std::span<const uint8_t> payload);
  /// Waits for a submitted request; on transport failure resubmits once
  /// over a redialed connection (the reconnect policy above).
  Result<std::vector<uint8_t>> AwaitWithRetry(
      MessageKind kind, const std::vector<uint8_t>& payload, SubmitHandle h);

  /// Serializes `req`, submits it as a `kind` frame, and returns the
  /// deferred decoded response (an already-failed one if submission
  /// failed).
  template <typename Resp, typename Req>
  Deferred<Resp> Begin(MessageKind kind, const Req& req);
  /// Synchronous exchange: Begin, then Await.
  template <typename Resp, typename Req>
  Result<Resp> Call(MessageKind kind, const Req& req) {
    return Begin<Resp>(kind, req).Await();
  }

  const std::string host_;
  const uint16_t port_;
  const ConnectOptions options_;

  mutable std::mutex conn_mu_;  ///< guards wire_ (replace/teardown)
  std::shared_ptr<Wire> wire_;

  std::atomic<size_t> reconnects_{0};
};

}  // namespace polysse

#endif  // POLYSSE_NET_SOCKET_ENDPOINT_H_
