// Transport abstraction between the thin client and its untrusted servers.
//
// The §4.3 protocol is a message exchange, and §4.2 generalizes it to
// k-of-n multi-server deployments — so the client-side query logic talks to
// a ServerEndpoint (a message port carrying the EvalRequest/FetchRequest
// codecs) instead of a concrete in-process store. Two transports and one
// decorator:
//
//   * LoopbackEndpoint       — serializes every message both ways through
//                              DispatchSerialized, so byte counters report
//                              real wire costs and the codecs run on every
//                              query; fronts every collection-owned server;
//   * SocketEndpoint         — the same frames over TCP
//                              (net/socket_endpoint.h);
//   * FaultInjectingEndpoint — decorator adding latency, hard failures and
//                              response tampering for cheating-server and
//                              k-of-n-with-failures scenarios.
//
// A network server pairs a socket loop with DispatchSerialized(): bytes in,
// bytes out, nothing else crosses the trust boundary.
#ifndef POLYSSE_CORE_ENDPOINT_H_
#define POLYSSE_CORE_ENDPOINT_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "core/protocol.h"
#include "util/bytes.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace polysse {

/// Server side of the wire protocol: answers every request type.
/// ServerStoreRegistry (core/store_registry.h) implements it over one
/// share tree per document; any scheme whose per-server state is "trees of
/// polynomials" (2-party, additive k-server, Shamir t-of-n) serves through
/// the same interface. Decorators (test fault injection, bench tracing and
/// delays) implement it around a registry.
class ServerHandler {
 public:
  virtual ~ServerHandler() = default;
  virtual Result<EvalResponse> HandleEval(const EvalRequest& req) = 0;
  virtual Result<FetchResponse> HandleFetch(const FetchRequest& req) = 0;

  /// Registry administration (multi-document collections). The defaults
  /// refuse, so a handler that only answers queries (a test stub) need
  /// not manage documents; ServerStoreRegistry overrides both.
  virtual Result<AdminAck> HandleAddDoc(const AddDocRequest&) {
    return Status::Unimplemented(
        "this server does not manage a document registry");
  }
  virtual Result<AdminAck> HandleRemoveDoc(const RemoveDocRequest&) {
    return Status::Unimplemented(
        "this server does not manage a document registry");
  }

  /// Shard administration (document migration between server groups).
  /// Like the registry admin pair, only ServerStoreRegistry implements
  /// these; the defaults refuse.
  virtual Result<ExportDocResponse> HandleExportDoc(const ExportDocRequest&) {
    return Status::Unimplemented(
        "this server does not manage a document registry");
  }
  virtual Result<AdminAck> HandleRebaseDoc(const RebaseDocRequest&) {
    return Status::Unimplemented(
        "this server does not manage a document registry");
  }

  /// Health probe: every live handler answers by echoing the nonce, so a
  /// probe distinguishes "server reachable" from "server gone" without
  /// touching any store. Registries override to report their inventory.
  virtual Result<PingResponse> HandlePing(const PingRequest& req) {
    return PingResponse{req.nonce, 0, 0};
  }
};

/// Wire message discriminator for the serialized dispatch path.
enum class MessageKind : uint8_t {
  kEval = 1,
  kFetch = 2,
  kAddDoc = 3,
  kRemoveDoc = 4,
  kExportDoc = 5,
  kRebaseDoc = 6,
  kPing = 7,
};

/// Bytes-in/bytes-out server dispatch: decode the request, run the handler,
/// encode the response. The receive loop of a network deployment.
Result<std::vector<uint8_t>> DispatchSerialized(
    ServerHandler* handler, MessageKind kind,
    std::span<const uint8_t> request_bytes);

/// A response that may still be in flight. Begin* methods return one:
/// pipelined transports submit the request immediately and Await() blocks
/// until its response frame arrives, so many requests overlap on one
/// connection; synchronous transports resolve at Begin* time and Await()
/// just hands the stored result back. Await() at most once.
template <typename T>
class Deferred {
 public:
  /// An already-resolved deferred (the synchronous default).
  explicit Deferred(Result<T> ready) : ready_(std::move(ready)) {}
  /// A genuinely in-flight deferred: `await` blocks until the response.
  explicit Deferred(std::function<Result<T>()> await)
      : await_(std::move(await)) {}

  Deferred(Deferred&&) = default;
  Deferred& operator=(Deferred&&) = default;

  Result<T> Await() {
    if (await_) {
      auto thunk = std::move(await_);
      await_ = nullptr;
      return thunk();
    }
    if (!ready_.has_value())
      return Status::FailedPrecondition("Deferred awaited twice");
    auto out = std::move(*ready_);
    ready_.reset();
    return out;
  }

 private:
  std::optional<Result<T>> ready_;
  std::function<Result<T>()> await_;
};

/// Client-side message port to one server. Implementations decide whether
/// the typed messages actually cross a serialization boundary; `counters()`
/// reports whatever bytes/messages did.
///
/// Eval/Fetch and counters() are thread-safe: the parallel fan-out calls
/// distinct endpoints concurrently, and stress scenarios drive one endpoint
/// from several sessions at once.
class ServerEndpoint {
 public:
  virtual ~ServerEndpoint() = default;

  virtual Result<EvalResponse> Eval(const EvalRequest& req) = 0;
  virtual Result<FetchResponse> Fetch(const FetchRequest& req) = 0;

  /// Registry administration. Defaults refuse: only endpoints fronting a
  /// document registry (all the concrete ones here do) forward these.
  virtual Result<AdminAck> AddDoc(const AddDocRequest&) {
    return Status::Unimplemented("endpoint does not support AddDoc");
  }
  virtual Result<AdminAck> RemoveDoc(const RemoveDocRequest&) {
    return Status::Unimplemented("endpoint does not support RemoveDoc");
  }

  /// Shard administration (document migration). Defaults refuse, matching
  /// the handler-side defaults.
  virtual Result<ExportDocResponse> ExportDoc(const ExportDocRequest&) {
    return Status::Unimplemented("endpoint does not support ExportDoc");
  }
  virtual Result<AdminAck> RebaseDoc(const RebaseDocRequest&) {
    return Status::Unimplemented("endpoint does not support RebaseDoc");
  }

  /// Health probe round trip. The default refuses; concrete endpoints
  /// forward to their handler (or put a ping frame on the wire).
  virtual Result<PingResponse> Ping(const PingRequest&) {
    return Status::Unimplemented("endpoint does not support Ping");
  }

  /// Liveness check built on Ping: Ok when the server answered with the
  /// right nonce, the transport error otherwise. An endpoint that predates
  /// the ping kind (Unimplemented) counts as alive — unprobeable is not
  /// dead. Scatter-gather schedulers probe before fanning out so a dead
  /// group costs one fast refusal instead of a full walk's timeouts.
  Status Probe();

  /// Async submit/await seam. The defaults resolve synchronously (correct
  /// for every transport, concurrent for none); pipelined transports
  /// override to put the request on the wire at Begin* time and block only
  /// in Await, letting callers keep many requests in flight.
  virtual Deferred<EvalResponse> BeginEval(const EvalRequest& req) {
    return Deferred<EvalResponse>(Eval(req));
  }
  virtual Deferred<FetchResponse> BeginFetch(const FetchRequest& req) {
    return Deferred<FetchResponse>(Fetch(req));
  }

  /// True when Begin* genuinely overlaps requests (and out-of-order
  /// completion costs nothing). Schedulers use this to decide whether
  /// issuing work early buys latency or merely reorders it.
  virtual bool SupportsPipelining() const { return false; }

  /// Snapshot of the cumulative wire-cost counters since construction.
  virtual TransportCounters counters() const {
    std::lock_guard<std::mutex> lock(counters_mu_);
    return counters_;
  }

 protected:
  /// Records one sent request. A request whose handler fails is still
  /// counted — it crossed the wire.
  void CountUp(size_t bytes) {
    std::lock_guard<std::mutex> lock(counters_mu_);
    counters_.bytes_up += bytes;
    ++counters_.messages_up;
  }
  /// Records one received response.
  void CountDown(size_t bytes) {
    std::lock_guard<std::mutex> lock(counters_mu_);
    counters_.bytes_down += bytes;
    ++counters_.messages_down;
  }

 private:
  mutable std::mutex counters_mu_;
  TransportCounters counters_;
};

/// Serializes every message in both directions through DispatchSerialized,
/// so byte counters are real and the codecs run on every query. The
/// transport in front of every collection-owned server.
class LoopbackEndpoint final : public ServerEndpoint {
 public:
  explicit LoopbackEndpoint(ServerHandler* handler) : handler_(handler) {}

  Result<EvalResponse> Eval(const EvalRequest& req) override;
  Result<FetchResponse> Fetch(const FetchRequest& req) override;
  Result<AdminAck> AddDoc(const AddDocRequest& req) override;
  Result<AdminAck> RemoveDoc(const RemoveDocRequest& req) override;
  Result<ExportDocResponse> ExportDoc(const ExportDocRequest& req) override;
  Result<AdminAck> RebaseDoc(const RebaseDocRequest& req) override;
  Result<PingResponse> Ping(const PingRequest& req) override;

 private:
  /// One exchange: encode `req`, dispatch it as a `kind` message, decode
  /// the response.
  template <typename Resp, typename Req>
  Result<Resp> Call(MessageKind kind, const Req& req);

  ServerHandler* handler_;
};

/// What a FaultInjectingEndpoint does to its inner endpoint's traffic.
struct FaultConfig {
  /// Calls answered before the server "dies"; later calls fail with
  /// Unavailable. 0 = dead from the start (k-of-n failure scenarios).
  size_t fail_after_calls = SIZE_MAX;
  /// Sleep per call, simulating network latency (microseconds).
  uint32_t latency_us = 0;
  /// Flip one byte of every serialized response — garbage on the wire; the
  /// client must fail cleanly, never crash.
  bool corrupt_response_bytes = false;
  /// Structured response rewrites: a cheating server altering decoded
  /// messages (e.g. adding (x-e)·c to a fetched share so evaluations still
  /// look right). Applied after the inner endpoint answers.
  std::function<void(EvalResponse&)> tamper_eval;
  std::function<void(FetchResponse&)> tamper_fetch;
};

/// Decorator over another endpoint adding configurable faults. Composes
/// over any endpoint, including another decorator.
class FaultInjectingEndpoint final : public ServerEndpoint {
 public:
  FaultInjectingEndpoint(ServerEndpoint* inner, FaultConfig config)
      : inner_(inner), config_(std::move(config)) {}

  Result<EvalResponse> Eval(const EvalRequest& req) override;
  Result<FetchResponse> Fetch(const FetchRequest& req) override;
  Result<AdminAck> AddDoc(const AddDocRequest& req) override;
  Result<AdminAck> RemoveDoc(const RemoveDocRequest& req) override;
  Result<ExportDocResponse> ExportDoc(const ExportDocRequest& req) override;
  Result<AdminAck> RebaseDoc(const RebaseDocRequest& req) override;
  /// Probes go through the same fault gate: a dead server fails its pings,
  /// which is exactly what a scatter-gather health check must observe.
  Result<PingResponse> Ping(const PingRequest& req) override;

  TransportCounters counters() const override { return inner_->counters(); }

  /// Mutable mid-run: tests flip faults on after a healthy warm-up (from
  /// the session thread only — reconfiguration is not thread-safe).
  FaultConfig& config() { return config_; }
  size_t calls() const { return calls_.load(std::memory_order_relaxed); }

 private:
  /// Shared pre-call gate: death check + latency. Unavailable once dead.
  Status Admit();

  ServerEndpoint* inner_;
  FaultConfig config_;
  std::atomic<size_t> calls_{0};
};

/// How the per-server contributions recombine client-side (§4.2 and its
/// closing multi-server generalization).
enum class ShareScheme {
  /// One server; the client adds its own PRF-derived share (the paper's
  /// baseline client/server split).
  kTwoParty,
  /// k servers, all required (k+1-of-k+1 additive with the client).
  kAdditive,
  /// Shamir t-of-n over the F_p ring: any `threshold` servers answer via
  /// Lagrange interpolation; the client holds no share of its own.
  kShamir,
};

/// One logical server group a query session talks to: the endpoints plus
/// the recombination scheme. Endpoints and the executor are borrowed, not
/// owned.
struct EndpointGroup {
  ShareScheme scheme = ShareScheme::kTwoParty;
  std::vector<ServerEndpoint*> endpoints;
  /// Shamir only: each endpoint's evaluation point x_s (distinct, nonzero).
  std::vector<uint64_t> shamir_x;
  /// Shamir only: how many servers must answer.
  int threshold = 0;
  /// Where a session begins each round's per-server subrequests. Null
  /// means the calling thread: pipelined endpoints still overlap (each
  /// begin only puts a request on the wire), synchronous ones answer one
  /// after another in server order. A ThreadPool runs synchronous ones
  /// concurrently too.
  Executor* executor = nullptr;

  /// The effective executor (never null).
  Executor* executor_or_inline() const {
    return executor != nullptr ? executor : GlobalInlineExecutor();
  }

  static EndpointGroup TwoParty(ServerEndpoint* endpoint) {
    EndpointGroup g;
    g.scheme = ShareScheme::kTwoParty;
    g.endpoints = {endpoint};
    return g;
  }
  static EndpointGroup Additive(std::vector<ServerEndpoint*> endpoints) {
    EndpointGroup g;
    g.scheme = ShareScheme::kAdditive;
    g.endpoints = std::move(endpoints);
    return g;
  }
  /// Servers sit at x = 1..n, matching SplitSharesShamir.
  static EndpointGroup Shamir(std::vector<ServerEndpoint*> endpoints,
                              int threshold) {
    EndpointGroup g;
    g.scheme = ShareScheme::kShamir;
    g.endpoints = std::move(endpoints);
    g.threshold = threshold;
    g.shamir_x.reserve(g.endpoints.size());
    for (size_t s = 0; s < g.endpoints.size(); ++s)
      g.shamir_x.push_back(s + 1);
    return g;
  }

  Status Validate() const;
};

}  // namespace polysse

#endif  // POLYSSE_CORE_ENDPOINT_H_
