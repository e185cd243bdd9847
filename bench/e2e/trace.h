// Outside-in tracing for the end-to-end benchmark. Nothing under src/ is
// instrumented: spans are recorded by decorators the benchmark wraps around
// the public seams — TracingEndpoint around each client-side
// ServerEndpoint, BenchHandler around each server-side ServerHandler — and
// by the client loop around every facade call (the op span).
//
// Spans stay in memory (name, start, end, parent, op id, lane, server) and
// are written as Chrome trace-event JSON when the traced phase ends.
#ifndef POLYSSE_BENCH_E2E_TRACE_H_
#define POLYSSE_BENCH_E2E_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/endpoint.h"

namespace polysse::bench {

using Clock = std::chrono::steady_clock;

enum class SpanName : uint8_t {
  kOpSearch,
  kOpAdd,
  kOpRemove,
  kEndpointEval,
  kEndpointFetch,
  kEndpointSubmit,  ///< BeginEval/BeginFetch: putting the request on the wire
  kEndpointAwait,   ///< Deferred::Await: blocked until the response arrives
  kEndpointAddDoc,
  kEndpointRemoveDoc,
  kEndpointOther,
  kHandlerEval,
  kHandlerFetch,
  kHandlerAddDoc,
  kHandlerRemoveDoc,
  kHandlerOther,
  kServerDelay,  ///< the simulated wide-area delay before a request runs
};

inline const char* SpanNameString(SpanName n) {
  switch (n) {
    case SpanName::kOpSearch: return "op.search";
    case SpanName::kOpAdd: return "op.add";
    case SpanName::kOpRemove: return "op.remove";
    case SpanName::kEndpointEval: return "endpoint.eval";
    case SpanName::kEndpointFetch: return "endpoint.fetch";
    case SpanName::kEndpointSubmit: return "endpoint.submit";
    case SpanName::kEndpointAwait: return "endpoint.await";
    case SpanName::kEndpointAddDoc: return "endpoint.add_doc";
    case SpanName::kEndpointRemoveDoc: return "endpoint.remove_doc";
    case SpanName::kEndpointOther: return "endpoint.other";
    case SpanName::kHandlerEval: return "store_registry.eval";
    case SpanName::kHandlerFetch: return "store_registry.fetch";
    case SpanName::kHandlerAddDoc: return "store_registry.add_doc";
    case SpanName::kHandlerRemoveDoc: return "store_registry.remove_doc";
    case SpanName::kHandlerOther: return "store_registry.other";
    case SpanName::kServerDelay: return "net.delay";
  }
  return "unknown";
}

inline bool IsOpSpan(SpanName n) { return n <= SpanName::kOpRemove; }
inline bool IsEndpointSpan(SpanName n) {
  return n >= SpanName::kEndpointEval && n <= SpanName::kEndpointOther;
}
inline bool IsHandlerSpan(SpanName n) {
  return n >= SpanName::kHandlerEval && n <= SpanName::kHandlerOther;
}

struct Span {
  SpanName name = SpanName::kOpSearch;
  int16_t lane = -1;    ///< client thread; -1 for server-side spans
  int16_t server = -1;  ///< server index (shard-major); -1 for op spans
  uint32_t tid = 0;     ///< small per-OS-thread index
  int64_t id = 0;
  int64_t parent = -1;  ///< enclosing span on the same thread, or -1
  int64_t op = -1;      ///< the client op this span served, -1 if unknown
  int64_t t0 = 0;       ///< ns since the tracer was created
  int64_t t1 = 0;
  uint64_t work = 0;  ///< evals (eval), node ids (fetch), store bytes (add)
};

/// Span sink shared by every decorator of one traced phase.
class Tracer {
 public:
  explicit Tracer(int lanes) : current_op_(static_cast<size_t>(lanes)) {
    for (auto& op : current_op_) op.store(-1, std::memory_order_relaxed);
  }
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// `t` as ns since the tracer was created (the span clock).
  int64_t At(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_)
        .count();
  }
  int64_t Now() const { return At(Clock::now()); }

  int64_t NewId() { return next_id_.fetch_add(1, std::memory_order_relaxed); }

  void Record(const Span& span) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(span);
  }

  /// The op lane `lane` is currently running; decorators read it so a span
  /// recorded on any thread is charged to the right client op.
  void SetOp(int lane, int64_t op) {
    current_op_[static_cast<size_t>(lane)].store(op, std::memory_order_relaxed);
  }
  int64_t CurrentOp(int lane) const {
    if (lane < 0) return -1;
    return current_op_[static_cast<size_t>(lane)].load(
        std::memory_order_relaxed);
  }

  /// Call only after every traced thread has stopped recording.
  std::vector<Span> TakeSpans() {
    std::lock_guard<std::mutex> lock(mu_);
    return std::move(spans_);
  }

 private:
  const Clock::time_point epoch_ = Clock::now();
  std::atomic<int64_t> next_id_{0};
  std::vector<std::atomic<int64_t>> current_op_;
  std::mutex mu_;
  std::vector<Span> spans_;
};

/// Innermost open span of the calling thread (parent links).
inline thread_local int64_t tls_current_span = -1;
/// The op the calling client thread is running (set by the client loop).
/// Loopback handlers run on that thread and read it; socket workers see -1.
inline thread_local int64_t tls_current_op = -1;

inline uint32_t ThreadIndex() {
  static std::atomic<uint32_t> next{1};
  thread_local const uint32_t index =
      next.fetch_add(1, std::memory_order_relaxed);
  return index;
}

/// Records one span from construction to destruction; a no-op when the
/// tracer is null (the untraced configuration of the same decorators).
class SpanScope {
 public:
  SpanScope(Tracer* tracer, SpanName name, int lane, int server, int64_t op)
      : tracer_(tracer) {
    if (tracer_ == nullptr) return;
    span_.name = name;
    span_.lane = static_cast<int16_t>(lane);
    span_.server = static_cast<int16_t>(server);
    span_.tid = ThreadIndex();
    span_.id = tracer_->NewId();
    span_.parent = tls_current_span;
    span_.op = op;
    tls_current_span = span_.id;
    span_.t0 = tracer_->Now();
  }
  ~SpanScope() {
    if (tracer_ == nullptr) return;
    span_.t1 = tracer_->Now();
    tls_current_span = span_.parent;
    tracer_->Record(span_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  void set_work(uint64_t work) { span_.work = work; }

 private:
  Tracer* tracer_;
  Span span_;
};

/// Client-side decorator: one per (client lane, server). Forwards every
/// call — including the pipelining seam, without which QuerySession would
/// silently fall back to its sequential fetch schedule — and times it.
class TracingEndpoint final : public ServerEndpoint {
 public:
  TracingEndpoint(ServerEndpoint* inner, Tracer* tracer, int lane, int server)
      : inner_(inner), tracer_(tracer), lane_(lane), server_(server) {}

  Result<EvalResponse> Eval(const EvalRequest& req) override {
    SpanScope span = Scope(SpanName::kEndpointEval);
    return inner_->Eval(req);
  }
  Result<FetchResponse> Fetch(const FetchRequest& req) override {
    SpanScope span = Scope(SpanName::kEndpointFetch);
    return inner_->Fetch(req);
  }
  Result<AdminAck> AddDoc(const AddDocRequest& req) override {
    SpanScope span = Scope(SpanName::kEndpointAddDoc);
    span.set_work(req.store_bytes.size());
    return inner_->AddDoc(req);
  }
  Result<AdminAck> RemoveDoc(const RemoveDocRequest& req) override {
    SpanScope span = Scope(SpanName::kEndpointRemoveDoc);
    return inner_->RemoveDoc(req);
  }
  Result<ExportDocResponse> ExportDoc(const ExportDocRequest& req) override {
    SpanScope span = Scope(SpanName::kEndpointOther);
    return inner_->ExportDoc(req);
  }
  Result<AdminAck> RebaseDoc(const RebaseDocRequest& req) override {
    SpanScope span = Scope(SpanName::kEndpointOther);
    return inner_->RebaseDoc(req);
  }
  Result<PingResponse> Ping(const PingRequest& req) override {
    SpanScope span = Scope(SpanName::kEndpointOther);
    return inner_->Ping(req);
  }

  Deferred<EvalResponse> BeginEval(const EvalRequest& req) override {
    return Begin<EvalResponse>([&] { return inner_->BeginEval(req); });
  }
  Deferred<FetchResponse> BeginFetch(const FetchRequest& req) override {
    return Begin<FetchResponse>([&] { return inner_->BeginFetch(req); });
  }
  bool SupportsPipelining() const override {
    return inner_->SupportsPipelining();
  }
  TransportCounters counters() const override { return inner_->counters(); }

 private:
  SpanScope Scope(SpanName name) {
    return SpanScope(tracer_, name, lane_, server_, tracer_->CurrentOp(lane_));
  }

  /// Times the submit here and the Await inside the returned thunk: an
  /// Await's start is when the client began waiting, not when the response
  /// arrived, so its span is blocked time.
  template <typename T, typename SubmitFn>
  Deferred<T> Begin(SubmitFn submit) {
    std::shared_ptr<Deferred<T>> inner;
    {
      SpanScope span = Scope(SpanName::kEndpointSubmit);
      inner = std::make_shared<Deferred<T>>(submit());
    }
    return Deferred<T>(std::function<Result<T>()>([this, inner] {
      SpanScope span = Scope(SpanName::kEndpointAwait);
      return inner->Await();
    }));
  }

  ServerEndpoint* const inner_;
  Tracer* const tracer_;
  const int lane_;
  const int server_;
};

/// Server-side decorator: optionally sleeps `delay_us` before every request
/// (the simulated wide-area link of batch-tcp-wan) and, when a tracer is
/// set, times the wrapped registry's work. Thread-safe like its inner
/// handler: SocketServer workers call it concurrently.
class BenchHandler final : public ServerHandler {
 public:
  BenchHandler(ServerHandler* inner, uint32_t delay_us, Tracer* tracer,
               int server)
      : inner_(inner), delay_us_(delay_us), tracer_(tracer), server_(server) {}

  Result<EvalResponse> HandleEval(const EvalRequest& req) override {
    Delay();
    SpanScope span = Scope(SpanName::kHandlerEval);
    span.set_work(req.node_ids.size() * req.points.size());
    return inner_->HandleEval(req);
  }
  Result<FetchResponse> HandleFetch(const FetchRequest& req) override {
    Delay();
    SpanScope span = Scope(SpanName::kHandlerFetch);
    span.set_work(req.node_ids.size());
    return inner_->HandleFetch(req);
  }
  Result<AdminAck> HandleAddDoc(const AddDocRequest& req) override {
    Delay();
    SpanScope span = Scope(SpanName::kHandlerAddDoc);
    return inner_->HandleAddDoc(req);
  }
  Result<AdminAck> HandleRemoveDoc(const RemoveDocRequest& req) override {
    Delay();
    SpanScope span = Scope(SpanName::kHandlerRemoveDoc);
    return inner_->HandleRemoveDoc(req);
  }
  Result<ExportDocResponse> HandleExportDoc(
      const ExportDocRequest& req) override {
    Delay();
    SpanScope span = Scope(SpanName::kHandlerOther);
    return inner_->HandleExportDoc(req);
  }
  Result<AdminAck> HandleRebaseDoc(const RebaseDocRequest& req) override {
    Delay();
    SpanScope span = Scope(SpanName::kHandlerOther);
    return inner_->HandleRebaseDoc(req);
  }
  Result<PingResponse> HandlePing(const PingRequest& req) override {
    Delay();
    SpanScope span = Scope(SpanName::kHandlerOther);
    return inner_->HandlePing(req);
  }

 private:
  SpanScope Scope(SpanName name) {
    return SpanScope(tracer_, name, -1, server_, tls_current_op);
  }

  void Delay() {
    if (delay_us_ == 0) return;
    SpanScope span = Scope(SpanName::kServerDelay);
    std::this_thread::sleep_for(std::chrono::microseconds(delay_us_));
  }

  ServerHandler* const inner_;
  const uint32_t delay_us_;
  Tracer* const tracer_;
  const int server_;
};

/// Writes `spans` as Chrome trace-event JSON (load in chrome://tracing or
/// ui.perfetto.dev). Returns false when the file cannot be written.
inline bool WriteChromeTrace(const std::string& path,
                             const std::vector<Span>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n", f);
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%lld,"
                 "\"parent\":%lld,\"op\":%lld,\"lane\":%d,\"server\":%d,"
                 "\"work\":%llu}}",
                 i == 0 ? "" : ",\n", SpanNameString(s.name), s.tid,
                 static_cast<double>(s.t0) / 1e3,
                 static_cast<double>(s.t1 - s.t0) / 1e3,
                 static_cast<long long>(s.id),
                 static_cast<long long>(s.parent),
                 static_cast<long long>(s.op), s.lane, s.server,
                 static_cast<unsigned long long>(s.work));
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace polysse::bench

#endif  // POLYSSE_BENCH_E2E_TRACE_H_
