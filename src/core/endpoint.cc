#include "core/endpoint.h"

#include <chrono>
#include <thread>
#include <unordered_set>

namespace polysse {

Result<std::vector<uint8_t>> DispatchSerialized(
    ServerHandler* handler, MessageKind kind,
    std::span<const uint8_t> request_bytes) {
  ByteReader in(request_bytes);
  ByteWriter out;
  switch (kind) {
    case MessageKind::kEval: {
      ASSIGN_OR_RETURN(EvalRequest req, EvalRequest::Deserialize(&in));
      ASSIGN_OR_RETURN(EvalResponse resp, handler->HandleEval(req));
      resp.Serialize(&out);
      break;
    }
    case MessageKind::kFetch: {
      ASSIGN_OR_RETURN(FetchRequest req, FetchRequest::Deserialize(&in));
      ASSIGN_OR_RETURN(FetchResponse resp, handler->HandleFetch(req));
      resp.Serialize(&out);
      break;
    }
    case MessageKind::kAddDoc: {
      ASSIGN_OR_RETURN(AddDocRequest req, AddDocRequest::Deserialize(&in));
      ASSIGN_OR_RETURN(AdminAck resp, handler->HandleAddDoc(req));
      resp.Serialize(&out);
      break;
    }
    case MessageKind::kRemoveDoc: {
      ASSIGN_OR_RETURN(RemoveDocRequest req,
                       RemoveDocRequest::Deserialize(&in));
      ASSIGN_OR_RETURN(AdminAck resp, handler->HandleRemoveDoc(req));
      resp.Serialize(&out);
      break;
    }
    case MessageKind::kExportDoc: {
      ASSIGN_OR_RETURN(ExportDocRequest req,
                       ExportDocRequest::Deserialize(&in));
      ASSIGN_OR_RETURN(ExportDocResponse resp, handler->HandleExportDoc(req));
      resp.Serialize(&out);
      break;
    }
    case MessageKind::kRebaseDoc: {
      ASSIGN_OR_RETURN(RebaseDocRequest req,
                       RebaseDocRequest::Deserialize(&in));
      ASSIGN_OR_RETURN(AdminAck resp, handler->HandleRebaseDoc(req));
      resp.Serialize(&out);
      break;
    }
    case MessageKind::kPing: {
      ASSIGN_OR_RETURN(PingRequest req, PingRequest::Deserialize(&in));
      ASSIGN_OR_RETURN(PingResponse resp, handler->HandlePing(req));
      resp.Serialize(&out);
      break;
    }
    default:
      return Status::InvalidArgument("unknown message kind");
  }
  return out.Take();
}

Status ServerEndpoint::Probe() {
  // Distinct nonces across probes so a transport replaying a stale pong
  // (or a handler echoing a constant) is caught.
  static std::atomic<uint64_t> next_nonce{0x9e3779b97f4a7c15ull};
  PingRequest req;
  req.nonce = next_nonce.fetch_add(0x9e3779b9, std::memory_order_relaxed);
  auto resp = Ping(req);
  if (!resp.ok()) {
    if (resp.status().code() == StatusCode::kUnimplemented)
      return Status::Ok();  // pre-ping endpoint: unprobeable, not dead
    return resp.status();
  }
  if (resp->nonce != req.nonce)
    return Status::Corruption("ping response echoed the wrong nonce");
  return Status::Ok();
}

// --------------------------------------------------------------- loopback

template <typename Resp, typename Req>
Result<Resp> LoopbackEndpoint::Call(MessageKind kind, const Req& req) {
  ByteWriter up;
  req.Serialize(&up);
  CountUp(up.size());
  ASSIGN_OR_RETURN(std::vector<uint8_t> down,
                   DispatchSerialized(handler_, kind, up.span()));
  CountDown(down.size());
  ByteReader down_r(down);
  return Resp::Deserialize(&down_r);
}

Result<EvalResponse> LoopbackEndpoint::Eval(const EvalRequest& req) {
  return Call<EvalResponse>(MessageKind::kEval, req);
}

Result<FetchResponse> LoopbackEndpoint::Fetch(const FetchRequest& req) {
  return Call<FetchResponse>(MessageKind::kFetch, req);
}

Result<AdminAck> LoopbackEndpoint::AddDoc(const AddDocRequest& req) {
  return Call<AdminAck>(MessageKind::kAddDoc, req);
}

Result<AdminAck> LoopbackEndpoint::RemoveDoc(const RemoveDocRequest& req) {
  return Call<AdminAck>(MessageKind::kRemoveDoc, req);
}

Result<ExportDocResponse> LoopbackEndpoint::ExportDoc(
    const ExportDocRequest& req) {
  return Call<ExportDocResponse>(MessageKind::kExportDoc, req);
}

Result<AdminAck> LoopbackEndpoint::RebaseDoc(const RebaseDocRequest& req) {
  return Call<AdminAck>(MessageKind::kRebaseDoc, req);
}

Result<PingResponse> LoopbackEndpoint::Ping(const PingRequest& req) {
  return Call<PingResponse>(MessageKind::kPing, req);
}

// --------------------------------------------------------- fault injection

Status FaultInjectingEndpoint::Admit() {
  // Claim a call slot atomically so concurrent fan-out threads agree on
  // exactly which call kills the server.
  size_t c = calls_.load(std::memory_order_relaxed);
  do {
    if (c >= config_.fail_after_calls)
      return Status::Unavailable("server unreachable (injected fault)");
  } while (!calls_.compare_exchange_weak(c, c + 1, std::memory_order_relaxed));
  if (config_.latency_us > 0) {
    // A real sleep, not a recorded cost: the parallel fan-out bench relies
    // on per-server latencies genuinely overlapping in wall time.
    std::this_thread::sleep_for(std::chrono::microseconds(config_.latency_us));
  }
  return Status::Ok();
}

namespace {

/// Re-encode, flip one byte, re-decode. Position rotates with `salt` so
/// repeated calls corrupt different offsets.
template <typename Msg>
Result<Msg> CorruptBytes(const Msg& msg, size_t salt) {
  ByteWriter w;
  msg.Serialize(&w);
  std::vector<uint8_t> bytes = w.Take();
  if (!bytes.empty()) bytes[salt % bytes.size()] ^= 0x40;
  ByteReader r(bytes);
  return Msg::Deserialize(&r);
}

}  // namespace

Result<EvalResponse> FaultInjectingEndpoint::Eval(const EvalRequest& req) {
  RETURN_IF_ERROR(Admit());
  ASSIGN_OR_RETURN(EvalResponse resp, inner_->Eval(req));
  if (config_.tamper_eval) config_.tamper_eval(resp);
  if (config_.corrupt_response_bytes) return CorruptBytes(resp, calls());
  return resp;
}

Result<FetchResponse> FaultInjectingEndpoint::Fetch(const FetchRequest& req) {
  RETURN_IF_ERROR(Admit());
  ASSIGN_OR_RETURN(FetchResponse resp, inner_->Fetch(req));
  if (config_.tamper_fetch) config_.tamper_fetch(resp);
  if (config_.corrupt_response_bytes) return CorruptBytes(resp, calls());
  return resp;
}

Result<AdminAck> FaultInjectingEndpoint::AddDoc(const AddDocRequest& req) {
  RETURN_IF_ERROR(Admit());
  return inner_->AddDoc(req);
}

Result<AdminAck> FaultInjectingEndpoint::RemoveDoc(
    const RemoveDocRequest& req) {
  RETURN_IF_ERROR(Admit());
  return inner_->RemoveDoc(req);
}

Result<ExportDocResponse> FaultInjectingEndpoint::ExportDoc(
    const ExportDocRequest& req) {
  RETURN_IF_ERROR(Admit());
  return inner_->ExportDoc(req);
}

Result<AdminAck> FaultInjectingEndpoint::RebaseDoc(
    const RebaseDocRequest& req) {
  RETURN_IF_ERROR(Admit());
  return inner_->RebaseDoc(req);
}

Result<PingResponse> FaultInjectingEndpoint::Ping(const PingRequest& req) {
  RETURN_IF_ERROR(Admit());
  return inner_->Ping(req);
}

// ----------------------------------------------------------- group checks

Status EndpointGroup::Validate() const {
  if (endpoints.empty())
    return Status::InvalidArgument("endpoint group needs at least one server");
  for (const ServerEndpoint* ep : endpoints) {
    if (ep == nullptr)
      return Status::InvalidArgument("null endpoint in group");
  }
  switch (scheme) {
    case ShareScheme::kTwoParty:
      if (endpoints.size() != 1)
        return Status::InvalidArgument("two-party scheme takes one server");
      return Status::Ok();
    case ShareScheme::kAdditive:
      return Status::Ok();
    case ShareScheme::kShamir: {
      if (threshold < 1 || static_cast<size_t>(threshold) > endpoints.size())
        return Status::InvalidArgument("Shamir threshold out of range");
      if (shamir_x.size() != endpoints.size())
        return Status::InvalidArgument(
            "Shamir group needs one x coordinate per endpoint");
      std::unordered_set<uint64_t> seen;
      for (uint64_t x : shamir_x) {
        if (x == 0 || !seen.insert(x).second)
          return Status::InvalidArgument(
              "Shamir x coordinates must be distinct and nonzero");
      }
      return Status::Ok();
    }
  }
  return Status::InvalidArgument("unknown share scheme");
}

}  // namespace polysse
