#include "net/frame.h"

#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace polysse {

namespace {

Status Errno(const std::string& what) {
  return Status::Unavailable(what + ": " + std::strerror(errno));
}

void PutU32Le(std::vector<uint8_t>* out, uint32_t v) {
  out->push_back(static_cast<uint8_t>(v));
  out->push_back(static_cast<uint8_t>(v >> 8));
  out->push_back(static_cast<uint8_t>(v >> 16));
  out->push_back(static_cast<uint8_t>(v >> 24));
}

uint32_t GetU32Le(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}

}  // namespace

Result<TaggedFrameHeader> DecodeTaggedFrameHeader(
    std::span<const uint8_t> bytes) {
  if (bytes.size() < kTaggedFrameHeaderBytes)
    return Status::Corruption("truncated tagged frame header: " +
                              std::to_string(bytes.size()) + " of " +
                              std::to_string(kTaggedFrameHeaderBytes) +
                              " bytes");
  TaggedFrameHeader h;
  h.kind = bytes[0];
  h.tag = GetU32Le(bytes.data() + 1);
  h.len = GetU32Le(bytes.data() + 5);
  if (h.len > kMaxSocketFrameBytes)
    return Status::Corruption("frame length " + std::to_string(h.len) +
                              " exceeds the " +
                              std::to_string(kMaxSocketFrameBytes) +
                              "-byte limit");
  return h;
}

void AppendTaggedFrame(std::vector<uint8_t>* out, uint8_t kind, uint32_t tag,
                       std::span<const uint8_t> payload) {
  out->reserve(out->size() + kTaggedFrameHeaderBytes + payload.size());
  out->push_back(kind);
  PutU32Le(out, tag);
  PutU32Le(out, static_cast<uint32_t>(payload.size()));
  out->insert(out->end(), payload.begin(), payload.end());
}

Status WriteFull(int fd, const uint8_t* data, size_t len) {
  while (len > 0) {
    ssize_t n = ::send(fd, data, len, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Errno("socket write");
    }
    data += n;
    len -= static_cast<size_t>(n);
  }
  return Status::Ok();
}

Status ReadFull(int fd, uint8_t* data, size_t len, bool* clean_eof_at_start) {
  bool first = true;
  while (len > 0) {
    ssize_t n = ::read(fd, data, len);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Errno("socket read");
    }
    if (n == 0) {
      if (first && clean_eof_at_start != nullptr) *clean_eof_at_start = true;
      return Status::Unavailable("connection closed");
    }
    first = false;
    data += n;
    len -= static_cast<size_t>(n);
  }
  return Status::Ok();
}

Status StatusFromWire(uint8_t code, std::string msg) {
  switch (static_cast<StatusCode>(code)) {
    case StatusCode::kOk:
      return Status::Ok();
    case StatusCode::kInvalidArgument:
      return Status::InvalidArgument(std::move(msg));
    case StatusCode::kNotFound:
      return Status::NotFound(std::move(msg));
    case StatusCode::kOutOfRange:
      return Status::OutOfRange(std::move(msg));
    case StatusCode::kCorruption:
      return Status::Corruption(std::move(msg));
    case StatusCode::kFailedPrecondition:
      return Status::FailedPrecondition(std::move(msg));
    case StatusCode::kVerificationFailed:
      return Status::VerificationFailed(std::move(msg));
    case StatusCode::kUnimplemented:
      return Status::Unimplemented(std::move(msg));
    case StatusCode::kInternal:
      return Status::Internal(std::move(msg));
    case StatusCode::kUnavailable:
      return Status::Unavailable(std::move(msg));
  }
  return Status::Corruption("server reported unknown status code " +
                            std::to_string(code));
}

Result<std::pair<uint32_t, std::shared_ptr<PendingFrameSlot>>>
TagRouter::Register() {
  std::lock_guard<std::mutex> lock(mu_);
  if (closed_) return Status::Unavailable("connection closed");
  if (pending_.size() >= max_pending_)
    return Status::FailedPrecondition(
        std::to_string(pending_.size()) +
        " requests already in flight (pending-tag cap)");
  // Skip tag 0 (reserved for the hello exchange) and, after a wrap, any
  // tag still owned by an in-flight request.
  while (next_tag_ == 0 || pending_.count(next_tag_)) ++next_tag_;
  const uint32_t tag = next_tag_++;
  auto slot = std::make_shared<PendingFrameSlot>();
  pending_.emplace(tag, slot);
  return std::make_pair(tag, std::move(slot));
}

Status TagRouter::Complete(uint32_t tag,
                           Result<std::vector<uint8_t>> result) {
  std::shared_ptr<PendingFrameSlot> slot;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = pending_.find(tag);
    if (it == pending_.end())
      return Status::Corruption("response carries unknown or duplicate tag " +
                                std::to_string(tag));
    slot = std::move(it->second);
    pending_.erase(it);
  }
  slot->Deliver(std::move(result));
  return Status::Ok();
}

void TagRouter::FailAll(const Status& status) {
  std::unordered_map<uint32_t, std::shared_ptr<PendingFrameSlot>> flushed;
  {
    std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
    flushed.swap(pending_);
  }
  for (auto& [tag, slot] : flushed) slot->Deliver(status);
}

}  // namespace polysse
