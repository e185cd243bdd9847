// Wire framing shared by SocketServer and SocketEndpoint: tagged frames,
//
//   request :  [u8 MessageKind][u32le tag][u32le len][len bytes]
//   response:  [u8 StatusCode ][u32le tag][u32le len][len bytes]
//
// A client opens every connection with a hello frame (kind kHelloFrameKind,
// tag 0, payload = [protocol version]) and waits for the server's ack;
// after that any number of requests pipeline on the connection and
// responses return in completion order, keyed by tag. A server closes a
// connection whose first frame is not the hello.
//
// TagRouter is the client half of the tag discipline: it assigns tags,
// parks a waiter slot per in-flight request (capacity-capped — a
// misbehaving peer or runaway caller cannot alloc-bomb the pending map),
// and routes response frames back, rejecting unknown or duplicate tags.
#ifndef POLYSSE_NET_FRAME_H_
#define POLYSSE_NET_FRAME_H_

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "util/status.h"

namespace polysse {

/// Upper bound on a single frame's payload; a peer announcing more is
/// treated as corrupt (alloc-bomb guard, mirrors the codec-level limits).
inline constexpr uint32_t kMaxSocketFrameBytes = 256u << 20;  // 256 MiB

/// Kind byte of the hello frame that must open every connection. Outside
/// the MessageKind range, so the server can refuse any other first frame
/// from its first byte.
inline constexpr uint8_t kHelloFrameKind = 0x50;  // 'P' for pipelined

/// Protocol generation announced in the hello payload.
inline constexpr uint8_t kPipelineProtocolVersion = 2;

inline constexpr size_t kTaggedFrameHeaderBytes = 9;  // kind + tag + len

/// Decoded tagged-frame header.
struct TaggedFrameHeader {
  uint8_t kind = 0;
  uint32_t tag = 0;
  uint32_t len = 0;
};

/// Decodes a tagged header from the first kTaggedFrameHeaderBytes of
/// `bytes`. Fails on truncation and on length announcements beyond
/// kMaxSocketFrameBytes — before anything is allocated.
Result<TaggedFrameHeader> DecodeTaggedFrameHeader(
    std::span<const uint8_t> bytes);

/// Appends one tagged frame to `out`.
void AppendTaggedFrame(std::vector<uint8_t>* out, uint8_t kind, uint32_t tag,
                       std::span<const uint8_t> payload);

/// send() until done (handles partial writes and EINTR). MSG_NOSIGNAL: a
/// peer that hung up yields EPIPE instead of killing the process.
Status WriteFull(int fd, const uint8_t* data, size_t len);

/// read() until `len` bytes arrived. EOF mid-read is an error; EOF before
/// the first byte sets `*clean_eof_at_start` when non-null.
Status ReadFull(int fd, uint8_t* data, size_t len, bool* clean_eof_at_start);

/// Rebuilds a Status of the code a server reported across the wire.
Status StatusFromWire(uint8_t code, std::string msg);

/// One in-flight request's parking spot: the submitter blocks in Await
/// until the reader (or a connection teardown) delivers the result.
class PendingFrameSlot {
 public:
  /// Blocks until a result is delivered, then returns it (by move). Call
  /// at most once.
  Result<std::vector<uint8_t>> Await() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return result_.has_value(); });
    return std::move(*result_);
  }

  /// Delivers the result; later deliveries are dropped (first wins — the
  /// "never double-complete" half of the tag discipline).
  void Deliver(Result<std::vector<uint8_t>> result) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (result_.has_value()) return;
      result_ = std::move(result);
    }
    cv_.notify_all();
  }

  bool ready() const {
    std::lock_guard<std::mutex> lock(mu_);
    return result_.has_value();
  }

 private:
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::optional<Result<std::vector<uint8_t>>> result_;
};

/// Client-side tag bookkeeping for one pipelined connection: hands out
/// tags, tracks the pending slots, and routes response frames. Thread-safe
/// (submitters and the reader thread share it).
class TagRouter {
 public:
  /// Default cap on concurrently pending requests per connection.
  static constexpr size_t kDefaultMaxPending = 4096;

  explicit TagRouter(size_t max_pending = kDefaultMaxPending)
      : max_pending_(max_pending) {}

  /// Registers a new in-flight request. Fails with FailedPrecondition at
  /// capacity (the pending map never outgrows max_pending) and with
  /// Unavailable after FailAll closed the connection.
  Result<std::pair<uint32_t, std::shared_ptr<PendingFrameSlot>>> Register();

  /// Routes one response frame to its slot and retires the tag. A tag
  /// that is not pending — never issued, already answered (duplicate), or
  /// flushed by FailAll — is a protocol violation reported as Corruption.
  Status Complete(uint32_t tag, Result<std::vector<uint8_t>> result);

  /// Fails every pending request with `status` and closes the router:
  /// subsequent Register calls refuse. Idempotent.
  void FailAll(const Status& status);

  size_t pending() const {
    std::lock_guard<std::mutex> lock(mu_);
    return pending_.size();
  }

  bool closed() const {
    std::lock_guard<std::mutex> lock(mu_);
    return closed_;
  }

 private:
  const size_t max_pending_;
  mutable std::mutex mu_;
  bool closed_ = false;
  uint32_t next_tag_ = 1;
  std::unordered_map<uint32_t, std::shared_ptr<PendingFrameSlot>> pending_;
};

}  // namespace polysse

#endif  // POLYSSE_NET_FRAME_H_
