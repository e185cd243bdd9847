// Event-loop TCP server for the wire protocol: one epoll thread owns every
// connection's read buffer, frame parser and write queue; decoded requests
// are dispatched onto a worker ThreadPool and completed responses are
// written back as they finish, so many requests from one connection execute
// concurrently and responses return out of order (keyed by frame tag).
//
// Connection state machine (net/frame.h has the byte layout):
//
//        accept
//          │
//     awaiting hello ── hello frame (0x50, v2) ──► serving: ack, then
//          │                                       pipelined tagged frames
//          └── any other first byte ─────────────► closed, no reply
//
// A serving connection dispatches every complete frame immediately (up to
// a per-connection in-flight cap, the tag-flood guard) and each response
// carries its request's tag.
//
//   auto server = SocketServer::Listen(&registry, /*port=*/0);
//   printf("serving on %u\n", (*server)->port());
//
// Stop() is drain-safe: it stops accepting and reading, but every request
// already dispatched gets its response written (bounded by
// Options::drain_timeout_ms) before connections close — a response is never
// lost or sent twice across shutdown.
#ifndef POLYSSE_NET_SOCKET_SERVER_H_
#define POLYSSE_NET_SOCKET_SERVER_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/endpoint.h"
#include "net/frame.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace polysse {

/// Serves one ServerHandler over loopback-reachable TCP through an epoll
/// event loop plus a worker pool. The handler must be thread-safe
/// (ServerStoreRegistry is): tagged connections dispatch concurrently.
class SocketServer {
 public:
  struct Options {
    /// Worker threads executing handler dispatches.
    size_t worker_threads = 4;
    /// Per-connection cap on dispatched-but-unanswered requests. A
    /// connection exceeding it is closed — the tag-flood / alloc-bomb
    /// guard for the server's in-flight state.
    size_t max_inflight_per_connection = 256;
    /// How long Stop() keeps flushing in-flight responses to clients that
    /// are slow to read before closing their connections anyway.
    uint32_t drain_timeout_ms = 3000;
  };

  /// Binds 127.0.0.1:`port` (0 picks an ephemeral port — read `port()`),
  /// starts the event loop, and serves until Stop() or destruction.
  static Result<std::unique_ptr<SocketServer>> Listen(ServerHandler* handler,
                                                      uint16_t port);
  static Result<std::unique_ptr<SocketServer>> Listen(ServerHandler* handler,
                                                      uint16_t port,
                                                      Options options);

  ~SocketServer();
  SocketServer(const SocketServer&) = delete;
  SocketServer& operator=(const SocketServer&) = delete;

  /// The bound TCP port.
  uint16_t port() const { return port_; }

  /// Connections accepted so far (test/diagnostic visibility).
  size_t connections_accepted() const {
    return connections_accepted_.load(std::memory_order_relaxed);
  }

  /// Connections that completed the hello exchange.
  size_t pipelined_connections() const {
    return pipelined_connections_.load(std::memory_order_relaxed);
  }

  /// Stops accepting and reading, drains in-flight responses (bounded by
  /// Options::drain_timeout_ms), closes every connection and joins the
  /// event loop and workers. Idempotent; the destructor calls it.
  void Stop();

 private:
  /// One live connection, owned by the event loop.
  struct Connection {
    int fd = -1;
    uint64_t id = 0;
    bool greeted = false;       ///< hello acked: requests may follow
    std::vector<uint8_t> in;    ///< received, not yet parsed
    std::deque<std::vector<uint8_t>> out;  ///< framed responses to write
    size_t out_off = 0;         ///< bytes of out.front() already written
    size_t inflight = 0;        ///< dispatched, response not yet queued
    bool read_closed = false;   ///< EOF seen / reads retired; flush & close
    bool want_write = false;    ///< EPOLLOUT currently armed
  };

  /// A finished dispatch travelling from a worker back to the event loop.
  struct Completion {
    uint64_t conn_id = 0;
    std::vector<uint8_t> frame;  ///< fully framed response bytes
  };

  SocketServer(ServerHandler* handler, int listen_fd, uint16_t port,
               Options options);

  void LoopThread();
  void HandleAccepts();
  void HandleReadable(Connection* conn);
  void HandleWritable(Connection* conn);
  /// Parses every complete frame in conn->in; returns false when the
  /// connection must close (no hello first, framing violation, flood).
  bool ParseFrames(Connection* conn);
  /// Hands one request to the worker pool; its response carries `tag`.
  void DispatchRequest(Connection* conn, uint8_t kind, uint32_t tag,
                       std::vector<uint8_t> payload);
  void QueueResponse(Connection* conn, std::vector<uint8_t> frame);
  void FlushWrites(Connection* conn);
  void UpdateInterest(Connection* conn);
  void CloseConnection(uint64_t conn_id);
  /// Closes `conn` once reads are over and nothing is left to answer or
  /// write (`conn` is dangling afterwards).
  void CloseIfDone(Connection* conn);
  void DrainCompletions();
  /// True once every connection has neither in-flight dispatches nor
  /// unwritten response bytes.
  bool FullyDrained() const;

  ServerHandler* const handler_;
  const Options options_;
  int listen_fd_;
  const uint16_t port_;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;

  std::atomic<bool> stop_requested_{false};
  std::atomic<size_t> connections_accepted_{0};
  std::atomic<size_t> pipelined_connections_{0};

  // Event-loop-owned state (no locking needed there).
  uint64_t next_conn_id_ = 1;
  std::unordered_map<uint64_t, std::unique_ptr<Connection>> conns_;

  // Worker -> event loop handoff.
  std::mutex done_mu_;
  std::vector<Completion> done_;

  std::once_flag stop_once_;
  std::thread loop_thread_;
  std::unique_ptr<ThreadPool> workers_;
};

}  // namespace polysse

#endif  // POLYSSE_NET_SOCKET_SERVER_H_
