// The untrusted server of §4.2/§4.3. It stores one share tree — random-
// looking polynomials plus tree shape — and answers evaluation and fetch
// requests. It never sees tag values, queries (only evaluation points),
// or results.
#ifndef POLYSSE_CORE_SERVER_STORE_H_
#define POLYSSE_CORE_SERVER_STORE_H_

#include <algorithm>
#include <mutex>
#include <span>
#include <utility>
#include <vector>

#include "core/endpoint.h"
#include "core/poly_tree.h"
#include "core/protocol.h"
#include "util/bytes.h"
#include "util/status.h"

namespace polysse {

/// Test-only backdoor into the share tree (tests/testing/store_test_access.h).
struct ServerStoreTestAccess;

/// Server-side state and protocol handlers. Ring is FpCyclotomicRing or
/// ZQuotientRing. Implements ServerHandler, so it plugs into any
/// ServerEndpoint; each server of a multi-server deployment is simply one
/// ServerStore holding its own share tree.
///
/// Serving is thread-safe: the share tree is immutable after construction,
/// so concurrent HandleEval/HandleFetch calls (parallel fan-out, socket
/// connections, stress tests) only contend on the stats counters, which a
/// mutex guards.
template <typename Ring>
class ServerStore : public ServerHandler {
 public:
  /// Work counters (server-side cost model for E8/E9).
  struct Stats {
    size_t eval_requests = 0;
    size_t evals = 0;  ///< (node, point) polynomial evaluations
    size_t fetch_requests = 0;
    size_t polys_served_full = 0;
    size_t consts_served = 0;
  };

  ServerStore(const Ring& ring, PolyTree<Ring> share_tree)
      : ring_(ring), tree_(std::move(share_tree)) {}

  /// Movable (the stats mutex is per-object state, not shared). Moving a
  /// store that is concurrently serving is a caller bug.
  ServerStore(ServerStore&& other) noexcept
      : ring_(std::move(other.ring_)),
        tree_(std::move(other.tree_)),
        stats_(other.stats_) {}
  ServerStore(const ServerStore&) = delete;
  ServerStore& operator=(const ServerStore&) = delete;
  ServerStore& operator=(ServerStore&&) = delete;

  size_t size() const { return tree_.size(); }
  const Ring& ring() const { return ring_; }
  /// Exposed for tests and storage measurement; a real deployment would of
  /// course not share this object with the client.
  const PolyTree<Ring>& tree() const { return tree_; }

  /// Points per evaluator block. The client picks a request's point
  /// count, so the server tables point powers for this many at a time
  /// (a 1 MiB request of points would otherwise make a p = 67 server hold
  /// about half a GiB of powers); one block covers a batch-tcp-wan request.
  static constexpr size_t kEvalBlockPoints = 16;

  /// Calls fn(evaluator, first) for each block of kEvalBlockPoints of
  /// `points`, the evaluator covering points [first, first + its size).
  /// One block's table is alive at a time. Fails for a point the ring
  /// refuses.
  template <typename Fn>
  static Status ForEachEvalBlock(const Ring& ring,
                                 std::span<const uint64_t> points, Fn&& fn) {
    for (size_t b = 0; b < points.size(); b += kEvalBlockPoints) {
      const size_t n = std::min(kEvalBlockPoints, points.size() - b);
      ASSIGN_OR_RETURN(typename Ring::Evaluator ev,
                       ring.MakeEvaluator(points.subspan(b, n)));
      fn(ev, b);
    }
    return Status::Ok();
  }

  /// Evaluates the stored share of each requested node at each point.
  Result<EvalResponse> HandleEval(const EvalRequest& req) override {
    ASSIGN_OR_RETURN(EvalResponse resp,
                     EvalShape(req.node_ids, req.points.size()));
    if (!resp.entries.empty()) {
      RETURN_IF_ERROR(ForEachEvalBlock(
          ring_, req.points,
          [&](const typename Ring::Evaluator& ev, size_t first) {
            EvalBlock(ev, first, &resp);
          }));
    }
    CountEval(resp, req.points.size());
    return resp;
  }

  /// HandleEval's three steps, for a registry that answers one request
  /// from several stores and so builds each block's evaluator once for
  /// all of them. EvalShape checks the ids and returns one entry per id
  /// with room for `num_points` values; EvalBlock fills the values at the
  /// evaluator's points, the first of which is point `first`; CountEval
  /// records the answered request in stats().
  Result<EvalResponse> EvalShape(const std::vector<int32_t>& node_ids,
                                 size_t num_points) const {
    EvalResponse resp;
    resp.entries.reserve(node_ids.size());
    for (int32_t id : node_ids) {
      RETURN_IF_ERROR(CheckId(id));
      const auto& node = tree_.nodes[id];
      EvalEntry entry;
      entry.node_id = id;
      entry.values.resize(num_points);
      entry.children.assign(node.children.begin(), node.children.end());
      entry.subtree_size = node.subtree_size;
      resp.entries.push_back(std::move(entry));
    }
    return resp;
  }
  void EvalBlock(const typename Ring::Evaluator& ev, size_t first,
                 EvalResponse* resp) const {
    for (EvalEntry& entry : resp->entries) {
      const auto& poly = tree_.nodes[entry.node_id].poly;
      for (size_t k = 0; k < ev.size(); ++k)
        entry.values[first + k] = ev.At(poly, k);
    }
  }
  void CountEval(const EvalResponse& resp, size_t num_points) {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.eval_requests;
    stats_.evals += resp.entries.size() * num_points;
  }

  /// Serves share polynomials (full) or their constant coefficients.
  Result<FetchResponse> HandleFetch(const FetchRequest& req) override {
    FetchResponse resp;
    resp.entries.reserve(req.node_ids.size());
    ByteWriter w;  // one encoder; each payload is copied out at its size
    for (int32_t id : req.node_ids) {
      RETURN_IF_ERROR(CheckId(id));
      FetchEntry entry;
      entry.node_id = id;
      w.Clear();
      if (req.mode == FetchMode::kFull) {
        ring_.Serialize(tree_.nodes[id].poly, &w);
      } else {
        ring_.SerializeScalar(ring_.ConstTerm(tree_.nodes[id].poly), &w);
      }
      entry.payload.assign(w.bytes().begin(), w.bytes().end());
      resp.entries.push_back(std::move(entry));
    }
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_.fetch_requests;
      if (req.mode == FetchMode::kFull) {
        stats_.polys_served_full += req.node_ids.size();
      } else {
        stats_.consts_served += req.node_ids.size();
      }
    }
    return resp;
  }

  /// Bytes the server persists: every share polynomial plus the tree shape
  /// (parent + child count as varints). This is the measured side of the
  /// §5 storage comparison (E7).
  size_t PersistedBytes() const {
    ByteWriter w;
    w.PutVarint64(tree_.size());
    for (const auto& node : tree_.nodes) {
      w.PutVarintSigned64(node.parent);
      w.PutVarint64(node.children.size());
      ring_.Serialize(node.poly, &w);
    }
    return w.size();
  }

  /// Snapshot of the work counters (serving may be in flight concurrently).
  Stats stats() const {
    std::lock_guard<std::mutex> lock(stats_mu_);
    return stats_;
  }
  void ResetStats() {
    std::lock_guard<std::mutex> lock(stats_mu_);
    stats_ = Stats();
  }

 private:
  friend struct ServerStoreTestAccess;

  Status CheckId(int32_t id) const {
    if (id < 0 || static_cast<size_t>(id) >= tree_.size())
      return Status::InvalidArgument("node id " + std::to_string(id) +
                                     " out of range");
    return Status::Ok();
  }

  Ring ring_;
  PolyTree<Ring> tree_;
  mutable std::mutex stats_mu_;
  Stats stats_;
};

}  // namespace polysse

#endif  // POLYSSE_CORE_SERVER_STORE_H_
