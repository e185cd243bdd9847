// The query protocol of §4.3, client side. One QuerySession drives lookups
// against a group of ServerEndpoints through the serialized wire protocol:
//
//  * Element lookup //tag: top-down BFS; each round every live server
//    evaluates the frontier's share polynomials at e = map(tag), the client
//    combines the answers (adding its own share evaluations in the additive
//    schemes, Lagrange-interpolating in Shamir t-of-n), and only nodes whose
//    combined value is 0 are expanded — dead branches are pruned without any
//    server ever touching them (the paper's "smart index").
//  * Answer determination: a zero node with no zero child is a definite
//    match; other zero nodes are disambiguated by reconstructing the node's
//    tag via Theorems 1/2 (which simultaneously verifies an untrusted
//    server's answers through the Eq. 3 coefficient checks).
//  * Advanced XPath //a/b//c (paper §4.3 "Advanced Querying"): left-to-right
//    stepping, or the paper's preferred all-at-once strategy that filters
//    every branch against the whole query's point set in a single pass.
//
// All three share schemes (§4.2's 2-party split, additive client+k servers,
// Shamir t-of-n) run through the same EvalRequest/FetchRequest exchange;
// only the client-side combination differs. Under Shamir, a server that
// stops answering is marked dead and replaced by another live one as long
// as at least `threshold` remain.
//
// Per-round subrequests to the k servers fan out through the group's
// Executor: sequentially inline by default, concurrently when the group
// carries a ThreadPool — results are gathered into per-server slots, so the
// combined answers are bit-identical either way and only wall time changes.
//
// Verification fetches follow one of two schedules, chosen per walk by the
// endpoints. Over pipelined endpoints each BFS round's candidate fetches go
// on the wire as soon as that round's zeros are known and overlap the rest
// of the walk; every other endpoint plans all fetches after the walk and
// issues one const-only and one full round. Both are kept on purpose: per
// round fetches on a synchronous endpoint only add messages (they would
// raise msgs_per_op on the in-process lookup workloads), while dropping the
// overlap would cost pipelined TCP links their latency win (the 14x
// pipelined_transport row, and batch-tcp-wan). The two share one server
// chooser (ActiveServers), one response check (Aligned) and one weights
// helper (Weights).
#ifndef POLYSSE_CORE_QUERY_SESSION_H_
#define POLYSSE_CORE_QUERY_SESSION_H_

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/client_context.h"
#include "core/endpoint.h"
#include "core/protocol.h"
#include "mpc/shamir.h"
#include "nt/modular.h"
#include "xpath/xpath.h"

namespace polysse {

/// How much the client trusts the server (paper §4.3, discussion of Eq. 3).
enum class VerifyMode {
  /// No reconstruction: definite answers are zero nodes without zero
  /// children. Cheapest; cannot detect a cheating server, and in the
  /// Z[x]/(r) ring the evaluation filter may let false positives through.
  kOptimistic,
  /// Reconstruct every candidate's tag with full share polynomials and check
  /// all coefficient equations (Eq. 3) — rejects cheating servers.
  kVerified,
  /// The paper's trusted-server optimization: transfer only constant
  /// coefficients ("only the last equation is enough"), falling back to a
  /// full fetch for nodes whose true polynomial wraps the ring.
  kTrustedConstOnly,
};

/// §4.3 advanced-query evaluation order.
enum class XPathStrategy {
  kLeftToRight,  ///< evaluate steps one by one
  kAllAtOnce,    ///< filter branches against all query points simultaneously
};

/// One query answer.
struct MatchedNode {
  int32_t node_id = 0;
  std::string path;  ///< child-index path, e.g. "0/2" ("" = root)

  bool operator==(const MatchedNode& o) const {
    return node_id == o.node_id && path == o.path;
  }
};

/// Result of a lookup or XPath evaluation.
struct LookupResult {
  /// Confirmed matches in document order.
  std::vector<MatchedNode> matches;
  /// kOptimistic only: zero nodes that *may* additionally match (the paper's
  /// "may or may not represent correct answers").
  std::vector<MatchedNode> possible;
  QueryStats stats;
};

/// One element lookup of a batch: the tag plus its own verify mode.
struct TagQuery {
  std::string tag;
  VerifyMode mode = VerifyMode::kVerified;
};

/// One starting point of a session's walks. A single-document deployment
/// has the one root {0, ""}; a collection session carries one root per
/// document — the document's global root id plus its client-share path
/// prefix — and every walk descends all of them in one shared frontier.
struct SessionRoot {
  int32_t node_id = 0;
  /// The root node's path in the client-share PRF namespace ("" for a
  /// single-tree deployment; a collection uses per-document prefixes).
  std::string path;
};

/// Result of a batched multi-tag lookup: one entry per requested tag, plus
/// the shared protocol cost (a single BFS walk answers all tags at once via
/// multi-point evaluation requests).
struct MultiLookupResult {
  std::vector<LookupResult> per_tag;  ///< aligned with the request order
  QueryStats stats;                   ///< aggregate cost of the shared walk
};

template <typename Ring>
class QuerySession {
 public:
  /// Transport-aware session: the scheme and servers come from `group`,
  /// the walk starts from `roots` (default: the single document root 0).
  /// A collection passes one root per document; every query then runs one
  /// shared BFS over all of them — per round ONE EvalRequest per server
  /// covers the whole cross-document frontier.
  QuerySession(ClientContext<Ring>* client, EndpointGroup group,
               std::vector<SessionRoot> roots = {{0, ""}})
      : client_(client), group_(std::move(group)), roots_(std::move(roots)) {
    init_status_ = group_.Validate();
    if (init_status_.ok() && group_.scheme == ShareScheme::kShamir &&
        !std::is_same_v<Ring, FpCyclotomicRing>) {
      init_status_ =
          Status::Unimplemented("Shamir t-of-n requires the F_p ring");
    }
    for (const SessionRoot& r : roots_) root_ids_.insert(r.node_id);
    dead_.assign(group_.endpoints.size(), 0);
  }

  /// Element lookup //tagname. An unmapped tag short-circuits to an empty
  /// result without contacting the server (the map is client-private).
  /// A one-query LookupBatch: the shared-frontier walk degenerates to
  /// exactly the classic pruned descent (same requests, same rounds), and
  /// single lookups inherit the batch path's pipelined fetch overlap.
  Result<LookupResult> Lookup(std::string_view tagname, VerifyMode mode) {
    TagQuery query{std::string(tagname), mode};
    ASSIGN_OR_RETURN(MultiLookupResult multi,
                     LookupBatch(std::span<const TagQuery>(&query, 1)));
    LookupResult result = std::move(multi.per_tag[0]);
    result.stats = multi.stats;
    return result;
  }

  /// Batched element lookup: answers several //tag queries with ONE pruned
  /// walk. The frontier descends wherever *any* requested point vanishes,
  /// and every eval request carries all points, so the per-tag marginal
  /// cost is a word per node instead of a full round. Unmapped tags yield
  /// empty entries. Each query resolves under its own verify mode; the
  /// fetch/reconstruction caches are shared across the whole batch.
  Result<MultiLookupResult> LookupBatch(std::span<const TagQuery> queries) {
    RETURN_IF_ERROR(BeginQuery());
    MultiLookupResult out;
    out.per_tag.resize(queries.size());

    // Map the tags; deduplicate points (repeated tags share work).
    std::vector<uint64_t> points;
    std::vector<int> tag_point(queries.size(), -1);  // index into `points`
    for (size_t i = 0; i < queries.size(); ++i) {
      auto e_or = client_->tag_map().Value(queries[i].tag);
      if (!e_or.ok()) continue;
      RETURN_IF_ERROR(client_->ring().QueryModulus(*e_or).status());
      auto it = std::find(points.begin(), points.end(), *e_or);
      if (it == points.end()) {
        tag_point[i] = static_cast<int>(points.size());
        points.push_back(*e_or);
      } else {
        tag_point[i] = static_cast<int>(it - points.begin());
      }
    }
    if (points.empty()) {
      FinishStats(&out.stats);
      return out;
    }

    // Shared BFS: expand while ANY point vanishes. Over a pipelined
    // transport the verification fetches for each round's zero candidates
    // are submitted as soon as the round's evaluations land — the next BFS
    // round's EvalRequests then go out while those fetches drain, keeping
    // several protocol rounds in flight on one connection. Sequential
    // transports skip this: they'd gain nothing and the classic
    // plan-then-fetch shape keeps their round/message counts bit-stable.
    const bool overlap = AllEndpointsPipelined();
    std::vector<int32_t> frontier = RootIds();
    std::unordered_set<int32_t> seen(frontier.begin(), frontier.end());
    std::vector<std::vector<int32_t>> zeros_per_point(points.size());
    while (!frontier.empty()) {
      RETURN_IF_ERROR(EnsureEvals(frontier, points));
      std::vector<int32_t> next;
      std::vector<std::vector<int32_t>> round_zeros(points.size());
      for (int32_t id : frontier) {
        bool any_zero = false;
        for (size_t k = 0; k < points.size(); ++k) {
          if (combined_evals_.at({id, points[k]}) == 0) {
            zeros_per_point[k].push_back(id);
            round_zeros[k].push_back(id);
            any_zero = true;
          }
        }
        if (!any_zero) continue;
        for (int32_t c : info_[id].children) {
          if (seen.insert(c).second) next.push_back(c);
        }
      }
      if (overlap) {
        std::vector<int32_t> round_consts, round_polys;
        for (size_t i = 0; i < queries.size(); ++i) {
          if (tag_point[i] < 0) continue;
          RETURN_IF_ERROR(PlanCandidateFetches(round_zeros[tag_point[i]],
                                               queries[i].mode, &round_consts,
                                               &round_polys));
        }
        StartFetchRound(FetchMode::kConstOnly, round_consts);
        StartFetchRound(FetchMode::kFull, round_polys);
      }
      frontier = std::move(next);
    }
    if (overlap) RETURN_IF_ERROR(AwaitInflightFetches());

    // Resolve answers per query, sharing the fetch/reconstruction caches.
    // All queries' verification needs are planned into shared batched fetch
    // rounds up front (one const-only, one full, per server); with the
    // pipelined overlap above these are cache hits and cost no round.
    std::vector<int32_t> consts, polys;
    for (size_t i = 0; i < queries.size(); ++i) {
      if (tag_point[i] < 0) continue;
      RETURN_IF_ERROR(PlanCandidateFetches(zeros_per_point[tag_point[i]],
                                           queries[i].mode, &consts, &polys));
    }
    RETURN_IF_ERROR(PrefetchConsts(consts));
    RETURN_IF_ERROR(PrefetchPolys(polys));
    for (size_t i = 0; i < queries.size(); ++i) {
      if (tag_point[i] < 0) continue;  // unmapped
      const uint64_t e = points[tag_point[i]];
      for (int32_t z : zeros_per_point[tag_point[i]]) {
        RETURN_IF_ERROR(ResolveCandidate(z, e, queries[i].mode,
                                         &out.per_tag[i].matches,
                                         &out.per_tag[i].possible));
      }
      SortMatches(&out.per_tag[i].matches);
      SortMatches(&out.per_tag[i].possible);
    }
    FinishStats(&out.stats);
    for (auto& r : out.per_tag) r.stats = out.stats;  // shared-cost view
    return out;
  }

  /// Single-mode convenience over LookupBatch.
  Result<MultiLookupResult> LookupMany(const std::vector<std::string>& tags,
                                       VerifyMode mode) {
    std::vector<TagQuery> queries;
    queries.reserve(tags.size());
    for (const std::string& t : tags) queries.push_back({t, mode});
    return LookupBatch(queries);
  }

  /// Advanced XPath query (§4.3). kOptimistic is promoted to kVerified —
  /// multi-step navigation needs exact tag identification at every step.
  Result<LookupResult> EvaluateXPath(const XPathQuery& query,
                                     XPathStrategy strategy, VerifyMode mode) {
    RETURN_IF_ERROR(BeginQuery());
    if (mode == VerifyMode::kOptimistic) mode = VerifyMode::kVerified;
    LookupResult result;

    std::vector<uint64_t> points(query.steps().size());
    for (size_t i = 0; i < query.steps().size(); ++i) {
      auto e_or = client_->tag_map().Value(query.steps()[i].name);
      if (!e_or.ok()) {
        FinishStats(&result.stats);
        return result;  // unmapped name can never match
      }
      points[i] = *e_or;
      RETURN_IF_ERROR(client_->ring().QueryModulus(points[i]).status());
    }

    std::set<int32_t> final_ids;
    if (strategy == XPathStrategy::kLeftToRight) {
      RETURN_IF_ERROR(RunLeftToRight(query, points, mode, &final_ids));
    } else {
      std::set<std::pair<int32_t, size_t>> memo;
      RETURN_IF_ERROR(
          RunAllAtOnce(query, points, mode, kVirtualRoot, 0, &memo, &final_ids));
    }
    for (int32_t id : final_ids) result.matches.push_back({id, info_[id].path});
    SortMatches(&result.matches);
    FinishStats(&result.stats);
    return result;
  }

  /// The transport configuration this session talks through.
  const EndpointGroup& endpoint_group() const { return group_; }

 private:
  using Elem = typename Ring::Elem;
  using Scalar = typename Ring::Scalar;

  static constexpr int32_t kVirtualRoot = -1;

  /// Client-side picture of a server node, learned from EvalResponses.
  struct NodeInfo {
    std::string path;
    std::vector<int32_t> children;
    int32_t subtree_size = 0;
    bool known = false;
  };

  /// Whether the client's own PRF share participates in combination
  /// (everything but Shamir, where the client holds no share).
  bool include_client() const {
    return group_.scheme != ShareScheme::kShamir;
  }

  /// The node ids every walk starts from (one per document).
  std::vector<int32_t> RootIds() const {
    std::vector<int32_t> ids;
    ids.reserve(roots_.size());
    for (const SessionRoot& r : roots_) ids.push_back(r.node_id);
    return ids;
  }

  Status BeginQuery() {
    RETURN_IF_ERROR(init_status_);
    stats_ = QueryStats();
    counters_before_ = SumCounters();
    info_.clear();
    // Root paths are known a priori (the client assigned them at
    // outsourcing time); everything else is learned from EvalResponses.
    for (const SessionRoot& r : roots_) info_[r.node_id].path = r.path;
    combined_evals_.clear();
    combined_polys_.clear();
    combined_consts_.clear();
    client_shares_.clear();
    visited_.clear();
    inflight_fetches_.clear();
    early_consts_requested_.clear();
    early_polys_requested_.clear();
    return Status::Ok();
  }

  void FinishStats(QueryStats* out) {
    stats_.nodes_visited = visited_.size();
    const TransportCounters now = SumCounters();
    stats_.transport.bytes_up = now.bytes_up - counters_before_.bytes_up;
    stats_.transport.bytes_down = now.bytes_down - counters_before_.bytes_down;
    stats_.transport.messages_up =
        now.messages_up - counters_before_.messages_up;
    stats_.transport.messages_down =
        now.messages_down - counters_before_.messages_down;
    *out = stats_;
  }

  TransportCounters SumCounters() const {
    TransportCounters sum;
    for (const ServerEndpoint* ep : group_.endpoints) sum.Add(ep->counters());
    return sum;
  }

  static void SortMatches(std::vector<MatchedNode>* v) {
    std::sort(v->begin(), v->end(),
              [](const MatchedNode& a, const MatchedNode& b) {
                return a.node_id < b.node_id;  // preorder == document order
              });
  }

  /// Shared per-candidate answer determination of Lookup / LookupBatch.
  Status ResolveCandidate(int32_t z, uint64_t e, VerifyMode mode,
                          std::vector<MatchedNode>* matches,
                          std::vector<MatchedNode>* possible) {
    ASSIGN_OR_RETURN(bool definite, HasNoZeroChild(z, e));
    if (mode == VerifyMode::kOptimistic) {
      if (definite) {
        matches->push_back({z, info_[z].path});
      } else {
        possible->push_back({z, info_[z].path});
      }
      return Status::Ok();
    }
    ASSIGN_OR_RETURN(uint64_t t, ReconstructTag(z, mode));
    if (t == e) {
      matches->push_back({z, info_[z].path});
    } else if (definite) {
      // The evaluation filter said "match" but the tag differs: a Z-ring
      // false positive (or a cheating server, which kVerified rejects
      // earlier inside SolveTag).
      ++stats_.false_positives_removed;
    }
    return Status::Ok();
  }

  // ------------------------------------------------------------- transport

  /// Dispatches `fn` to every server in `targets` through the group's
  /// executor — concurrently on a pooled executor, in index order inline —
  /// and gathers the per-server results in target order. The gathered slots
  /// make the outcome independent of completion order, so pooled and inline
  /// execution are bit-identical.
  template <typename Resp, typename Fn>
  std::vector<Result<Resp>> Dispatch(const std::vector<size_t>& targets,
                                     Fn& fn) {
    std::vector<Result<Resp>> results(
        targets.size(), Result<Resp>(Status::Internal("subrequest not run")));
    group_.executor_or_inline()->ParallelFor(
        targets.size(),
        [&](size_t j) { results[j] = fn(group_.endpoints[targets[j]]); });
    return results;
  }

  /// The servers a request goes to: all of them in the additive schemes;
  /// under Shamir the first `threshold` live ones, or Unavailable when
  /// fewer remain.
  Result<std::vector<size_t>> ActiveServers() const {
    std::vector<size_t> chosen;
    if (group_.scheme != ShareScheme::kShamir) {
      for (size_t i = 0; i < group_.endpoints.size(); ++i) chosen.push_back(i);
      return chosen;
    }
    const size_t t = static_cast<size_t>(group_.threshold);
    for (size_t i = 0; i < group_.endpoints.size() && chosen.size() < t; ++i)
      if (!dead_[i]) chosen.push_back(i);
    if (chosen.size() < t)
      return Status::Unavailable(
          "only " + std::to_string(chosen.size()) + " of the required " +
          std::to_string(t) + " servers are reachable");
    return chosen;
  }

  /// Combination weight of each answer from `servers`: 1 in the additive
  /// schemes, the Lagrange weights at zero of their x under Shamir.
  Result<std::vector<uint64_t>> Weights(
      const std::vector<size_t>& servers) const {
    if constexpr (std::is_same_v<Ring, FpCyclotomicRing>) {
      if (group_.scheme == ShareScheme::kShamir) {
        std::vector<uint64_t> xs;
        xs.reserve(servers.size());
        for (size_t idx : servers) xs.push_back(group_.shamir_x[idx]);
        return LagrangeWeightsAtZero(client_->ring().field(), xs);
      }
    }
    return std::vector<uint64_t>(servers.size(), 1);
  }

  /// True when `resp` answers exactly `need`: one entry per requested id,
  /// in request order. Checked before anything indexes into a response.
  static bool Aligned(const FetchResponse& resp,
                      const std::vector<int32_t>& need) {
    if (resp.entries.size() != need.size()) return false;
    for (size_t j = 0; j < need.size(); ++j)
      if (resp.entries[j].node_id != need[j]) return false;
    return true;
  }

  /// Calls `fn` on the ActiveServers — all of them concurrently when the
  /// group carries a pooled executor, so k-server wall time is one round
  /// trip, not k — and reports the combination weight of each answer.
  /// Additive schemes require every server; under Shamir a failing server
  /// is marked dead and the call retries with replacements as long as at
  /// least `threshold` remain. When `sources` is non-null it receives the
  /// endpoint index each response came from, so callers that detect a
  /// malformed answer can attribute it to a server.
  template <typename Resp, typename Fn>
  Result<std::vector<Resp>> FanOut(Fn&& fn, std::vector<uint64_t>* weights,
                                   std::vector<size_t>* sources = nullptr) {
    for (;;) {
      ASSIGN_OR_RETURN(std::vector<size_t> chosen, ActiveServers());
      std::vector<Result<Resp>> results = Dispatch<Resp>(chosen, fn);
      std::vector<Resp> responses;
      responses.reserve(results.size());
      bool failed = false;
      for (size_t j = 0; j < chosen.size(); ++j) {
        if (results[j].ok()) {
          responses.push_back(std::move(results[j]).value());
          continue;
        }
        if (group_.scheme != ShareScheme::kShamir) return results[j].status();
        dead_[chosen[j]] = 1;  // stays dead for the rest of the session
        ++stats_.server_failovers;
        failed = true;
      }
      if (failed) continue;
      ASSIGN_OR_RETURN(*weights, Weights(chosen));
      if (sources != nullptr) *sources = std::move(chosen);
      return responses;
    }
  }

  /// Weighted server contribution for whole-element combination. Weights
  /// other than 1 only arise under Shamir, which is F_p-only.
  Elem ScaledPart(Elem part, uint64_t w) const {
    if constexpr (std::is_same_v<Ring, FpCyclotomicRing>) {
      if (w != 1) return part.ScalarMul(w);
    }
    (void)w;
    return part;
  }
  Scalar ScaledScalar(Scalar c, uint64_t w) const {
    if constexpr (std::is_same_v<Ring, FpCyclotomicRing>) {
      if (w != 1) return client_->ring().field().Mul(c, w);
    }
    (void)w;
    return c;
  }

  // ------------------------------------------------------ combined evals

  Result<const Elem*> ClientShare(int32_t id) {
    auto it = client_shares_.find(id);
    if (it == client_shares_.end()) {
      ASSIGN_OR_RETURN(Elem share, client_->ShareForPath(info_[id].path));
      ++stats_.client_share_derivations;
      it = client_shares_.emplace(id, std::move(share)).first;
    }
    return &it->second;
  }

  /// Requests server evaluations for any (id, point) not yet cached from
  /// every active server, then combines them (plus the client's own share
  /// evaluations where the scheme includes one). All ids must have known
  /// paths (the root, or discovered via a parent's EvalEntry).
  Status EnsureEvals(const std::vector<int32_t>& ids,
                     const std::vector<uint64_t>& points) {
    std::vector<int32_t> need;
    for (int32_t id : ids) {
      bool missing = !info_[id].known;
      for (uint64_t e : points) {
        if (!combined_evals_.count({id, e})) missing = true;
      }
      if (missing) need.push_back(id);
    }
    if (need.empty()) return Status::Ok();

    EvalRequest req;
    req.points = points;
    req.node_ids = need;
    std::vector<uint64_t> weights;
    ASSIGN_OR_RETURN(
        std::vector<EvalResponse> resps,
        FanOut<EvalResponse>(
            [&](ServerEndpoint* ep) { return ep->Eval(req); }, &weights));
    ++stats_.rounds;
    for (const EvalResponse& resp : resps) {
      if (resp.entries.size() != need.size())
        return Status::Corruption("server returned wrong entry count");
    }
    stats_.server_evals += need.size() * points.size() * resps.size();

    for (size_t j = 0; j < need.size(); ++j) {
      const EvalEntry& entry = resps[0].entries[j];
      // Structure must agree across servers: every share tree mirrors the
      // data tree's shape, so divergence means a corrupt or lying server.
      for (size_t s = 1; s < resps.size(); ++s) {
        const EvalEntry& other = resps[s].entries[j];
        if (other.node_id != entry.node_id ||
            other.children != entry.children ||
            other.subtree_size != entry.subtree_size ||
            other.values.size() != entry.values.size())
          return Status::Corruption("servers disagree on tree structure");
      }
      visited_.insert(entry.node_id);
      NodeInfo& info = info_[entry.node_id];
      if (!info.known) {
        info.children = entry.children;
        info.subtree_size = entry.subtree_size;
        info.known = true;
        if (root_ids_.count(entry.node_id)) {
          // A root's subtree is its whole document: summed over the roots,
          // the client's only honest view of the server-side node count.
          stats_.total_server_nodes += static_cast<size_t>(entry.subtree_size);
        }
        for (size_t i = 0; i < entry.children.size(); ++i) {
          NodeInfo& child = info_[entry.children[i]];
          if (child.path.empty() && !root_ids_.count(entry.children[i])) {
            child.path = info.path.empty()
                             ? std::to_string(i)
                             : info.path + "/" + std::to_string(i);
          }
        }
      }
      if (entry.values.size() != points.size())
        return Status::Corruption("server returned wrong value count");
      const Elem* share = nullptr;
      if (include_client()) {
        ASSIGN_OR_RETURN(share, ClientShare(entry.node_id));
      }
      for (size_t k = 0; k < points.size(); ++k) {
        const uint64_t e = points[k];
        ASSIGN_OR_RETURN(uint64_t m, client_->ring().QueryModulus(e));
        uint64_t sum = 0;
        for (size_t s = 0; s < resps.size(); ++s) {
          const uint64_t v = resps[s].entries[j].values[k];
          if (v >= m)
            return Status::Corruption("server evaluation outside Z_m");
          sum = AddMod(sum, weights[s] == 1 ? v : MulMod(weights[s], v, m), m);
        }
        if (share != nullptr) {
          ASSIGN_OR_RETURN(uint64_t cv, client_->ring().EvalAt(*share, e));
          ++stats_.client_evals;
          sum = AddMod(sum, cv, m);
        }
        combined_evals_[{entry.node_id, e}] = sum;
        if (sum == 0) ++stats_.zero_candidates;
      }
    }
    return Status::Ok();
  }

  Result<uint64_t> CombinedEval(int32_t id, uint64_t e) {
    RETURN_IF_ERROR(EnsureEvals({id}, {e}));
    return combined_evals_.at({id, e});
  }

  /// BFS from `roots` keeping only nodes whose combined evaluation vanishes
  /// at *all* points; returns those nodes (the paper's alive region).
  Result<std::vector<int32_t>> PrunedDescend(std::vector<int32_t> roots,
                                             const std::vector<uint64_t>& points) {
    std::vector<int32_t> alive;
    std::vector<int32_t> frontier = std::move(roots);
    std::unordered_set<int32_t> seen(frontier.begin(), frontier.end());
    while (!frontier.empty()) {
      RETURN_IF_ERROR(EnsureEvals(frontier, points));
      std::vector<int32_t> next;
      for (int32_t id : frontier) {
        bool all_zero = true;
        for (uint64_t e : points) {
          if (combined_evals_.at({id, e}) != 0) {
            all_zero = false;
            break;
          }
        }
        if (!all_zero) continue;  // dead branch: never expanded (pruning)
        alive.push_back(id);
        for (int32_t c : info_[id].children) {
          if (seen.insert(c).second) next.push_back(c);
        }
      }
      frontier = std::move(next);
    }
    return alive;
  }

  /// True when no child of `z` evaluates to zero at e — the paper's
  /// "zero element without zero sub element" definite-answer test.
  Result<bool> HasNoZeroChild(int32_t z, uint64_t e) {
    RETURN_IF_ERROR(EnsureEvals({z}, {e}));
    const std::vector<int32_t>& children = info_[z].children;
    if (children.empty()) return true;
    RETURN_IF_ERROR(EnsureEvals(children, {e}));
    for (int32_t c : children) {
      if (combined_evals_.at({c, e}) == 0) return false;
    }
    return true;
  }

  // -------------------------------------------------------- reconstruction

  /// Issues ONE FetchRequest for `need` to every active server and checks
  /// the response shape before anything indexes into it: every server must
  /// answer with exactly one entry per requested id, in request order. A
  /// malformed answer identifies its server as lying; under Shamir that
  /// server is marked dead (a failover, like one that stopped answering)
  /// and the round retries with a replacement, while the all-servers
  /// schemes must refuse with Corruption.
  Result<std::pair<std::vector<FetchResponse>, std::vector<uint64_t>>>
  FetchRound(FetchMode mode, const std::vector<int32_t>& need) {
    FetchRequest req;
    req.mode = mode;
    req.node_ids = need;
    for (;;) {
      std::vector<uint64_t> weights;
      std::vector<size_t> sources;
      ASSIGN_OR_RETURN(
          std::vector<FetchResponse> resps,
          FanOut<FetchResponse>(
              [&](ServerEndpoint* ep) { return ep->Fetch(req); }, &weights,
              &sources));
      ++stats_.fetch_rounds;
      bool retry = false;
      for (size_t s = 0; s < resps.size(); ++s) {
        if (Aligned(resps[s], need)) continue;
        if (group_.scheme != ShareScheme::kShamir)
          return Status::Corruption(
              "fetch response misaligned with the request");
        dead_[sources[s]] = 1;  // an identified liar: replaceable
        ++stats_.server_failovers;
        retry = true;
      }
      if (!retry) return std::make_pair(std::move(resps), std::move(weights));
    }
  }

  /// Folds one answered full-polynomial round into the combined-poly cache
  /// (shared by the synchronous prefetch and the pipelined overlap path).
  Status CombinePolyRound(const std::vector<int32_t>& need,
                          std::vector<FetchResponse>& resps,
                          const std::vector<uint64_t>& weights) {
    stats_.polys_fetched_full += need.size();
    const Ring& ring = client_->ring();
    for (size_t j = 0; j < need.size(); ++j) {
      Elem combined = ring.Zero();
      for (size_t s = 0; s < resps.size(); ++s) {
        ByteReader r(resps[s].entries[j].payload);
        ASSIGN_OR_RETURN(Elem part, ring.Deserialize(&r));
        combined = ring.Add(combined, ScaledPart(std::move(part), weights[s]));
      }
      if (include_client()) {
        ASSIGN_OR_RETURN(const Elem* share, ClientShare(need[j]));
        combined = ring.Add(combined, *share);
      }
      combined_polys_.emplace(need[j], std::move(combined));
    }
    return Status::Ok();
  }

  /// Const-coefficient counterpart of CombinePolyRound.
  Status CombineConstRound(const std::vector<int32_t>& need,
                           std::vector<FetchResponse>& resps,
                           const std::vector<uint64_t>& weights) {
    stats_.consts_fetched += need.size();
    const Ring& ring = client_->ring();
    for (size_t j = 0; j < need.size(); ++j) {
      Scalar combined = ring.ConstTerm(ring.Zero());
      for (size_t s = 0; s < resps.size(); ++s) {
        ByteReader r(resps[s].entries[j].payload);
        ASSIGN_OR_RETURN(Scalar c0, ring.DeserializeScalar(&r));
        combined =
            ring.AddScalars(combined, ScaledScalar(std::move(c0), weights[s]));
      }
      if (include_client()) {
        ASSIGN_OR_RETURN(const Elem* share, ClientShare(need[j]));
        combined = ring.AddScalars(combined, ring.ConstTerm(*share));
      }
      combined_consts_.emplace(need[j], std::move(combined));
    }
    return Status::Ok();
  }

  /// Fetches and combines the full share polynomials of every id in `ids`
  /// not already cached, in ONE FetchRequest per server.
  Status PrefetchPolys(const std::vector<int32_t>& ids) {
    std::vector<int32_t> need;
    for (int32_t id : ids) {
      if (combined_polys_.count(id)) continue;
      if (std::find(need.begin(), need.end(), id) == need.end())
        need.push_back(id);
    }
    if (need.empty()) return Status::Ok();
    ASSIGN_OR_RETURN(auto round, FetchRound(FetchMode::kFull, need));
    return CombinePolyRound(need, round.first, round.second);
  }

  /// Const-coefficient counterpart of PrefetchPolys (trusted mode).
  Status PrefetchConsts(const std::vector<int32_t>& ids) {
    std::vector<int32_t> need;
    for (int32_t id : ids) {
      if (combined_consts_.count(id)) continue;
      if (std::find(need.begin(), need.end(), id) == need.end())
        need.push_back(id);
    }
    if (need.empty()) return Status::Ok();
    ASSIGN_OR_RETURN(auto round, FetchRound(FetchMode::kConstOnly, need));
    return CombineConstRound(need, round.first, round.second);
  }

  // ------------------------------------------------- pipelined fetch overlap

  /// True when every endpoint genuinely pipelines (BeginFetch submits
  /// immediately). Only then does issuing fetches early buy wall time; on
  /// sequential transports it would merely reorder the same round trips.
  bool AllEndpointsPipelined() const {
    if (group_.endpoints.empty()) return false;
    for (const ServerEndpoint* ep : group_.endpoints)
      if (!ep->SupportsPipelining()) return false;
    return true;
  }

  /// One fetch round submitted on the wire but not yet awaited.
  struct InflightFetchRound {
    FetchMode mode = FetchMode::kFull;
    std::vector<int32_t> need;
    std::vector<size_t> chosen;  ///< endpoint indices asked
    std::vector<Deferred<FetchResponse>> deferred;  ///< aligned with chosen
  };

  /// Submits one batched FetchRequest per active server for every id of
  /// `ids` that is neither cached nor already requested by an earlier
  /// in-flight round, and parks the deferred responses. Failures (if any)
  /// surface in AwaitInflightFetches. No-op when nothing new is needed or
  /// (under Shamir) too few servers are live — the synchronous catch-all
  /// pass after the walk handles both.
  void StartFetchRound(FetchMode mode, const std::vector<int32_t>& ids) {
    const bool const_mode = mode == FetchMode::kConstOnly;
    auto& requested = const_mode ? early_consts_requested_ : early_polys_requested_;
    std::vector<int32_t> need;
    for (int32_t id : ids) {
      const bool cached = const_mode ? combined_consts_.count(id) > 0
                                     : combined_polys_.count(id) > 0;
      if (cached || !requested.insert(id).second) continue;
      need.push_back(id);
    }
    if (need.empty()) return;

    Result<std::vector<size_t>> chosen = ActiveServers();
    if (!chosen.ok()) {
      for (int32_t id : need) requested.erase(id);
      return;  // let the synchronous path report Unavailable
    }

    InflightFetchRound round;
    round.mode = mode;
    round.need = std::move(need);
    round.chosen = std::move(*chosen);
    FetchRequest req;
    req.mode = mode;
    req.node_ids = round.need;
    round.deferred.reserve(round.chosen.size());
    for (size_t idx : round.chosen)
      round.deferred.push_back(group_.endpoints[idx]->BeginFetch(req));
    inflight_fetches_.push_back(std::move(round));
  }

  /// Awaits every in-flight fetch round (always all of them — nothing may
  /// stay pending) and folds the answers into the combined caches. A round
  /// that failed or misbehaved falls back to the synchronous prefetch path:
  /// under Shamir the offender is first marked dead (failover), so the
  /// retry picks a replacement; the all-servers schemes surface the error
  /// exactly as the synchronous path would.
  Status AwaitInflightFetches() {
    std::vector<InflightFetchRound> rounds;
    rounds.swap(inflight_fetches_);
    Status overall = Status::Ok();
    for (InflightFetchRound& round : rounds) {
      Status s = SettleFetchRound(round);
      if (!s.ok() && overall.ok()) overall = s;
    }
    return overall;
  }

  Status SettleFetchRound(InflightFetchRound& round) {
    std::vector<Result<FetchResponse>> results;
    results.reserve(round.deferred.size());
    for (Deferred<FetchResponse>& d : round.deferred)
      results.push_back(d.Await());

    bool trouble = false;
    Status first_error = Status::Ok();
    for (size_t s = 0; s < results.size(); ++s) {
      bool bad = !results[s].ok();
      if (bad && first_error.ok()) first_error = results[s].status();
      if (!bad && !Aligned(results[s].value(), round.need)) {
        bad = true;
        if (first_error.ok())
          first_error =
              Status::Corruption("fetch response misaligned with the request");
      }
      if (!bad) continue;
      trouble = true;
      if (group_.scheme == ShareScheme::kShamir) {
        dead_[round.chosen[s]] = 1;
        ++stats_.server_failovers;
      }
    }
    if (trouble) {
      if (group_.scheme != ShareScheme::kShamir) return first_error;
      // Retry with replacements through the synchronous path (the ids are
      // not cached yet, so this issues a fresh round).
      return round.mode == FetchMode::kConstOnly ? PrefetchConsts(round.need)
                                                 : PrefetchPolys(round.need);
    }

    ++stats_.fetch_rounds;
    std::vector<FetchResponse> resps;
    resps.reserve(results.size());
    for (Result<FetchResponse>& r : results)
      resps.push_back(std::move(r).value());
    ASSIGN_OR_RETURN(std::vector<uint64_t> weights, Weights(round.chosen));
    return round.mode == FetchMode::kConstOnly
               ? CombineConstRound(round.need, resps, weights)
               : CombinePolyRound(round.need, resps, weights);
  }

  Result<const Elem*> FetchCombinedPoly(int32_t id) {
    auto it = combined_polys_.find(id);
    if (it == combined_polys_.end()) {
      RETURN_IF_ERROR(PrefetchPolys({id}));
      it = combined_polys_.find(id);
    }
    return &it->second;
  }

  Result<const Scalar*> FetchCombinedConst(int32_t id) {
    auto it = combined_consts_.find(id);
    if (it == combined_consts_.end()) {
      RETURN_IF_ERROR(PrefetchConsts({id}));
      it = combined_consts_.find(id);
    }
    return &it->second;
  }

  /// Collects every node id the verification of `zeros` will need — each
  /// candidate plus its direct children, routed to the const-only set for
  /// wrap-free nodes under the trusted mode and to the full-polynomial set
  /// otherwise. Appends to the caller's sets so several queries of a batch
  /// plan into the same fetch rounds.
  Status PlanCandidateFetches(const std::vector<int32_t>& zeros,
                              VerifyMode mode, std::vector<int32_t>* consts,
                              std::vector<int32_t>* polys) {
    if (mode == VerifyMode::kOptimistic) return Status::Ok();
    for (int32_t z : zeros) {
      RETURN_IF_ERROR(EnsureStructure(z));
      const bool const_only =
          mode == VerifyMode::kTrustedConstOnly &&
          static_cast<size_t>(info_[z].subtree_size) <=
              MaxResidueDegree(client_->ring());
      std::vector<int32_t>* dst = const_only ? consts : polys;
      dst->push_back(z);
      for (int32_t c : info_[z].children) dst->push_back(c);
    }
    return Status::Ok();
  }

  /// Theorem 1/2 tag recovery for node `id` ("reconstruct the non-shared
  /// polynomials of both the element and all its direct children"). The
  /// node's and its children's shares arrive in ONE batched FetchRequest
  /// per server per round — cache-deduped, so a caller that already
  /// prefetched (PlanCandidateFetches) pays no further round.
  Result<uint64_t> ReconstructTag(int32_t id, VerifyMode mode) {
    RETURN_IF_ERROR(EnsureStructure(id));
    ++stats_.reconstructions;
    const Ring& ring = client_->ring();

    if (mode == VerifyMode::kTrustedConstOnly) {
      // Wrap-free nodes satisfy f_0 = -t * g_0 with g_0 the plain product of
      // the children's constant terms; wrapped nodes need the full Eq. 2.
      const bool wrap_free =
          static_cast<size_t>(info_[id].subtree_size) <= MaxResidueDegree(ring);
      if (wrap_free) {
        std::vector<int32_t> need = {id};
        need.insert(need.end(), info_[id].children.begin(),
                    info_[id].children.end());
        RETURN_IF_ERROR(PrefetchConsts(need));
        ASSIGN_OR_RETURN(const Scalar* f0, FetchCombinedConst(id));
        Scalar f0_copy = *f0;  // later fetches may rehash the cache
        Scalar g0 = ring.OneScalar();
        for (int32_t c : info_[id].children) {
          ASSIGN_OR_RETURN(const Scalar* c0, FetchCombinedConst(c));
          g0 = ring.MulScalars(g0, *c0);
        }
        auto t = ring.SolveTagTrusted(f0_copy, g0);
        if (t.ok()) return *t;
        // g_0 not invertible or inconsistent: fall back to a full fetch.
      }
      ++stats_.trusted_fallbacks;
      // fall through to the full reconstruction below
    }

    std::vector<int32_t> need = {id};
    need.insert(need.end(), info_[id].children.begin(),
                info_[id].children.end());
    RETURN_IF_ERROR(PrefetchPolys(need));
    ASSIGN_OR_RETURN(const Elem* f_ptr, FetchCombinedPoly(id));
    Elem f = *f_ptr;  // copy: subsequent fetches may invalidate the pointer
    Elem g = ring.One();
    for (int32_t c : info_[id].children) {
      ASSIGN_OR_RETURN(const Elem* q, FetchCombinedPoly(c));
      g = ring.Mul(g, *q);
    }
    return ring.SolveTag(f, g);
  }

  /// Structure (children / subtree size) without caring about values: reuse
  /// the eval path with the node's own cheap point when unknown.
  Status EnsureStructure(int32_t id) {
    if (info_[id].known) return Status::Ok();
    // Any valid point works; use 1 if the ring accepts it, else 2.
    uint64_t probe = client_->ring().QueryModulus(1).ok() ? 1 : 2;
    return EnsureEvals({id}, {probe});
  }

  static size_t MaxResidueDegree(const FpCyclotomicRing& ring) {
    return ring.DenseCoeffCount() - 1;  // p - 2
  }
  static size_t MaxResidueDegree(const ZQuotientRing& ring) {
    return static_cast<size_t>(ring.degree()) - 1;  // deg r - 1
  }

  /// Tag-equality test used by XPath stepping: does node `id` carry exactly
  /// tag point `e`?
  Result<bool> NodeTagEquals(int32_t id, uint64_t e, VerifyMode mode) {
    ASSIGN_OR_RETURN(uint64_t v, CombinedEval(id, e));
    if (v != 0) return false;  // (x - e) not among the factors
    // Cheap certificate: zero with no zero child means the node itself
    // matches (in F_p exactly; Z-ring FPs are caught by reconstruction
    // below only in verified/trusted modes — XPath always runs those).
    ASSIGN_OR_RETURN(bool definite, HasNoZeroChild(id, e));
    if (definite && std::is_same_v<Ring, FpCyclotomicRing>) return true;
    ASSIGN_OR_RETURN(uint64_t t, ReconstructTag(id, mode));
    if (definite && t != e) ++stats_.false_positives_removed;
    return t == e;
  }

  // ----------------------------------------------------------- strategies

  Status RunLeftToRight(const XPathQuery& query,
                        const std::vector<uint64_t>& points, VerifyMode mode,
                        std::set<int32_t>* out) {
    std::vector<int32_t> contexts = {kVirtualRoot};
    for (size_t i = 0; i < query.steps().size(); ++i) {
      const XPathStep& step = query.steps()[i];
      const uint64_t e = points[i];
      std::set<int32_t> next;
      for (int32_t ctx : contexts) {
        std::vector<int32_t> roots;
        if (ctx == kVirtualRoot) {
          roots = RootIds();
        } else {
          RETURN_IF_ERROR(EnsureStructure(ctx));
          roots.assign(info_[ctx].children.begin(), info_[ctx].children.end());
        }
        if (step.axis == XPathStep::Axis::kChild) {
          for (int32_t cand : roots) {
            ASSIGN_OR_RETURN(bool match, NodeTagEquals(cand, e, mode));
            if (match) next.insert(cand);
          }
        } else {
          ASSIGN_OR_RETURN(std::vector<int32_t> zeros,
                           PrunedDescend(roots, {e}));
          for (int32_t z : zeros) {
            ASSIGN_OR_RETURN(bool match, NodeTagEquals(z, e, mode));
            if (match) next.insert(z);
          }
        }
      }
      contexts.assign(next.begin(), next.end());
      if (contexts.empty()) break;
    }
    for (int32_t id : contexts) out->insert(id);
    return Status::Ok();
  }

  Status RunAllAtOnce(const XPathQuery& query,
                      const std::vector<uint64_t>& points, VerifyMode mode,
                      int32_t ctx, size_t step_index,
                      std::set<std::pair<int32_t, size_t>>* memo,
                      std::set<int32_t>* out) {
    if (!memo->insert({ctx, step_index}).second) return Status::Ok();
    if (step_index == query.steps().size()) {
      out->insert(ctx);
      return Status::Ok();
    }
    const XPathStep& step = query.steps()[step_index];
    const uint64_t e = points[step_index];

    // Distinct points of the query suffix: every one must vanish on a branch
    // for it to possibly contain a full match ("a single query can find all
    // elements that contain a, b, c, d and e").
    std::vector<uint64_t> suffix_points;
    for (size_t k = step_index; k < points.size(); ++k) {
      if (std::find(suffix_points.begin(), suffix_points.end(), points[k]) ==
          suffix_points.end())
        suffix_points.push_back(points[k]);
    }

    std::vector<int32_t> roots;
    if (ctx == kVirtualRoot) {
      roots = RootIds();
    } else {
      RETURN_IF_ERROR(EnsureStructure(ctx));
      roots.assign(info_[ctx].children.begin(), info_[ctx].children.end());
    }

    if (step.axis == XPathStep::Axis::kChild) {
      for (int32_t cand : roots) {
        RETURN_IF_ERROR(EnsureEvals({cand}, suffix_points));
        bool all_zero = true;
        for (uint64_t pt : suffix_points) {
          if (combined_evals_.at({cand, pt}) != 0) {
            all_zero = false;
            break;
          }
        }
        if (!all_zero) continue;
        ASSIGN_OR_RETURN(bool match, NodeTagEquals(cand, e, mode));
        if (match)
          RETURN_IF_ERROR(
              RunAllAtOnce(query, points, mode, cand, step_index + 1, memo, out));
      }
    } else {
      ASSIGN_OR_RETURN(std::vector<int32_t> zeros,
                       PrunedDescend(roots, suffix_points));
      for (int32_t z : zeros) {
        ASSIGN_OR_RETURN(bool match, NodeTagEquals(z, e, mode));
        if (match)
          RETURN_IF_ERROR(
              RunAllAtOnce(query, points, mode, z, step_index + 1, memo, out));
      }
    }
    return Status::Ok();
  }

  ClientContext<Ring>* client_;
  EndpointGroup group_;
  std::vector<SessionRoot> roots_;
  std::unordered_set<int32_t> root_ids_;
  Status init_status_;
  std::vector<char> dead_;  ///< Shamir: endpoints that stopped answering

  QueryStats stats_;
  TransportCounters counters_before_;
  std::unordered_map<int32_t, NodeInfo> info_;
  std::map<std::pair<int32_t, uint64_t>, uint64_t> combined_evals_;
  std::unordered_map<int32_t, Elem> combined_polys_;
  std::unordered_map<int32_t, Scalar> combined_consts_;
  std::unordered_map<int32_t, Elem> client_shares_;
  std::unordered_set<int32_t> visited_;

  // Pipelined fetch overlap (cleared per query): rounds on the wire, plus
  // the ids they cover so later rounds don't re-request them.
  std::vector<InflightFetchRound> inflight_fetches_;
  std::unordered_set<int32_t> early_consts_requested_;
  std::unordered_set<int32_t> early_polys_requested_;
};

}  // namespace polysse

#endif  // POLYSSE_CORE_QUERY_SESSION_H_
