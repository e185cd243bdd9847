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
// Each round's subrequests to the k servers are begun on the group's
// Executor and then awaited in server order on the session's thread, so a
// round costs one round trip: pipelined endpoints (TCP) have every request
// on the wire before the first wait, with or without an executor, and
// synchronous endpoints answer inside the begin, one after another inline
// or concurrently on a ThreadPool. Results land in per-server slots, so
// the combined answers are bit-identical either way and only wall time
// changes. A collection runs one session per shard walk and scatters those
// walks on the same executor (the one it owns or the one passed to
// Connect), so a caller-helps pool drives both levels at once.
//
// A walk evaluates the client's own shares (the additive schemes) against
// one table of point powers per query point (field/simd_eval.h): each
// (node, point) is one dot product, and the tables die with the walk.
//
// A visited node costs only its arithmetic, in either ring: the walk holds
// ring elements as dense coefficient rows of the ring's Scalar (a word in
// F_p, a BigInt in Z[x]/(r)) and calls the ring's row operations on them.
// A node's share label is built in a reused buffer, its share drawn into a
// reused row (ClientContext::ShareRowForLabel) and evaluated there, and the
// server parts and client share of a fetched node are summed into a reused
// row and encoded into the arena once. Theorem 1/2 decodes and multiplies
// into reused rows as well. This scratch lives in the session, which exists
// once per walk: concurrent shard walks share the ClientContext and its
// ring, so neither may hold any. The walk forks on the ring in four places
// only, each a real difference: Shamir admission (F_p only), its Lagrange
// weights and weighted constants, and the exact-filter certificate of
// NodeTagEquals (only F_p has no false positives).
//
// Walk state is compact because concurrent walks each hold their own: one
// flat node table in discovery order (the roots first, then each learned
// node's children as one contiguous run) with the node's evaluations
// inline, plus one byte arena for the client shares and combined
// polynomials in their wire encoding. Both are dropped when the query
// returns. A node's path exists only as (parent, child index) until a share
// derivation or an answer needs it as a string. Node ids and subtree sizes
// come from the servers and stay untrusted: every learned node must tile
// its parent's preorder id range exactly (a root's range is its document's,
// from the client's own table), so a lie about the tree shape is
// Corruption and the table never outgrows the ids the responses carried.
//
// Every server round is one Start and one Settle. Start picks the
// ActiveServers and begins the request on each; Settle awaits every answer
// exactly once, checks it, and owns the failover rule: under Shamir a
// server that fails or answers out of shape is marked dead (one failover,
// however many rounds asked it), the good answers are kept, and the
// request is begun on one replacement per failed server, while the
// all-servers schemes return the first error.
// Evaluations and synchronous fetches settle right after their start.
//
// Verification fetches follow one of two schedules, chosen per walk by the
// endpoints. Over pipelined endpoints each BFS round's candidate fetches
// are started as soon as that round's zeros are known, parked, and settled
// after the walk, so they overlap the rest of it; every other endpoint
// plans all fetches after the walk and issues one const-only and one full
// round. Both are kept on purpose: per round fetches on a synchronous
// endpoint only add messages (they would raise msgs_per_op on the
// in-process lookup workloads), while dropping the overlap would cost
// pipelined TCP links their latency win (the 14x pipelined_transport row,
// and batch-tcp-wan). Only the start and the settle differ in when they
// run.
#ifndef POLYSSE_CORE_QUERY_SESSION_H_
#define POLYSSE_CORE_QUERY_SESSION_H_

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <iterator>
#include <map>
#include <numeric>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/client_context.h"
#include "core/endpoint.h"
#include "core/protocol.h"
#include "mpc/shamir.h"
#include "nt/modular.h"
#include "util/byte_arena.h"
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
/// document — the document's global root id, its client-share path prefix
/// and its node count — and every walk descends all of them in one shared
/// frontier.
struct SessionRoot {
  int32_t node_id = 0;
  /// The root node's path in the client-share PRF namespace ("" for a
  /// single-tree deployment; a collection uses per-document prefixes).
  std::string path;
  /// The document's node count from the client's own document table: the
  /// root's reported subtree size must equal it. 0 when the client does
  /// not know it (a bare single-tree session), which takes the root's
  /// report as the document's extent.
  int32_t size = 0;
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
    // polysse-lint: allow(ring-fork): Lagrange weights need a field.
    if (!std::is_same_v<Ring, FpCyclotomicRing> && init_status_.ok() &&
        group_.scheme == ShareScheme::kShamir) {
      init_status_ =
          Status::Unimplemented("Shamir t-of-n requires the F_p ring");
    }
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
    // The walk's points are its table columns, in request order.
    for (uint64_t e : points) Column(e);

    // Shared BFS: expand while ANY point vanishes. Over a pipelined
    // transport the verification fetches for each round's zero candidates
    // are submitted as soon as the round's evaluations land — the next BFS
    // round's EvalRequests then go out while those fetches drain, keeping
    // several protocol rounds in flight on one connection. Sequential
    // transports skip this: they'd gain nothing and the classic
    // plan-then-fetch shape keeps their round/message counts bit-stable.
    const bool overlap = AllEndpointsPipelined();
    std::vector<uint32_t> frontier = RootSlots();
    std::vector<std::vector<uint32_t>> zeros_per_point(points.size());
    while (!frontier.empty()) {
      RETURN_IF_ERROR(EnsureEvals(frontier, points));
      std::vector<uint32_t> next;
      std::vector<std::vector<uint32_t>> round_zeros(points.size());
      for (uint32_t s : frontier) {
        bool any_zero = false;
        for (size_t k = 0; k < points.size(); ++k) {
          if (EvalCell(s, k) == kZero) {
            zeros_per_point[k].push_back(s);
            round_zeros[k].push_back(s);
            any_zero = true;
          }
        }
        if (any_zero) AppendChildren(s, &next);
      }
      if (overlap) {
        std::vector<uint32_t> round_consts, round_polys;
        for (size_t i = 0; i < queries.size(); ++i) {
          if (tag_point[i] < 0) continue;
          RETURN_IF_ERROR(PlanCandidateFetches(round_zeros[tag_point[i]],
                                               queries[i].mode, &round_consts,
                                               &round_polys));
        }
        RETURN_IF_ERROR(Park(FetchMode::kConstOnly, round_consts));
        RETURN_IF_ERROR(Park(FetchMode::kFull, round_polys));
      }
      frontier = std::move(next);
    }
    if (overlap) RETURN_IF_ERROR(SettleParked());

    // Resolve answers per query, sharing the fetch/reconstruction caches.
    // All queries' verification needs are planned into shared batched fetch
    // rounds up front (one const-only, one full, per server); with the
    // pipelined overlap above these are cache hits and cost no round.
    std::vector<uint32_t> consts, polys;
    for (size_t i = 0; i < queries.size(); ++i) {
      if (tag_point[i] < 0) continue;
      RETURN_IF_ERROR(PlanCandidateFetches(zeros_per_point[tag_point[i]],
                                           queries[i].mode, &consts, &polys));
    }
    RETURN_IF_ERROR(Prefetch(FetchMode::kConstOnly, consts));
    RETURN_IF_ERROR(Prefetch(FetchMode::kFull, polys));
    for (size_t i = 0; i < queries.size(); ++i) {
      if (tag_point[i] < 0) continue;  // unmapped
      const uint64_t e = points[tag_point[i]];
      for (uint32_t z : zeros_per_point[tag_point[i]]) {
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
    for (uint64_t e : points) Column(e);

    NodeSet final_nodes;
    if (strategy == XPathStrategy::kLeftToRight) {
      RETURN_IF_ERROR(RunLeftToRight(query, points, mode, &final_nodes));
    } else {
      std::set<std::pair<uint32_t, size_t>> memo;
      RETURN_IF_ERROR(RunAllAtOnce(query, points, mode, kNoSlot, 0, &memo,
                                   &final_nodes));
    }
    for (const auto& [id, slot] : final_nodes)
      result.matches.push_back({id, Path(slot)});
    FinishStats(&result.stats);
    return result;
  }

 private:
  using Scalar = typename Ring::Scalar;
  using Evaluator = typename Ring::Evaluator;
  using Ref = ByteArena::Ref;

  /// No row: a root's parent, and XPath's virtual context above the roots.
  static constexpr uint32_t kNoSlot = UINT32_MAX;

  /// A combined evaluation as the walk keeps it: pruning and answer
  /// determination only ever ask whether it vanishes.
  enum EvalCellValue : uint8_t { kNoEval = 0, kNonZero = 1, kZero = 2 };
  /// A row whose tag no full reconstruction has recovered yet.
  static constexpr uint64_t kNoTag = UINT64_MAX;

  /// A row is requested at most once per fetch mode: the round that asks
  /// for it either answers it or fails the query.
  enum NodeFlag : uint8_t {
    kKnown = 1,           ///< children and subtree size learned
    kConstRequested = 2,  ///< in a const-only fetch round
    kPolyRequested = 4,   ///< in a full fetch round
  };

  /// One row of the walk's node table. A learned node's children are the
  /// contiguous rows [first_child, first_child + num_children), so a
  /// child's index under its parent is its row minus first_child.
  struct Node {
    int32_t id = 0;  ///< server node id
    /// One past the node's subtree in preorder ids: its next sibling's id,
    /// or its parent's end for a last child; for a root, the end of its
    /// document's range (0 while a root of unknown size is unlearned).
    uint32_t end = 0;
    uint32_t parent = kNoSlot;
    uint32_t first_child = 0;
    uint32_t num_children = 0;
    Ref share = ByteArena::kNone;  ///< client share, wire form
    Ref poly = ByteArena::kNone;   ///< combined polynomial, wire form
    Ref konst = ByteArena::kNone;  ///< combined constant term, wire form
    uint8_t flags = 0;
  };

  /// One request to the servers, started (Start) and not yet settled
  /// (Settle).
  template <typename Req, typename Resp>
  struct Round {
    Req req;
    std::vector<uint32_t> rows;  ///< the rows asked for, as req names them
    std::vector<size_t> chosen;  ///< endpoint indices asked
    std::vector<std::optional<Deferred<Resp>>> pending;  ///< per chosen
  };
  using EvalRound = Round<EvalRequest, EvalResponse>;
  using FetchRound = Round<FetchRequest, FetchResponse>;

  /// Everything one query learns. BeginQuery starts it with one row per
  /// root; FinishStats drops it.
  struct Walk {
    std::vector<Node> nodes;
    std::vector<uint64_t> points;  ///< the columns of `evals`
    /// Combined evaluations, nodes.size() x points.size(), row-major.
    std::vector<uint8_t> evals;
    /// Per column, the evaluator of the client's own shares (the point's
    /// row of powers in the F_p ring), built at its first use.
    std::vector<std::optional<Evaluator>> evaluators;
    ByteArena arena;
    /// Tags recovered by full reconstruction, by row (kNoTag otherwise);
    /// sized at the first one, after the walk.
    std::vector<uint64_t> tags;
    size_t known = 0;  ///< rows with kKnown set (nodes visited)
    /// The overlap schedule's fetch rounds, started and not yet settled.
    std::vector<FetchRound> parked;
  };

  /// XPath context and answer sets, ordered by node id (document order)
  /// so later steps issue their requests in the same order every time.
  using NodeSet = std::map<int32_t, uint32_t>;  ///< id -> row

  /// Whether the client's own PRF share participates in combination
  /// (everything but Shamir, where the client holds no share).
  bool include_client() const {
    return group_.scheme != ShareScheme::kShamir;
  }

  /// The rows every walk starts from (one per document root).
  std::vector<uint32_t> RootSlots() const {
    std::vector<uint32_t> slots(roots_.size());
    std::iota(slots.begin(), slots.end(), 0u);
    return slots;
  }

  Status BeginQuery() {
    RETURN_IF_ERROR(init_status_);
    stats_ = QueryStats();
    counters_before_ = SumCounters();
    walk_ = Walk();
    // Roots are the first rows; their paths and (when the client knows
    // them) their extents come from the client, not from any server.
    for (const SessionRoot& r : roots_) {
      const uint32_t end =
          r.size > 0 ? static_cast<uint32_t>(r.node_id) +
                           static_cast<uint32_t>(r.size)
                     : 0;
      AppendNode(r.node_id, end, kNoSlot);
    }
    return Status::Ok();
  }

  void FinishStats(QueryStats* out) {
    stats_.nodes_visited = walk_.known;
    const TransportCounters now = SumCounters();
    stats_.transport.bytes_up = now.bytes_up - counters_before_.bytes_up;
    stats_.transport.bytes_down = now.bytes_down - counters_before_.bytes_down;
    stats_.transport.messages_up =
        now.messages_up - counters_before_.messages_up;
    stats_.transport.messages_down =
        now.messages_down - counters_before_.messages_down;
    *out = stats_;
    walk_ = Walk();  // the walk's state dies with the query
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

  // ------------------------------------------------------------ the table

  Node& node(uint32_t slot) { return walk_.nodes[slot]; }

  void AppendNode(int32_t id, uint32_t end, uint32_t parent) {
    Node n;
    n.id = id;
    n.end = end;
    n.parent = parent;
    walk_.nodes.push_back(n);
    walk_.evals.resize(walk_.evals.size() + walk_.points.size(), kNoEval);
  }

  /// The combined evaluation of row `slot` in column `col`.
  uint8_t& EvalCell(uint32_t slot, size_t col) {
    return walk_.evals[static_cast<size_t>(slot) * walk_.points.size() + col];
  }

  /// The table column of point `e`, adding one when the walk has not seen
  /// `e` yet. A query adds its own points while the table holds only the
  /// roots, so the copy below is cheap unless a later step asks for a new
  /// point.
  size_t Column(uint64_t e) {
    std::vector<uint64_t>& pts = walk_.points;
    for (size_t c = 0; c < pts.size(); ++c)
      if (pts[c] == e) return c;
    const size_t old = pts.size();
    std::vector<uint8_t> evals(walk_.nodes.size() * (old + 1), kNoEval);
    for (size_t s = 0; s < walk_.nodes.size(); ++s)
      std::copy_n(walk_.evals.begin() + s * old, old,
                  evals.begin() + s * (old + 1));
    walk_.evals = std::move(evals);
    pts.push_back(e);
    return old;
  }

  /// Appends the child rows of learned row `slot` to `out`, in child order.
  void AppendChildren(uint32_t slot, std::vector<uint32_t>* out) {
    const Node& n = node(slot);
    for (uint32_t c = 0; c < n.num_children; ++c)
      out->push_back(n.first_child + c);
  }
  std::vector<uint32_t> Children(uint32_t slot) {
    std::vector<uint32_t> out;
    AppendChildren(slot, &out);
    return out;
  }

  /// Node count of a learned row's subtree.
  int64_t SubtreeSize(uint32_t slot) {
    return static_cast<int64_t>(node(slot).end) - node(slot).id;
  }

  /// The row's child-index path below its root's prefix ("0/2", or
  /// "d7.1/0/2" in a collection) — the key of its client share. Parent rows
  /// always precede their children, so the climb ends at a root.
  std::string Path(uint32_t slot) {
    std::string out;
    AppendPath(slot, &out);
    return out;
  }
  /// Appends Path(slot) to `out`.
  void AppendPath(uint32_t slot, std::string* out) {
    path_indices_.clear();
    while (node(slot).parent != kNoSlot) {
      const uint32_t parent = node(slot).parent;
      path_indices_.push_back(slot - node(parent).first_child);
      slot = parent;
    }
    const size_t start = out->size();
    out->append(roots_[slot].path);
    for (auto it = path_indices_.rbegin(); it != path_indices_.rend(); ++it) {
      if (out->size() > start) out->push_back('/');
      char digits[10];
      out->append(digits, std::to_chars(digits, std::end(digits), *it).ptr);
    }
  }

  /// Records what the first EvalEntry for row `slot` says about its shape.
  /// The entry must tile the row's id range exactly, as a preorder tree
  /// does: the subtree ends where the row's range ends, the first child is
  /// the next id, the children ascend strictly inside the range, and each
  /// child's range runs to the next sibling (the last one to the row's
  /// end). Anything else — a child outside the document, a child listed
  /// twice, one pointing back up the tree, a root size that disagrees with
  /// the document table — is a lying or corrupt server.
  Status Learn(uint32_t slot, const EvalEntry& entry) {
    const Node n = node(slot);  // copy: appending children moves the table
    const int64_t id = n.id;
    const int64_t end =
        n.end != 0 ? n.end : id + static_cast<int64_t>(entry.subtree_size);
    if (entry.subtree_size < 1 || id + entry.subtree_size != end)
      return Status::Corruption(
          n.parent == kNoSlot
              ? "server subtree size disagrees with the document table"
              : "server subtree size disagrees with the node's id range");
    const std::vector<int32_t>& kids = entry.children;
    if (kids.empty() && entry.subtree_size != 1)
      return Status::Corruption("server reports a childless subtree");
    for (size_t i = 0; i < kids.size(); ++i) {
      if (kids[i] <= id || kids[i] >= end)
        return Status::Corruption("server child outside its parent's range");
      if (i == 0 ? kids[0] != id + 1 : kids[i] <= kids[i - 1])
        return Status::Corruption("server children out of preorder");
    }
    const uint32_t first = static_cast<uint32_t>(walk_.nodes.size());
    for (size_t i = 0; i < kids.size(); ++i)
      AppendNode(kids[i],
                 static_cast<uint32_t>(i + 1 < kids.size() ? kids[i + 1] : end),
                 slot);
    Node& learned = node(slot);
    learned.end = static_cast<uint32_t>(end);
    learned.first_child = first;
    learned.num_children = static_cast<uint32_t>(kids.size());
    learned.flags |= kKnown;
    ++walk_.known;
    // A root's subtree is its whole document: summed over the roots, the
    // client's only honest view of the server-side node count.
    if (n.parent == kNoSlot)
      stats_.total_server_nodes += static_cast<size_t>(entry.subtree_size);
    return Status::Ok();
  }

  // ------------------------------------------------------- the byte arena

  /// Puts the wire form of coefficient row `row` into the arena.
  Result<Ref> StoreRow(std::span<const Scalar> row) {
    scratch_.Clear();
    Ring::Elem::SerializeCoeffs(row, &scratch_);
    return walk_.arena.Put(scratch_.span());
  }
  /// Decodes the row at `ref` into `out`, normalized.
  Status LoadRow(Ref ref, std::vector<Scalar>* out) {
    ByteReader in(walk_.arena.Get(ref));
    return client_->ring().DeserializeCoeffs(&in, out);
  }
  Result<Ref> StoreScalar(const Scalar& c) {
    scratch_.Clear();
    client_->ring().SerializeScalar(c, &scratch_);
    return walk_.arena.Put(scratch_.span());
  }
  Result<Scalar> LoadScalar(Ref ref) {
    ByteReader in(walk_.arena.Get(ref));
    return client_->ring().DeserializeScalar(&in);
  }

  /// Shared per-candidate answer determination of Lookup / LookupBatch.
  Status ResolveCandidate(uint32_t z, uint64_t e, VerifyMode mode,
                          std::vector<MatchedNode>* matches,
                          std::vector<MatchedNode>* possible) {
    ASSIGN_OR_RETURN(bool definite, HasNoZeroChild(z, e));
    if (mode == VerifyMode::kOptimistic) {
      (definite ? matches : possible)->push_back({node(z).id, Path(z)});
      return Status::Ok();
    }
    ASSIGN_OR_RETURN(uint64_t t, ReconstructTag(z, mode));
    if (t == e) {
      matches->push_back({node(z).id, Path(z)});
    } else if (definite) {
      // The evaluation filter said "match" but the tag differs: a Z-ring
      // false positive (or a cheating server, which kVerified rejects
      // earlier inside SolveTag).
      ++stats_.false_positives_removed;
    }
    return Status::Ok();
  }

  // ------------------------------------------------------------- transport

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
    if (chosen.size() < t) return TooFewLive(chosen.size());
    return chosen;
  }

  /// Under Shamir, the first live server outside `chosen`, to take a
  /// failed server's place in a round; Unavailable when none is left.
  Result<size_t> Replacement(const std::vector<size_t>& chosen) const {
    size_t live = 0;
    for (size_t i = 0; i < group_.endpoints.size(); ++i) {
      if (dead_[i]) continue;
      if (std::find(chosen.begin(), chosen.end(), i) == chosen.end())
        return i;
      ++live;
    }
    return TooFewLive(live);
  }

  Status TooFewLive(size_t live) const {
    return Status::Unavailable("only " + std::to_string(live) +
                               " of the required " +
                               std::to_string(group_.threshold) +
                               " servers are reachable");
  }

  /// Combination weight of each answer from `servers`: 1 in the additive
  /// schemes, the Lagrange weights at zero of their x under Shamir.
  Result<std::vector<uint64_t>> Weights(
      const std::vector<size_t>& servers) const {
    // polysse-lint: allow(ring-fork): Shamir, hence a field, is F_p-only.
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

  /// Weighted server contribution to a combined coefficient.
  Scalar ScaledScalar(Scalar c, uint64_t w) const {
    // polysse-lint: allow(ring-fork): weights other than 1 are Shamir's.
    if constexpr (std::is_same_v<Ring, FpCyclotomicRing>) {
      if (w != 1) return client_->ring().field().Mul(c, w);
    }
    (void)w;
    return c;
  }

  static Deferred<EvalResponse> Begin(ServerEndpoint* ep,
                                      const EvalRequest& req) {
    return ep->BeginEval(req);
  }
  static Deferred<FetchResponse> Begin(ServerEndpoint* ep,
                                       const FetchRequest& req) {
    return ep->BeginFetch(req);
  }

  /// The per-server check Settle applies to an answer. Evaluations are
  /// checked against each other once combined (EnsureEvals); a fetch answer
  /// must hold exactly one entry per requested id, in request order, before
  /// anything indexes into it.
  static Status Check(const EvalRequest&, const EvalResponse&) {
    return Status::Ok();
  }
  static Status Check(const FetchRequest& req, const FetchResponse& resp) {
    bool aligned = resp.entries.size() == req.node_ids.size();
    for (size_t j = 0; aligned && j < req.node_ids.size(); ++j)
      aligned = resp.entries[j].node_id == req.node_ids[j];
    return aligned ? Status::Ok()
                   : Status::Corruption(
                         "fetch response misaligned with the request");
  }

  /// Begins `round->req` on every ActiveServer through the group's
  /// executor, so a k-server round costs one round trip, not k. A
  /// pipelined endpoint puts its request on the wire here and blocks only
  /// in Settle, with or without an executor; a synchronous one answers
  /// here, inline or on a pool worker. Unavailable when too few servers are
  /// live.
  template <typename Req, typename Resp>
  Status Start(Round<Req, Resp>* round) {
    ASSIGN_OR_RETURN(round->chosen, ActiveServers());
    round->pending.clear();
    round->pending.resize(round->chosen.size());
    BeginPending(round);
    return Status::Ok();
  }

  /// Begins the request on every chosen server whose answer is wanted
  /// (an empty pending slot), through the group's executor.
  template <typename Req, typename Resp>
  void BeginPending(Round<Req, Resp>* round) {
    group_.executor_or_inline()->ParallelFor(
        round->chosen.size(), [&](size_t j) {
          if (!round->pending[j].has_value())
            round->pending[j].emplace(
                Begin(group_.endpoints[round->chosen[j]], round->req));
        });
  }

  /// Awaits every answer of a started round exactly once, in server order,
  /// and Checks each; the answers (aligned with round.chosen) and their
  /// combination weights come back only when every asked server answered
  /// well. The one owner of the failover rule: under Shamir a server that
  /// failed or answered out of shape is dead for the rest of the session,
  /// counting one failover when it goes from live to dead; its good
  /// answers are kept, the request is begun on a Replacement for each
  /// failed server, and only those are awaited next. The all-servers
  /// schemes return the first error.
  template <typename Req, typename Resp>
  Result<std::vector<Resp>> Settle(Round<Req, Resp>& round,
                                   std::vector<uint64_t>* weights) {
    const bool shamir = group_.scheme == ShareScheme::kShamir;
    std::vector<Resp> resps(round.chosen.size());
    std::vector<char> answered(round.chosen.size(), 0);
    for (;;) {
      Status first_error = Status::Ok();
      for (size_t j = 0; j < round.chosen.size(); ++j) {
        if (answered[j]) continue;
        const size_t server = round.chosen[j];
        Result<Resp> r = round.pending[j]->Await();
        Status s = r.ok() ? Check(round.req, *r) : r.status();
        if (s.ok()) {
          resps[j] = std::move(r).value();
          answered[j] = 1;
          continue;
        }
        round.pending[j].reset();
        if (first_error.ok()) first_error = s;
        if (shamir && !dead_[server]) {
          dead_[server] = 1;
          ++stats_.server_failovers;
        }
      }
      if (first_error.ok()) {
        ASSIGN_OR_RETURN(*weights, Weights(round.chosen));
        return resps;
      }
      if (!shamir) return first_error;
      for (size_t j = 0; j < round.chosen.size(); ++j) {
        if (answered[j]) continue;
        ASSIGN_OR_RETURN(round.chosen[j], Replacement(round.chosen));
      }
      BeginPending(&round);
    }
  }

  // ------------------------------------------------------ combined evals

  /// Row `slot`'s client share as its dense coefficients in rows_.share:
  /// derived from its path the first time, with the label and the row in
  /// reused storage, and kept in wire form for the combination steps after
  /// the walk.
  Status ClientShare(uint32_t slot) {
    const size_t n = client_->ring().DenseCoeffCount();
    if (node(slot).share != ByteArena::kNone) {
      RETURN_IF_ERROR(LoadRow(node(slot).share, &rows_.share));
      rows_.share.resize(n);
      return Status::Ok();
    }
    rows_.label.assign(kShareLabelPrefix);
    AppendPath(slot, &rows_.label);
    rows_.share.resize(n);
    RETURN_IF_ERROR(client_->ShareRowForLabel(rows_.label, rows_.share));
    ++stats_.client_share_derivations;
    ASSIGN_OR_RETURN(node(slot).share, StoreRow(rows_.share));
    return Status::Ok();
  }

  /// Requests server evaluations for any (row, point) not yet filled from
  /// every active server, then combines them (plus the client's own share
  /// evaluations where the scheme includes one). Rows come from the roots
  /// or a learned parent; an unlearned row learns its shape from the
  /// answer (Learn).
  Status EnsureEvals(const std::vector<uint32_t>& slots,
                     const std::vector<uint64_t>& points) {
    std::vector<size_t> cols;
    cols.reserve(points.size());
    for (uint64_t e : points) cols.push_back(Column(e));
    EvalRound round;
    for (uint32_t s : slots) {
      bool missing = !(node(s).flags & kKnown);
      for (size_t c : cols) missing = missing || EvalCell(s, c) == kNoEval;
      if (missing) round.rows.push_back(s);
    }
    if (round.rows.empty()) return Status::Ok();
    const std::vector<uint32_t>& need = round.rows;

    round.req.points = points;
    round.req.node_ids.reserve(need.size());
    for (uint32_t s : need) round.req.node_ids.push_back(node(s).id);
    RETURN_IF_ERROR(Start(&round));
    std::vector<uint64_t> weights;
    ASSIGN_OR_RETURN(std::vector<EvalResponse> resps, Settle(round, &weights));
    ++stats_.rounds;
    for (const EvalResponse& resp : resps) {
      if (resp.entries.size() != need.size())
        return Status::Corruption("server returned wrong entry count");
    }
    stats_.server_evals += need.size() * points.size() * resps.size();

    std::vector<uint64_t> moduli;
    moduli.reserve(points.size());
    for (uint64_t e : points) {
      ASSIGN_OR_RETURN(uint64_t m, client_->ring().QueryModulus(e));
      moduli.push_back(m);
    }
    std::vector<const Evaluator*> own;  // per point, for the client share
    if (include_client()) {
      walk_.evaluators.resize(walk_.points.size());
      for (size_t c : cols) {
        std::optional<Evaluator>& ev = walk_.evaluators[c];
        if (!ev.has_value()) {
          ASSIGN_OR_RETURN(Evaluator built,
                           client_->ring().MakeEvaluator(
                               std::span<const uint64_t>(&walk_.points[c], 1)));
          ev.emplace(std::move(built));
        }
        own.push_back(&*ev);
      }
    }

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
      if (entry.node_id != round.req.node_ids[j])
        return Status::Corruption("server answered for a node not asked for");
      const uint32_t slot = need[j];
      if (!(node(slot).flags & kKnown)) RETURN_IF_ERROR(Learn(slot, entry));
      if (entry.values.size() != points.size())
        return Status::Corruption("server returned wrong value count");
      if (include_client()) RETURN_IF_ERROR(ClientShare(slot));
      for (size_t k = 0; k < points.size(); ++k) {
        const uint64_t m = moduli[k];
        uint64_t sum = 0;
        for (size_t s = 0; s < resps.size(); ++s) {
          const uint64_t v = resps[s].entries[j].values[k];
          if (v >= m)
            return Status::Corruption("server evaluation outside Z_m");
          sum = AddMod(sum, weights[s] == 1 ? v : MulMod(weights[s], v, m), m);
        }
        if (include_client()) {
          ++stats_.client_evals;
          sum = AddMod(
              sum, own[k]->At(std::span<const Scalar>(rows_.share), 0), m);
        }
        EvalCell(slot, cols[k]) = sum == 0 ? kZero : kNonZero;
        if (sum == 0) ++stats_.zero_candidates;
      }
    }
    return Status::Ok();
  }

  /// Whether row `slot`'s combined evaluation at `e` is zero.
  Result<bool> Vanishes(uint32_t slot, uint64_t e) {
    RETURN_IF_ERROR(EnsureEvals({slot}, {e}));
    return EvalCell(slot, Column(e)) == kZero;
  }

  /// BFS from `roots` keeping only rows whose combined evaluation vanishes
  /// at *all* points; returns those rows (the paper's alive region).
  Result<std::vector<uint32_t>> PrunedDescend(
      std::vector<uint32_t> roots, const std::vector<uint64_t>& points) {
    std::vector<size_t> cols;
    for (uint64_t e : points) cols.push_back(Column(e));
    std::vector<uint32_t> alive;
    std::vector<uint32_t> frontier = std::move(roots);
    while (!frontier.empty()) {
      RETURN_IF_ERROR(EnsureEvals(frontier, points));
      std::vector<uint32_t> next;
      for (uint32_t s : frontier) {
        bool all_zero = true;
        for (size_t c : cols) all_zero = all_zero && EvalCell(s, c) == kZero;
        if (!all_zero) continue;  // dead branch: never expanded (pruning)
        alive.push_back(s);
        AppendChildren(s, &next);
      }
      frontier = std::move(next);
    }
    return alive;
  }

  /// Whether row `slot` is learned and holds its evaluation in column
  /// `col` (EnsureEvals would request nothing for it).
  bool Filled(uint32_t slot, size_t col) {
    return (node(slot).flags & kKnown) && EvalCell(slot, col) != kNoEval;
  }

  /// True when no child of `z` evaluates to zero at e — the paper's
  /// "zero element without zero sub element" definite-answer test. Reads
  /// the cells the walk holds; requests only what is missing (XPath).
  Result<bool> HasNoZeroChild(uint32_t z, uint64_t e) {
    const size_t col = Column(e);
    if (!Filled(z, col)) RETURN_IF_ERROR(EnsureEvals({z}, {e}));
    const uint32_t first = node(z).first_child;
    const uint32_t end = first + node(z).num_children;
    for (uint32_t c = first; c < end; ++c) {
      if (!Filled(c, col)) {
        RETURN_IF_ERROR(EnsureEvals(Children(z), {e}));
        break;
      }
    }
    for (uint32_t c = first; c < end; ++c) {
      if (EvalCell(c, col) == kZero) return false;
    }
    return true;
  }

  // -------------------------------------------------------- reconstruction

  /// Whether row `slot` already holds what a `mode` fetch would bring.
  bool Fetched(uint32_t slot, FetchMode mode) {
    return (mode == FetchMode::kConstOnly ? node(slot).konst
                                          : node(slot).poly) !=
           ByteArena::kNone;
  }

  /// Folds one answered full-polynomial round into the walk's combined
  /// polynomials: each row's server parts (weighted) and client share are
  /// summed into one reused dense row, whose wire form goes to the arena
  /// once. Every server payload is decoded and checked as the ring's
  /// Deserialize checks it, held or not.
  Status CombinePolyRound(const std::vector<uint32_t>& need,
                          const std::vector<FetchResponse>& resps,
                          const std::vector<uint64_t>& weights) {
    stats_.polys_fetched_full += need.size();
    const Ring& ring = client_->ring();
    // sum += w * part over part's coefficients; plain adds when w = 1.
    auto accumulate = [&](const std::vector<Scalar>& part, uint64_t w) {
      Scalar* sum = rows_.sum.data();
      const Scalar* in = part.data();
      if (w == 1) {
        for (size_t i = 0; i < part.size(); ++i)
          sum[i] = ring.AddScalars(sum[i], in[i]);
      } else {
        for (size_t i = 0; i < part.size(); ++i)
          sum[i] = ring.AddScalars(sum[i], ScaledScalar(in[i], w));
      }
    };
    for (size_t j = 0; j < need.size(); ++j) {
      rows_.sum.assign(ring.DenseCoeffCount(), Scalar{});
      for (size_t s = 0; s < resps.size(); ++s) {
        ByteReader r(resps[s].entries[j].payload);
        RETURN_IF_ERROR(ring.DeserializeCoeffs(&r, &rows_.part));
        accumulate(rows_.part, weights[s]);
      }
      if (include_client()) {
        RETURN_IF_ERROR(ClientShare(need[j]));
        accumulate(rows_.share, 1);
      }
      if (node(need[j]).poly == ByteArena::kNone) {
        ASSIGN_OR_RETURN(node(need[j]).poly, StoreRow(rows_.sum));
      }
    }
    return Status::Ok();
  }

  /// Const-coefficient counterpart of CombinePolyRound.
  Status CombineConstRound(const std::vector<uint32_t>& need,
                           const std::vector<FetchResponse>& resps,
                           const std::vector<uint64_t>& weights) {
    stats_.consts_fetched += need.size();
    const Ring& ring = client_->ring();
    for (size_t j = 0; j < need.size(); ++j) {
      Scalar combined{};  // zero in both rings
      for (size_t s = 0; s < resps.size(); ++s) {
        ByteReader r(resps[s].entries[j].payload);
        ASSIGN_OR_RETURN(Scalar c0, ring.DeserializeScalar(&r));
        combined =
            ring.AddScalars(combined, ScaledScalar(std::move(c0), weights[s]));
      }
      if (include_client()) {
        RETURN_IF_ERROR(ClientShare(need[j]));
        combined = ring.AddScalars(combined, rows_.share[0]);
      }
      if (node(need[j]).konst == ByteArena::kNone) {
        ASSIGN_OR_RETURN(node(need[j]).konst, StoreScalar(combined));
      }
    }
    return Status::Ok();
  }

  /// Starts ONE `mode` FetchRequest per active server for every row of
  /// `slots` not requested before in this walk (first occurrence order). A
  /// round with no rows begins nothing.
  Result<FetchRound> StartFetch(FetchMode mode,
                                const std::vector<uint32_t>& slots) {
    const uint8_t requested =
        mode == FetchMode::kConstOnly ? kConstRequested : kPolyRequested;
    FetchRound round;
    round.req.mode = mode;
    for (uint32_t s : slots) {
      if (node(s).flags & requested) continue;
      node(s).flags |= requested;
      round.rows.push_back(s);
      round.req.node_ids.push_back(node(s).id);
    }
    if (!round.rows.empty()) RETURN_IF_ERROR(Start(&round));
    return round;
  }

  /// Settles a StartFetch round and folds its answers into the walk.
  Status SettleFetch(FetchRound& round) {
    if (round.rows.empty()) return Status::Ok();
    std::vector<uint64_t> weights;
    ASSIGN_OR_RETURN(std::vector<FetchResponse> resps, Settle(round, &weights));
    ++stats_.fetch_rounds;
    return round.req.mode == FetchMode::kConstOnly
               ? CombineConstRound(round.rows, resps, weights)
               : CombinePolyRound(round.rows, resps, weights);
  }

  /// Fetches and combines what `mode` brings for every row of `slots` not
  /// already requested, in ONE FetchRequest per server.
  Status Prefetch(FetchMode mode, const std::vector<uint32_t>& slots) {
    ASSIGN_OR_RETURN(FetchRound round, StartFetch(mode, slots));
    return SettleFetch(round);
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

  /// The overlap schedule's start: a StartFetch whose round waits in the
  /// walk until SettleParked.
  Status Park(FetchMode mode, const std::vector<uint32_t>& slots) {
    ASSIGN_OR_RETURN(FetchRound round, StartFetch(mode, slots));
    if (!round.rows.empty()) walk_.parked.push_back(std::move(round));
    return Status::Ok();
  }

  /// Settles every parked round (all of them, so nothing stays pending,
  /// even after one fails) and returns the first error.
  Status SettleParked() {
    std::vector<FetchRound> rounds;
    rounds.swap(walk_.parked);
    Status overall = Status::Ok();
    for (FetchRound& round : rounds) {
      Status s = SettleFetch(round);
      if (overall.ok()) overall = s;
    }
    return overall;
  }

  /// Row `slot`'s combined polynomial, decoded into reused `out`.
  Status FetchCombinedPoly(uint32_t slot, std::vector<Scalar>* out) {
    if (node(slot).poly == ByteArena::kNone)
      RETURN_IF_ERROR(Prefetch(FetchMode::kFull, {slot}));
    return LoadRow(node(slot).poly, out);
  }

  Result<Scalar> FetchCombinedConst(uint32_t slot) {
    if (node(slot).konst == ByteArena::kNone)
      RETURN_IF_ERROR(Prefetch(FetchMode::kConstOnly, {slot}));
    return LoadScalar(node(slot).konst);
  }

  /// Collects every row the verification of `zeros` will need — each
  /// candidate plus its direct children, routed to the const-only set for
  /// wrap-free nodes under the trusted mode and to the full-polynomial set
  /// otherwise. Appends to the caller's sets so several queries of a batch
  /// plan into the same fetch rounds.
  Status PlanCandidateFetches(const std::vector<uint32_t>& zeros,
                              VerifyMode mode, std::vector<uint32_t>* consts,
                              std::vector<uint32_t>* polys) {
    if (mode == VerifyMode::kOptimistic) return Status::Ok();
    for (uint32_t z : zeros) {
      RETURN_IF_ERROR(EnsureStructure(z));
      const bool const_only =
          mode == VerifyMode::kTrustedConstOnly &&
          static_cast<size_t>(SubtreeSize(z)) <= MaxResidueDegree();
      std::vector<uint32_t>* dst = const_only ? consts : polys;
      dst->push_back(z);
      AppendChildren(z, dst);
    }
    return Status::Ok();
  }

  /// Theorem 1/2 tag recovery for row `slot` ("reconstruct the non-shared
  /// polynomials of both the element and all its direct children"). The
  /// node's and its children's shares arrive in ONE batched FetchRequest
  /// per server per round — deduplicated against what the walk holds, so a
  /// caller that already prefetched (PlanCandidateFetches) pays no further
  /// round.
  Result<uint64_t> ReconstructTag(uint32_t slot, VerifyMode mode) {
    RETURN_IF_ERROR(EnsureStructure(slot));
    ++stats_.reconstructions;
    const Ring& ring = client_->ring();
    const uint32_t first = node(slot).first_child;
    const uint32_t end = first + node(slot).num_children;

    if (mode == VerifyMode::kTrustedConstOnly) {
      // Wrap-free nodes satisfy f_0 = -t * g_0 with g_0 the plain product of
      // the children's constant terms; wrapped nodes need the full Eq. 2.
      const bool wrap_free =
          static_cast<size_t>(SubtreeSize(slot)) <= MaxResidueDegree();
      if (wrap_free) {
        RETURN_IF_ERROR(PrefetchWithChildren(FetchMode::kConstOnly, slot));
        ASSIGN_OR_RETURN(Scalar f0, FetchCombinedConst(slot));
        Scalar g0 = ring.OneScalar();
        for (uint32_t c = first; c < end; ++c) {
          ASSIGN_OR_RETURN(Scalar c0, FetchCombinedConst(c));
          g0 = ring.MulScalars(g0, c0);
        }
        auto t = ring.SolveTagTrusted(f0, g0);
        if (t.ok()) return *t;
        // g_0 not invertible or inconsistent: fall back to a full fetch.
      }
      ++stats_.trusted_fallbacks;
      // fall through to the full reconstruction below
    }

    // A node's tag does not depend on which query asks: a batch whose tags
    // vanish at the same node solves Eq. 2 for it once.
    if (slot < walk_.tags.size() && walk_.tags[slot] != kNoTag)
      return walk_.tags[slot];
    RETURN_IF_ERROR(PrefetchWithChildren(FetchMode::kFull, slot));
    // The children's product, started from the first child (a leaf's is
    // 1), decoded and multiplied in the session's reused rows.
    RETURN_IF_ERROR(FetchCombinedPoly(slot, &rows_.f));
    rows_.g.assign(1, ring.OneScalar());
    for (uint32_t c = first; c < end; ++c) {
      if (c == first) {
        RETURN_IF_ERROR(FetchCombinedPoly(c, &rows_.g));
        continue;
      }
      RETURN_IF_ERROR(FetchCombinedPoly(c, &rows_.part));
      ring.MulInto(rows_.g, rows_.part, &rows_.product);
      std::swap(rows_.g, rows_.product);
    }
    ASSIGN_OR_RETURN(uint64_t t, ring.SolveTag(rows_.f, rows_.g));
    walk_.tags.resize(walk_.nodes.size(), kNoTag);
    walk_.tags[slot] = t;
    return t;
  }

  /// Prefetch for row `slot` and its children, skipped (with no list
  /// built) when the walk already holds all of them.
  Status PrefetchWithChildren(FetchMode mode, uint32_t slot) {
    const uint32_t first = node(slot).first_child;
    bool held = Fetched(slot, mode);
    for (uint32_t c = first; held && c < first + node(slot).num_children; ++c)
      held = Fetched(c, mode);
    if (held) return Status::Ok();
    std::vector<uint32_t> need = {slot};
    AppendChildren(slot, &need);
    return Prefetch(mode, need);
  }

  /// Structure (children / subtree size) without caring about values: reuse
  /// the eval path with the node's own cheap point when unknown.
  Status EnsureStructure(uint32_t slot) {
    if (node(slot).flags & kKnown) return Status::Ok();
    // Any valid point works; use 1 if the ring accepts it, else 2.
    uint64_t probe = client_->ring().QueryModulus(1).ok() ? 1 : 2;
    return EnsureEvals({slot}, {probe});
  }

  /// The largest degree a residue holds: p - 2 in F_p, deg r - 1 in Z.
  size_t MaxResidueDegree() const {
    return client_->ring().DenseCoeffCount() - 1;
  }

  /// Tag-equality test used by XPath stepping: does row `slot` carry
  /// exactly tag point `e`?
  Result<bool> NodeTagEquals(uint32_t slot, uint64_t e, VerifyMode mode) {
    ASSIGN_OR_RETURN(bool zero, Vanishes(slot, e));
    if (!zero) return false;  // (x - e) not among the factors
    // Cheap certificate: zero with no zero child means the node itself
    // matches (in F_p exactly; Z-ring FPs are caught by reconstruction
    // below only in verified/trusted modes — XPath always runs those).
    ASSIGN_OR_RETURN(bool definite, HasNoZeroChild(slot, e));
    // polysse-lint: allow(ring-fork): only F_p's filter is exact.
    if (definite && std::is_same_v<Ring, FpCyclotomicRing>) return true;
    ASSIGN_OR_RETURN(uint64_t t, ReconstructTag(slot, mode));
    if (definite && t != e) ++stats_.false_positives_removed;
    return t == e;
  }

  // ----------------------------------------------------------- strategies

  /// The candidates below XPath context `ctx`: the roots for the virtual
  /// context above them, else the context's children.
  Result<std::vector<uint32_t>> StepRoots(uint32_t ctx) {
    if (ctx == kNoSlot) return RootSlots();
    RETURN_IF_ERROR(EnsureStructure(ctx));
    return Children(ctx);
  }

  Status RunLeftToRight(const XPathQuery& query,
                        const std::vector<uint64_t>& points, VerifyMode mode,
                        NodeSet* out) {
    std::vector<uint32_t> contexts = {kNoSlot};
    for (size_t i = 0; i < query.steps().size(); ++i) {
      const XPathStep& step = query.steps()[i];
      const uint64_t e = points[i];
      NodeSet next;
      for (uint32_t ctx : contexts) {
        ASSIGN_OR_RETURN(std::vector<uint32_t> cands, StepRoots(ctx));
        if (step.axis != XPathStep::Axis::kChild) {
          ASSIGN_OR_RETURN(cands, PrunedDescend(std::move(cands), {e}));
        }
        for (uint32_t cand : cands) {
          ASSIGN_OR_RETURN(bool match, NodeTagEquals(cand, e, mode));
          if (match) next.emplace(node(cand).id, cand);
        }
      }
      contexts.clear();
      for (const auto& [id, slot] : next) contexts.push_back(slot);
      if (contexts.empty()) break;
    }
    for (uint32_t slot : contexts)
      if (slot != kNoSlot) out->emplace(node(slot).id, slot);
    return Status::Ok();
  }

  Status RunAllAtOnce(const XPathQuery& query,
                      const std::vector<uint64_t>& points, VerifyMode mode,
                      uint32_t ctx, size_t step_index,
                      std::set<std::pair<uint32_t, size_t>>* memo,
                      NodeSet* out) {
    if (!memo->insert({ctx, step_index}).second) return Status::Ok();
    if (step_index == query.steps().size()) {
      if (ctx != kNoSlot) out->emplace(node(ctx).id, ctx);
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

    const bool child_axis = step.axis == XPathStep::Axis::kChild;
    ASSIGN_OR_RETURN(std::vector<uint32_t> cands, StepRoots(ctx));
    if (!child_axis) {
      ASSIGN_OR_RETURN(cands, PrunedDescend(std::move(cands), suffix_points));
    }
    for (uint32_t cand : cands) {
      if (child_axis) {
        RETURN_IF_ERROR(EnsureEvals({cand}, suffix_points));
        bool all_zero = true;
        for (uint64_t pt : suffix_points)
          all_zero = all_zero && EvalCell(cand, Column(pt)) == kZero;
        if (!all_zero) continue;
      }
      ASSIGN_OR_RETURN(bool match, NodeTagEquals(cand, e, mode));
      if (match)
        RETURN_IF_ERROR(
            RunAllAtOnce(query, points, mode, cand, step_index + 1, memo, out));
    }
    return Status::Ok();
  }

  ClientContext<Ring>* client_;
  EndpointGroup group_;
  std::vector<SessionRoot> roots_;
  Status init_status_;
  std::vector<char> dead_;  ///< Shamir: endpoints that stopped answering

  QueryStats stats_;
  TransportCounters counters_before_;
  Walk walk_;
  ByteWriter scratch_;                  ///< encodes one blob at a time
  std::vector<uint32_t> path_indices_;  ///< Path's climb, reused
  /// The walk's reused coefficient rows.
  struct Rows {
    std::string label;          ///< kShareLabelPrefix + a row's path
    std::vector<Scalar> share;  ///< a client share, DenseCoeffCount() long
    std::vector<Scalar> sum;    ///< a combined polynomial being summed
    std::vector<Scalar> part;   ///< one decoded polynomial
    std::vector<Scalar> f, g, product;  ///< Theorem 1/2's f, g and g * part
  } rows_;
};

}  // namespace polysse

#endif  // POLYSSE_CORE_QUERY_SESSION_H_
