// Wire protocol between the thin client and the untrusted server (§4.3).
// Every message is actually serialized/deserialized — even though both ends
// run in one process — so the byte counters report real wire costs and the
// codecs are exercised on every query.
//
// Message flow for one lookup:
//   C -> S  EvalRequest  {points, node_ids}      (points = map(tag) values)
//   S -> C  EvalResponse {id, values[], children, subtree_size}
//   ... repeated per BFS round; pruned branches are simply never requested,
//       which is how the server "stops evaluating polynomials" (§4.3) ...
//   C -> S  FetchRequest {mode, node_ids}        (verification phase)
//   S -> C  FetchResponse{id, payload}           (full share or const coeff)
#ifndef POLYSSE_CORE_PROTOCOL_H_
#define POLYSSE_CORE_PROTOCOL_H_

#include <cstdint>
#include <vector>

#include "util/bytes.h"
#include "util/status.h"

namespace polysse {

/// Client asks the server to evaluate its share of `node_ids` at `points`.
struct EvalRequest {
  std::vector<uint64_t> points;
  std::vector<int32_t> node_ids;

  void Serialize(ByteWriter* out) const;
  static Result<EvalRequest> Deserialize(ByteReader* in);
};

/// Per-node evaluation results plus the structure info the client needs to
/// continue the walk (the server knows the tree shape; the client may not).
struct EvalEntry {
  int32_t node_id = 0;
  /// Aligned with EvalRequest::points.
  std::vector<uint64_t> values;
  std::vector<int32_t> children;
  /// Node count of the subtree == true polynomial degree; lets the client
  /// decide wrap-freeness for the trusted const-only mode.
  int32_t subtree_size = 0;
};

struct EvalResponse {
  std::vector<EvalEntry> entries;

  void Serialize(ByteWriter* out) const;
  static Result<EvalResponse> Deserialize(ByteReader* in);
};

/// What the verification phase transfers per node.
enum class FetchMode : uint8_t {
  kFull = 0,       ///< complete share polynomial (enables Eq. 3 checking)
  kConstOnly = 1,  ///< constant coefficient only (paper's trusted mode)
};

struct FetchRequest {
  FetchMode mode = FetchMode::kFull;
  std::vector<int32_t> node_ids;

  void Serialize(ByteWriter* out) const;
  static Result<FetchRequest> Deserialize(ByteReader* in);
};

struct FetchEntry {
  int32_t node_id = 0;
  /// Ring-serialized element (kFull) or scalar (kConstOnly).
  std::vector<uint8_t> payload;
};

struct FetchResponse {
  std::vector<FetchEntry> entries;

  void Serialize(ByteWriter* out) const;
  static Result<FetchResponse> Deserialize(ByteReader* in);
};

// ------------------------------------------------- registry administration
//
// A server hosting a *collection* keeps one share tree per outsourced
// document in a ServerStoreRegistry (core/store_registry.h), every document
// owning a disjoint range of the server's node-id space. The client manages
// the registry incrementally over the same wire: AddDoc ships one new
// document's share tree (the other documents' trees never cross the wire
// again), RemoveDoc retires one. Servers that are not registries answer
// both with Unimplemented.

/// Registers one document's share tree under `doc_id`. `base` is the first
/// node id of the document's range (the client assigns ranges so every
/// server agrees); `store_bytes` is the tree in the standard single-store
/// serialization (persistence.h), ring header included.
struct AddDocRequest {
  uint64_t doc_id = 0;
  int32_t base = 0;
  std::vector<uint8_t> store_bytes;

  void Serialize(ByteWriter* out) const;
  static Result<AddDocRequest> Deserialize(ByteReader* in);
};

/// Retires the document registered under `doc_id`.
struct RemoveDocRequest {
  uint64_t doc_id = 0;

  void Serialize(ByteWriter* out) const;
  static Result<RemoveDocRequest> Deserialize(ByteReader* in);
};

/// Acknowledgement of an admin request: the registry's state after the
/// operation, so the client can cross-check that all servers agree.
struct AdminAck {
  uint64_t doc_count = 0;
  uint64_t node_count = 0;

  void Serialize(ByteWriter* out) const;
  static Result<AdminAck> Deserialize(ByteReader* in);
};

// ------------------------------------------------------ shard administration
//
// A sharded collection (core/collection.h) migrates documents
// between server groups: split moves half a shard's documents to a new
// group, merge drains a retiring shard into a surviving one and then
// compacts the survivor's node-id space. Two admin messages make those
// moves pure wire operations — the client never needs local access to a
// registry's stores:
//   ExportDoc  pulls one document's share tree off a server (the exact
//              bytes a later AddDocRequest re-registers elsewhere);
//   RebaseDoc  slides one document to a new node-id base in place, which
//              is how compaction reclaims leaked id ranges without the
//              share tree ever crossing the wire again.

/// Asks a registry server for one document's serialized share tree.
struct ExportDocRequest {
  uint64_t doc_id = 0;

  void Serialize(ByteWriter* out) const;
  static Result<ExportDocRequest> Deserialize(ByteReader* in);
};

/// The document's current base plus its store in the standard single-store
/// serialization — AddDocRequest::store_bytes compatible, so a move is
/// export + add (at the destination base) + remove.
struct ExportDocResponse {
  int32_t base = 0;
  std::vector<uint8_t> store_bytes;

  void Serialize(ByteWriter* out) const;
  static Result<ExportDocResponse> Deserialize(ByteReader* in);
};

/// Re-registers the document under `doc_id` at node-id base `new_base`,
/// keeping its share tree. The registry rejects a target range that would
/// overlap another document.
struct RebaseDocRequest {
  uint64_t doc_id = 0;
  int32_t new_base = 0;

  void Serialize(ByteWriter* out) const;
  static Result<RebaseDocRequest> Deserialize(ByteReader* in);
};

// ------------------------------------------------------------ health probe

/// Liveness probe. Any server answers — the scatter-gather scheduler uses
/// probes to skip dead groups without burning a query round's timeout.
struct PingRequest {
  uint64_t nonce = 0;

  void Serialize(ByteWriter* out) const;
  static Result<PingRequest> Deserialize(ByteReader* in);
};

/// Echoes the nonce; registry servers also report their document/node
/// counts so a probe doubles as a cheap remote-inventory check.
struct PingResponse {
  uint64_t nonce = 0;
  uint64_t doc_count = 0;
  uint64_t node_count = 0;

  void Serialize(ByteWriter* out) const;
  static Result<PingResponse> Deserialize(ByteReader* in);
};

/// Byte/message counters for one direction pair.
struct TransportCounters {
  size_t bytes_up = 0;    ///< client -> server
  size_t bytes_down = 0;  ///< server -> client
  size_t messages_up = 0;
  size_t messages_down = 0;

  void Add(const TransportCounters& o) {
    bytes_up += o.bytes_up;
    bytes_down += o.bytes_down;
    messages_up += o.messages_up;
    messages_down += o.messages_down;
  }
};

/// Everything a query run reports; the currency of experiments E8-E11.
struct QueryStats {
  size_t total_server_nodes = 0;
  size_t nodes_visited = 0;   ///< distinct nodes the server evaluated
  size_t server_evals = 0;    ///< (node, point) evaluations at the server
  size_t client_evals = 0;    ///< (node, point) evaluations at the client
  size_t client_share_derivations = 0;  ///< PRF-derived share polynomials
  /// BFS round trips, counted when answered: a round that a Shamir
  /// failover starts again with replacements counts once.
  size_t rounds = 0;
  /// Batched verification-fetch round trips, counted like `rounds`.
  size_t fetch_rounds = 0;
  size_t zero_candidates = 0; ///< nodes whose combined evaluation was 0
  size_t reconstructions = 0; ///< Theorem 1/2 tag recoveries performed
  size_t polys_fetched_full = 0;
  size_t consts_fetched = 0;
  /// kTrustedConstOnly candidates resolved by full reconstruction after all:
  /// wrapped nodes (subtree beyond the residue degree, planned straight into
  /// the full-polynomial round, never asked const-only) plus wrap-free
  /// nodes whose const-only solve failed. Counted per request, like
  /// `reconstructions`.
  size_t trusted_fallbacks = 0;
  size_t false_positives_removed = 0;  ///< eval-filter hits rejected by t != e
  /// Shamir: servers that went from live to dead mid-query (failed or
  /// answered out of shape) and were replaced; each counts once, however
  /// many rounds had asked it.
  size_t server_failovers = 0;
  TransportCounters transport;

  /// Fraction of the server tree touched (the §5 "small portion" claim).
  double VisitedFraction() const {
    return total_server_nodes == 0
               ? 0.0
               : static_cast<double>(nodes_visited) /
                     static_cast<double>(total_server_nodes);
  }
};

}  // namespace polysse

#endif  // POLYSSE_CORE_PROTOCOL_H_
