// The server of §4.2/§4.3: one ServerStoreRegistry per server holds one
// ServerStore (share tree) per outsourced document, each document owning a
// disjoint range of the server's node-id space ([base, base + size)), and
// answers every request. An Eval/Fetch request names global node ids; the
// registry finds the document that owns each one and answers in request
// order with global ids, so a cross-document query round is ONE
// EvalRequest per server regardless of how many documents its frontier
// spans. A one-document deployment is the one-document registry.
//
// Documents are managed incrementally over the same wire protocol:
// HandleAddDoc registers one new share tree (nothing about the existing
// documents crosses the wire again), HandleRemoveDoc retires one. Both are
// safe against concurrent serving: admissions take the write lock, queries
// the read lock.
#ifndef POLYSSE_CORE_STORE_REGISTRY_H_
#define POLYSSE_CORE_STORE_REGISTRY_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <shared_mutex>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/endpoint.h"
#include "core/persistence.h"
#include "core/server_store.h"
#include "util/bytes.h"
#include "util/status.h"

namespace polysse {

/// One server's document registry and the server's one ServerHandler, so
/// it plugs into any ServerEndpoint (and SocketServer). Serving is
/// thread-safe: requests share the read lock, and the work counters are
/// relaxed atomics.
template <typename Ring>
class ServerStoreRegistry : public ServerHandler {
 public:
  /// Work counters (server-side cost model for E8/E9), one count per
  /// answered wire request whatever number of documents it spans.
  struct Stats {
    size_t eval_requests = 0;
    size_t evals = 0;  ///< (node, point) polynomial evaluations
    size_t fetch_requests = 0;
    size_t polys_served_full = 0;
    size_t consts_served = 0;
  };

  /// Points per evaluator block. The client picks a request's point
  /// count, so the server tables point powers for this many at a time
  /// (a 1 MiB request of points would otherwise make a p = 67 server hold
  /// about half a GiB of powers); one block covers a batch-tcp-wan request.
  static constexpr size_t kEvalBlockPoints = 16;

  /// One registered document, as visible to introspection.
  struct DocInfo {
    uint64_t doc_id = 0;
    int32_t base = 0;
    size_t nodes = 0;
  };

  explicit ServerStoreRegistry(Ring ring) : ring_(std::move(ring)) {}

  ServerStoreRegistry(const ServerStoreRegistry&) = delete;
  ServerStoreRegistry& operator=(const ServerStoreRegistry&) = delete;

  const Ring& ring() const { return ring_; }

  /// Whether two rings have the same parameters, as store headers write
  /// them.
  static bool SameRing(const Ring& a, const Ring& b) {
    ByteWriter wa, wb;
    SaveStoredRing(a, &wa);
    SaveStoredRing(b, &wb);
    return wa.bytes() == wb.bytes();
  }

  /// Snapshot of the work counters (serving may be in flight concurrently).
  Stats stats() const {
    return Stats{eval_requests_.load(std::memory_order_relaxed),
                 evals_.load(std::memory_order_relaxed),
                 fetch_requests_.load(std::memory_order_relaxed),
                 polys_served_full_.load(std::memory_order_relaxed),
                 consts_served_.load(std::memory_order_relaxed)};
  }

  size_t num_docs() const {
    std::shared_lock<std::shared_mutex> lock(mu_);
    return entries_.size();
  }

  size_t total_nodes() const {
    std::shared_lock<std::shared_mutex> lock(mu_);
    return TotalNodesLocked();
  }

  /// Snapshot of the registered documents, in node-id (base) order.
  std::vector<DocInfo> docs() const {
    std::shared_lock<std::shared_mutex> lock(mu_);
    std::vector<DocInfo> out;
    out.reserve(entries_.size());
    for (const Entry& e : entries_)
      out.push_back({e.doc_id, e.base, e.store->size()});
    return out;
  }

  /// The store registered under `doc_id`. The pointer stays valid until
  /// that document is removed (stores are held behind stable allocations).
  Result<const ServerStore<Ring>*> store(uint64_t doc_id) const {
    std::shared_lock<std::shared_mutex> lock(mu_);
    for (const Entry& e : entries_) {
      if (e.doc_id == doc_id)
        return static_cast<const ServerStore<Ring>*>(e.store.get());
    }
    return Status::NotFound("doc id " + std::to_string(doc_id) +
                            " is not registered");
  }

  /// Bytes this server persists across every registered document.
  size_t PersistedBytes() const {
    std::shared_lock<std::shared_mutex> lock(mu_);
    size_t sum = 0;
    for (const Entry& e : entries_) sum += e.store->PersistedBytes();
    return sum;
  }

  /// Registers `store` as document `doc_id` occupying node ids
  /// [base, base + store.size()). Rejects duplicate ids and overlapping
  /// ranges; the caller (one client keying every server identically)
  /// assigns bases monotonically and never reuses them.
  Status AddDoc(uint64_t doc_id, int32_t base, ServerStore<Ring> store) {
    std::unique_lock<std::shared_mutex> lock(mu_);
    if (base < 0)
      return Status::InvalidArgument("doc base must be non-negative");
    const int64_t size = static_cast<int64_t>(store.size());
    if (static_cast<int64_t>(base) + size - 1 > INT32_MAX)
      return Status::InvalidArgument("collection node-id space exhausted");
    if (!SameRing(store.ring(), ring_))
      return Status::InvalidArgument(
          "document store ring disagrees with the registry's ring");
    for (const Entry& e : entries_) {
      if (e.doc_id == doc_id)
        return Status::InvalidArgument("doc id " + std::to_string(doc_id) +
                                       " is already registered");
      const int64_t e_end =
          e.base + static_cast<int64_t>(e.store->size());
      if (base < e_end && e.base < static_cast<int64_t>(base) + size)
        return Status::InvalidArgument(
            "doc node-id range overlaps an existing document");
    }
    Entry entry{doc_id, base,
                std::make_unique<ServerStore<Ring>>(std::move(store))};
    auto pos = entries_.begin();
    while (pos != entries_.end() && pos->base < base) ++pos;
    entries_.insert(pos, std::move(entry));
    return Status::Ok();
  }

  /// Retires the document registered under `doc_id`.
  Status RemoveDoc(uint64_t doc_id) {
    std::unique_lock<std::shared_mutex> lock(mu_);
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      if (it->doc_id == doc_id) {
        entries_.erase(it);
        return Status::Ok();
      }
    }
    return Status::NotFound("doc id " + std::to_string(doc_id) +
                            " is not registered");
  }

  /// Moves the document registered under `doc_id` to node-id base
  /// `new_base`, keeping its share tree (stores are base-independent; the
  /// registry re-offsets requests). Rejects a target range that would
  /// overlap another document. Shard compaction uses this to pack a
  /// shard's documents back against its range start.
  Status RebaseDoc(uint64_t doc_id, int32_t new_base) {
    std::unique_lock<std::shared_mutex> lock(mu_);
    Entry* target = nullptr;
    for (Entry& e : entries_) {
      if (e.doc_id == doc_id) {
        target = &e;
        break;
      }
    }
    if (target == nullptr)
      return Status::NotFound("doc id " + std::to_string(doc_id) +
                              " is not registered");
    if (new_base < 0)
      return Status::InvalidArgument("doc base must be non-negative");
    const int64_t size = static_cast<int64_t>(target->store->size());
    if (static_cast<int64_t>(new_base) + size - 1 > INT32_MAX)
      return Status::InvalidArgument("collection node-id space exhausted");
    for (const Entry& e : entries_) {
      if (e.doc_id == doc_id) continue;
      const int64_t e_end = e.base + static_cast<int64_t>(e.store->size());
      if (new_base < e_end &&
          e.base < static_cast<int64_t>(new_base) + size)
        return Status::InvalidArgument(
            "doc node-id range overlaps an existing document");
    }
    target->base = new_base;
    std::sort(entries_.begin(), entries_.end(),
              [](const Entry& a, const Entry& b) { return a.base < b.base; });
    return Status::Ok();
  }

  /// One past the highest node id any registered document occupies (0 when
  /// empty) — the registry's id-space high-water mark. The reclamation
  /// tests assert this shrinks after a merge + compaction.
  int64_t IdSpaceEnd() const {
    std::shared_lock<std::shared_mutex> lock(mu_);
    if (entries_.empty()) return 0;
    const Entry& last = entries_.back();
    return last.base + static_cast<int64_t>(last.store->size());
  }

  // --------------------------------------------------------- ServerHandler

  /// Evaluates the share of each requested node at each point. One pass
  /// over the ids shapes every entry at its global id; then each block of
  /// kEvalBlockPoints points is tabled once and fills every entry's values
  /// (one block's table is alive at a time). An unowned id is refused
  /// before any point is checked, and an empty id list answers empty.
  Result<EvalResponse> HandleEval(const EvalRequest& req) override {
    std::shared_lock<std::shared_mutex> lock(mu_);
    EvalResponse resp;
    resp.entries.reserve(req.node_ids.size());
    std::vector<const Elem*> polys;
    polys.reserve(req.node_ids.size());
    for (int32_t id : req.node_ids) {
      ASSIGN_OR_RETURN(const Entry* owner, OwnerLocked(id));
      const auto& node = owner->store->tree().nodes[id - owner->base];
      EvalEntry& entry = resp.entries.emplace_back();
      entry.node_id = id;
      entry.values.resize(req.points.size());
      entry.children.reserve(node.children.size());
      for (int c : node.children) entry.children.push_back(c + owner->base);
      entry.subtree_size = node.subtree_size;
      polys.push_back(&node.poly);
    }
    const std::span<const uint64_t> points = req.points;
    for (size_t b = 0; !polys.empty() && b < points.size();
         b += kEvalBlockPoints) {
      const size_t n = std::min(kEvalBlockPoints, points.size() - b);
      ASSIGN_OR_RETURN(typename Ring::Evaluator ev,
                       ring_.MakeEvaluator(points.subspan(b, n)));
      for (size_t j = 0; j < polys.size(); ++j) {
        uint64_t* values = resp.entries[j].values.data() + b;
        for (size_t k = 0; k < n; ++k) values[k] = ev.At(*polys[j], k);
      }
    }
    eval_requests_.fetch_add(1, std::memory_order_relaxed);
    evals_.fetch_add(polys.size() * points.size(), std::memory_order_relaxed);
    return resp;
  }

  /// Serves each requested node's share polynomial (full) or its constant
  /// coefficient, in request order, through one encoder.
  Result<FetchResponse> HandleFetch(const FetchRequest& req) override {
    std::shared_lock<std::shared_mutex> lock(mu_);
    FetchResponse resp;
    resp.entries.reserve(req.node_ids.size());
    ByteWriter w;  // each payload is copied out at its size
    for (int32_t id : req.node_ids) {
      ASSIGN_OR_RETURN(const Entry* owner, OwnerLocked(id));
      const Elem& poly = owner->store->tree().nodes[id - owner->base].poly;
      w.Clear();
      if (req.mode == FetchMode::kFull) {
        ring_.Serialize(poly, &w);
      } else {
        ring_.SerializeScalar(ring_.ConstTerm(poly), &w);
      }
      FetchEntry& entry = resp.entries.emplace_back();
      entry.node_id = id;
      entry.payload.assign(w.bytes().begin(), w.bytes().end());
    }
    fetch_requests_.fetch_add(1, std::memory_order_relaxed);
    (req.mode == FetchMode::kFull ? polys_served_full_ : consts_served_)
        .fetch_add(req.node_ids.size(), std::memory_order_relaxed);
    return resp;
  }

  Result<AdminAck> HandleAddDoc(const AddDocRequest& req) override {
    ByteReader reader(req.store_bytes);
    ASSIGN_OR_RETURN(ServerStore<Ring> store, LoadServerStore<Ring>(&reader));
    RETURN_IF_ERROR(AddDoc(req.doc_id, req.base, std::move(store)));
    return Ack();
  }

  Result<AdminAck> HandleRemoveDoc(const RemoveDocRequest& req) override {
    RETURN_IF_ERROR(RemoveDoc(req.doc_id));
    return Ack();
  }

  Result<ExportDocResponse> HandleExportDoc(
      const ExportDocRequest& req) override {
    std::shared_lock<std::shared_mutex> lock(mu_);
    for (const Entry& e : entries_) {
      if (e.doc_id != req.doc_id) continue;
      ExportDocResponse out;
      out.base = e.base;
      ByteWriter inner;
      SaveServerStore(*e.store, &inner);
      auto span = inner.span();
      out.store_bytes.assign(span.begin(), span.end());
      return out;
    }
    return Status::NotFound("doc id " + std::to_string(req.doc_id) +
                            " is not registered");
  }

  Result<AdminAck> HandleRebaseDoc(const RebaseDocRequest& req) override {
    RETURN_IF_ERROR(RebaseDoc(req.doc_id, req.new_base));
    return Ack();
  }

  /// A registry's pong reports its inventory, so a probe doubles as a
  /// cheap remote doc/node-count cross-check.
  Result<PingResponse> HandlePing(const PingRequest& req) override {
    std::shared_lock<std::shared_mutex> lock(mu_);
    return PingResponse{req.nonce, entries_.size(), TotalNodesLocked()};
  }

 private:
  struct Entry {
    uint64_t doc_id = 0;
    int32_t base = 0;
    std::unique_ptr<ServerStore<Ring>> store;
  };

  using Elem = typename Ring::Elem;

  size_t TotalNodesLocked() const {
    size_t sum = 0;
    for (const Entry& e : entries_) sum += e.store->size();
    return sum;
  }

  /// The entry whose range holds global id `id`, by binary search over
  /// the bases; InvalidArgument when no document owns it.
  Result<const Entry*> OwnerLocked(int32_t id) const {
    auto it = std::upper_bound(
        entries_.begin(), entries_.end(), id,
        [](int32_t v, const Entry& e) { return v < e.base; });
    if (it == entries_.begin() ||
        static_cast<int64_t>(id) >=
            (it - 1)->base + static_cast<int64_t>((it - 1)->store->size()))
      return Status::InvalidArgument("node id " + std::to_string(id) +
                                     " out of range");
    return &*(it - 1);
  }

  AdminAck Ack() const {
    std::shared_lock<std::shared_mutex> lock(mu_);
    return AdminAck{entries_.size(), TotalNodesLocked()};
  }

  Ring ring_;
  mutable std::shared_mutex mu_;
  std::vector<Entry> entries_;  ///< sorted by base
  std::atomic<size_t> eval_requests_{0};
  std::atomic<size_t> evals_{0};
  std::atomic<size_t> fetch_requests_{0};
  std::atomic<size_t> polys_served_full_{0};
  std::atomic<size_t> consts_served_{0};
};

// polysse-lint: allow(ring-fork): each ring's registry, by name.
using FpStoreRegistry = ServerStoreRegistry<FpCyclotomicRing>;
// polysse-lint: allow(ring-fork)
using ZStoreRegistry = ServerStoreRegistry<ZQuotientRing>;

// -------------------------------------------------- registry persistence
//
// Collection store container ("PSSC"; header constants in persistence.h),
// one file per server:
//   magic "PSSC" | u8 container version (1) | u8 ring kind | ring params |
//   doc count | per doc: doc id | base | length-prefixed single-store bytes
// The inner per-document bytes are the standard "PSSE" single-store format
// (persistence.h) — the exact bytes an AddDocRequest ships over the wire.
// Anything without the "PSSC" magic, a bare "PSSE" file included, is
// refused with Corruption.

template <typename Ring>
void SaveStoreRegistry(const ServerStoreRegistry<Ring>& registry,
                       ByteWriter* out) {
  out->PutBytes(std::span<const uint8_t>(
      reinterpret_cast<const uint8_t*>(kCollectionStoreMagic), 4));
  out->PutU8(kCollectionStoreVersion);
  SaveStoredRing(registry.ring(), out);
  const auto docs = registry.docs();
  out->PutVarint64(docs.size());
  for (const auto& doc : docs) {
    out->PutVarint64(doc.doc_id);
    out->PutVarint64(static_cast<uint32_t>(doc.base));
    const ServerStore<Ring>* store = registry.store(doc.doc_id).value();
    ByteWriter inner;
    SaveServerStore(*store, &inner);
    out->PutLengthPrefixed(inner.span());
  }
}

template <typename Ring>
Result<std::unique_ptr<ServerStoreRegistry<Ring>>> LoadStoreRegistry(
    std::span<const uint8_t> bytes) {
  if (!IsCollectionStoreFile(bytes))
    return Status::Corruption("not a polysse collection store (bad magic)");
  ByteReader reader(bytes);
  RETURN_IF_ERROR(reader.GetBytes(4).status());  // magic, already checked
  ASSIGN_OR_RETURN(uint8_t version, reader.GetU8());
  if (version != kCollectionStoreVersion)
    return Status::Corruption("unsupported collection store version " +
                              std::to_string(version));
  ASSIGN_OR_RETURN(Ring ring, LoadStoredRing<Ring>(&reader));
  auto registry = std::make_unique<ServerStoreRegistry<Ring>>(std::move(ring));
  ASSIGN_OR_RETURN(uint64_t count, reader.GetVarint64());
  if (count > reader.remaining())
    return Status::Corruption("absurd document count in collection store");
  for (uint64_t i = 0; i < count; ++i) {
    ASSIGN_OR_RETURN(uint64_t doc_id, reader.GetVarint64());
    ASSIGN_OR_RETURN(uint64_t base, reader.GetVarint64());
    if (base > static_cast<uint64_t>(INT32_MAX))
      return Status::Corruption("doc base exceeds the node-id space");
    ASSIGN_OR_RETURN(std::vector<uint8_t> inner, reader.GetLengthPrefixed());
    ByteReader inner_reader(inner);
    ASSIGN_OR_RETURN(ServerStore<Ring> store,
                     LoadServerStore<Ring>(&inner_reader));
    RETURN_IF_ERROR(
        registry->AddDoc(doc_id, static_cast<int32_t>(base),
                         std::move(store)));
  }
  return registry;
}

}  // namespace polysse

#endif  // POLYSSE_CORE_STORE_REGISTRY_H_
