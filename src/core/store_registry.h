// The server side of a multi-document collection: one ServerStoreRegistry
// per server holds one ServerStore (share tree) per outsourced document,
// each document owning a disjoint range of the server's node-id space
// ([base, base + size)). Eval/Fetch requests keep the single-store wire
// format — the registry routes every requested node id to the store that
// owns it and offsets the response ids back into the global space, so a
// cross-document query round is ONE EvalRequest per server regardless of
// how many documents its frontier spans.
//
// Documents are managed incrementally over the same wire protocol:
// HandleAddDoc registers one new share tree (nothing about the existing
// documents crosses the wire again), HandleRemoveDoc retires one. Both are
// safe against concurrent serving: admissions take the write lock, queries
// the read lock.
#ifndef POLYSSE_CORE_STORE_REGISTRY_H_
#define POLYSSE_CORE_STORE_REGISTRY_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <shared_mutex>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/endpoint.h"
#include "core/persistence.h"
#include "core/server_store.h"
#include "util/bytes.h"
#include "util/status.h"

namespace polysse {

/// One server's document registry. Implements ServerHandler, so it plugs
/// into any ServerEndpoint (and SocketServer) exactly like a single
/// ServerStore does — a single-store server is just the degenerate
/// one-document registry.
template <typename Ring>
class ServerStoreRegistry : public ServerHandler {
 public:
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

  /// Whether two rings have the same parameters (field or modulus).
  static bool SameRing(const Ring& a, const Ring& b) {
    if constexpr (std::is_same_v<Ring, FpCyclotomicRing>)
      return a.p() == b.p();
    else
      return a.modulus() == b.modulus();
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

  Result<EvalResponse> HandleEval(const EvalRequest& req) override {
    std::shared_lock<std::shared_mutex> lock(mu_);
    ASSIGN_OR_RETURN(std::vector<SubRequest> subs,
                     PartitionLocked(req.node_ids));
    // Every document's store answers from the same evaluator per block of
    // points: the request's point powers are tabled once, not per store.
    std::vector<EvalResponse> parts;
    parts.reserve(subs.size());
    for (const SubRequest& sub : subs) {
      ASSIGN_OR_RETURN(EvalResponse part,
                       entries_[sub.entry_index].store->EvalShape(
                           sub.local_ids, req.points.size()));
      parts.push_back(std::move(part));
    }
    if (!subs.empty()) {
      RETURN_IF_ERROR(ServerStore<Ring>::ForEachEvalBlock(
          ring_, req.points,
          [&](const typename Ring::Evaluator& ev, size_t first) {
            for (size_t k = 0; k < subs.size(); ++k)
              entries_[subs[k].entry_index].store->EvalBlock(ev, first,
                                                             &parts[k]);
          }));
    }
    EvalResponse out;
    out.entries.resize(req.node_ids.size());
    for (size_t k = 0; k < subs.size(); ++k) {
      const Entry& entry = entries_[subs[k].entry_index];
      entry.store->CountEval(parts[k], req.points.size());
      for (size_t i = 0; i < parts[k].entries.size(); ++i) {
        EvalEntry& e = parts[k].entries[i];
        e.node_id += entry.base;
        for (int32_t& c : e.children) c += entry.base;
        out.entries[subs[k].positions[i]] = std::move(e);
      }
    }
    return out;
  }

  Result<FetchResponse> HandleFetch(const FetchRequest& req) override {
    std::shared_lock<std::shared_mutex> lock(mu_);
    ASSIGN_OR_RETURN(std::vector<SubRequest> subs,
                     PartitionLocked(req.node_ids));
    FetchResponse out;
    out.entries.resize(req.node_ids.size());
    for (const SubRequest& sub : subs) {
      const Entry& entry = entries_[sub.entry_index];
      FetchRequest local;
      local.mode = req.mode;
      local.node_ids = sub.local_ids;
      ASSIGN_OR_RETURN(FetchResponse resp, entry.store->HandleFetch(local));
      if (resp.entries.size() != sub.positions.size())
        return Status::Internal("registry sub-response misaligned");
      for (size_t i = 0; i < resp.entries.size(); ++i) {
        FetchEntry& e = resp.entries[i];
        e.node_id += entry.base;
        out.entries[sub.positions[i]] = std::move(e);
      }
    }
    return out;
  }

  Result<AdminAck> HandleAddDoc(const AddDocRequest& req) override {
    ByteReader reader(req.store_bytes);
    auto store_or = [&] {
      if constexpr (std::is_same_v<Ring, FpCyclotomicRing>)
        return LoadFpServerStore(&reader);
      else
        return LoadZServerStore(&reader);
    }();
    RETURN_IF_ERROR(store_or.status());
    RETURN_IF_ERROR(AddDoc(req.doc_id, req.base, std::move(*store_or)));
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

  /// The request positions and store-local ids owned by one document.
  struct SubRequest {
    size_t entry_index = 0;
    std::vector<int32_t> local_ids;
    std::vector<size_t> positions;
  };

  size_t TotalNodesLocked() const {
    size_t sum = 0;
    for (const Entry& e : entries_) sum += e.store->size();
    return sum;
  }

  /// The entry whose range holds global id `id`, by binary search over
  /// the bases; entries_.size() when no document owns it.
  size_t OwnerLocked(int32_t id) const {
    auto it = std::upper_bound(
        entries_.begin(), entries_.end(), id,
        [](int32_t v, const Entry& e) { return v < e.base; });
    if (it == entries_.begin()) return entries_.size();
    --it;
    if (static_cast<int64_t>(id) >=
        it->base + static_cast<int64_t>(it->store->size()))
      return entries_.size();
    return static_cast<size_t>(it - entries_.begin());
  }

  /// Maps every requested global id to its owning document, preserving the
  /// request positions so responses realign with the request order. Subs
  /// come in order of their document's first appearance; each is sized
  /// before it is filled.
  Result<std::vector<SubRequest>> PartitionLocked(
      const std::vector<int32_t>& node_ids) const {
    constexpr uint32_t kNoSub = UINT32_MAX;
    std::vector<uint32_t> owners(node_ids.size());
    std::vector<uint32_t> sub_of(entries_.size(), kNoSub);
    std::vector<SubRequest> subs;
    std::vector<size_t> counts;
    for (size_t pos = 0; pos < node_ids.size(); ++pos) {
      const size_t owner = OwnerLocked(node_ids[pos]);
      if (owner == entries_.size())
        return Status::InvalidArgument("node id " +
                                       std::to_string(node_ids[pos]) +
                                       " out of range");
      if (sub_of[owner] == kNoSub) {
        sub_of[owner] = static_cast<uint32_t>(subs.size());
        subs.push_back(SubRequest{owner, {}, {}});
        counts.push_back(0);
      }
      owners[pos] = sub_of[owner];
      ++counts[owners[pos]];
    }
    for (size_t k = 0; k < subs.size(); ++k) {
      subs[k].local_ids.reserve(counts[k]);
      subs[k].positions.reserve(counts[k]);
    }
    for (size_t pos = 0; pos < node_ids.size(); ++pos) {
      SubRequest& sub = subs[owners[pos]];
      sub.local_ids.push_back(node_ids[pos] - entries_[sub.entry_index].base);
      sub.positions.push_back(pos);
    }
    return subs;
  }

  AdminAck Ack() const {
    std::shared_lock<std::shared_mutex> lock(mu_);
    return AdminAck{entries_.size(), TotalNodesLocked()};
  }

  Ring ring_;
  mutable std::shared_mutex mu_;
  std::vector<Entry> entries_;  ///< sorted by base
};

using FpStoreRegistry = ServerStoreRegistry<FpCyclotomicRing>;
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
  if constexpr (std::is_same_v<Ring, FpCyclotomicRing>) {
    out->PutU8(static_cast<uint8_t>(StoredRingKind::kFpCyclotomic));
    out->PutVarint64(registry.ring().p());
  } else {
    out->PutU8(static_cast<uint8_t>(StoredRingKind::kZQuotient));
    registry.ring().modulus().Serialize(out);
  }
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
  auto load_store = [](ByteReader* in) {
    if constexpr (std::is_same_v<Ring, FpCyclotomicRing>)
      return LoadFpServerStore(in);
    else
      return LoadZServerStore(in);
  };
  if (!IsCollectionStoreFile(bytes))
    return Status::Corruption("not a polysse collection store (bad magic)");
  ByteReader reader(bytes);
  RETURN_IF_ERROR(reader.GetBytes(4).status());  // magic, already checked
  ASSIGN_OR_RETURN(uint8_t version, reader.GetU8());
  if (version != kCollectionStoreVersion)
    return Status::Corruption("unsupported collection store version " +
                              std::to_string(version));
  ASSIGN_OR_RETURN(uint8_t kind, reader.GetU8());
  constexpr uint8_t expected_kind =
      std::is_same_v<Ring, FpCyclotomicRing>
          ? static_cast<uint8_t>(StoredRingKind::kFpCyclotomic)
          : static_cast<uint8_t>(StoredRingKind::kZQuotient);
  if (kind != expected_kind)
    return Status::InvalidArgument(
        "collection store holds the other ring; use the matching loader");
  auto ring_or = [&] {
    if constexpr (std::is_same_v<Ring, FpCyclotomicRing>) {
      return [&]() -> Result<FpCyclotomicRing> {
        ASSIGN_OR_RETURN(uint64_t p, reader.GetVarint64());
        return FpCyclotomicRing::Create(p);
      }();
    } else {
      return [&]() -> Result<ZQuotientRing> {
        ASSIGN_OR_RETURN(ZPoly r, ZPoly::Deserialize(&reader));
        return ZQuotientRing::Create(std::move(r));
      }();
    }
  }();
  RETURN_IF_ERROR(ring_or.status());
  auto registry = std::make_unique<ServerStoreRegistry<Ring>>(*ring_or);
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
    ASSIGN_OR_RETURN(ServerStore<Ring> store, load_store(&inner_reader));
    RETURN_IF_ERROR(
        registry->AddDoc(doc_id, static_cast<int32_t>(base),
                         std::move(store)));
  }
  return registry;
}

}  // namespace polysse

#endif  // POLYSSE_CORE_STORE_REGISTRY_H_
