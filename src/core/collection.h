// The library's collection front door: one client key and one deployment
// shape covering MANY outsourced documents, each addressed by a stable
// DocId — the paper's actual setting (a server hosting a *database* of
// encrypted XML documents the client searches, §2).
//
//   auto col = FpCollection::Create(seed).value();
//   col->Add(1, patient_file_1);
//   col->Add(2, patient_file_2);          // doc 1 is NOT re-outsourced
//   auto r = col->Search("diagnosis");    // {doc_id -> matches}, one shared
//                                         // BFS frontier across all docs:
//                                         // per round ONE EvalRequest per
//                                         // server, not one per document
//   col->Remove(1);                       // live retirement; doc 2's
//                                         // answers are bit-identical
//
// Server side, every server holds a ServerStoreRegistry: one share tree per
// document, each owning a disjoint node-id range, managed incrementally
// over the wire (AddDoc / RemoveDoc messages). All three share schemes
// (2-party, additive k-server, Shamir t-of-n) apply unchanged — the
// registry serves the same EvalRequest/FetchRequest protocol.
//
// Shards. The servers form one or more groups ("shards"), each owning a
// disjoint slice of the node-id space (core/shard_map.h) and the documents
// inside it. The default single shard owns the whole id space: that is the
// unsharded collection, with one shared frontier and the historical
// persisted layout. With DeployShape::num_shards > 1, Add routes each
// document to the emptiest shard and Search is scatter-gather — one
// shared-frontier walk per shard, run concurrently on the collection's
// executor (its own worker pool, or the executor passed to Connect) and
// merged — so wall time tracks the deepest shard, while every answer stays
// bit-identical to the same documents in one shard:
//
//   deploy.num_shards = 4;
//   auto col = FpCollection::Create(seed, deploy).value();
//   col->SplitShard(2, 7);               // half of shard 2 moves to new
//                                        // group 7, results unchanged
//   col->MergeShards(0, 3);              // shard 3 drains into 0; its
//                                        // node-id range is reclaimed
//
// Answers survive reshaping bit-identically because a document's shares
// depend only on its PRF prefix and its document-LOCAL node ids — the
// global base travels separately in AddDocRequest — so moving a document
// (ExportDoc + AddDoc at a new base + RemoveDoc) or packing a shard
// (RebaseDoc) never re-splits or re-ships share trees, and localized
// results (node_id - base, prefix-stripped path) are invariant.
//
// One document is the same class with one Add. Size the field for that
// document's alphabet, and its shares are byte-identical to a plain
// single-tree deployment (the first document takes the root share
// namespace ""):
//
//   auto col = FpCollection::Create(
//       seed, deploy,
//       {.p = FpCollection::AutoPrime(doc.DistinctTags().size(), deploy)})
//       .value();
//   col->Add(0, doc);
//   auto r = col->SearchDoc(0, "client");  // document-local matches
//
// Every query runs through one path, ScatterGather: one fresh QuerySession
// per walked shard, so a Shamir walk forgets dead servers when it returns.
#ifndef POLYSSE_CORE_COLLECTION_H_
#define POLYSSE_CORE_COLLECTION_H_

#include <algorithm>
#include <array>
#include <functional>
#include <list>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/client_context.h"
#include "core/endpoint.h"
#include "core/multi_server.h"
#include "core/outsource.h"
#include "core/persistence.h"
#include "core/poly_tree.h"
#include "core/query_session.h"
#include "core/server_store.h"
#include "core/shard_map.h"
#include "core/sharing.h"
#include "core/store_registry.h"
#include "crypto/bloom.h"
#include "nt/primes.h"
#include "util/thread_pool.h"
#include "xpath/xpath.h"

namespace polysse {

/// Facade-level name for one element lookup of a batch.
using Query = TagQuery;

/// Stable client-chosen document identity inside a collection.
using DocId = uint64_t;

/// Server-side deployment shape of a collection: `num_shards` identical
/// server groups, each of `num_servers` servers running `scheme`. Every
/// collection-owned server sits behind a LoopbackEndpoint.
struct DeployShape {
  ShareScheme scheme = ShareScheme::kTwoParty;
  /// Servers PER GROUP (additive: k, Shamir: n; two-party groups have 1).
  int num_servers = 1;
  /// Shamir: t servers per group needed to answer; 0 means all of them.
  int threshold = 0;
  /// Server groups. One (the default) is the unsharded collection, whose
  /// single shard owns the whole node-id space.
  int num_shards = 1;
  /// Node-id span of each shard when num_shards > 1. Splits allocate fresh
  /// ranges of the source's span, so the int32 id space bounds span *
  /// total shards ever.
  int64_t shard_span = 1 << 20;
  /// Fan-out workers: <= 1 runs everything sequentially on the caller
  /// thread (deterministic); larger values give the collection a
  /// ThreadPool shared by the shard scatter and each group's per-server
  /// calls (ThreadPool::ParallelFor is caller-helps, so the nested
  /// fan-outs cannot deadlock).
  int worker_threads = 0;
};

/// How scatter-gather treats a shard whose group does not answer probes.
struct ShardSearchOptions {
  /// false: a dead shard fails the whole search (no partial answers
  /// presented as complete). true: probe every group first, skip shards
  /// without enough live servers and record them in skipped_shards.
  bool skip_dead_shards = false;
};

/// One shard's share of a query's cost.
struct ShardQueryStats {
  ShardId shard_id = 0;
  QueryStats stats;
};

/// A collection query's answer: per-document confirmed matches (node ids
/// and paths are document-local; documents without matches are omitted),
/// plus the protocol cost, rolled up and per shard.
struct CollectionResult {
  std::map<DocId, LookupResult> per_doc;
  /// Collection-level roll-up: counters and traffic sum across shards;
  /// rounds/fetch_rounds take the max, the deepest shard's. That is the
  /// latency of a concurrent scatter, which needs an executor — a
  /// collection-owned pool (worker_threads > 1) or the one passed to
  /// Connect; without one the shards are walked one after another and wall
  /// time grows with the sum. With one shard this is exactly that shard's
  /// walk.
  QueryStats stats;
  std::vector<ShardQueryStats> per_shard;  ///< ascending shard id
  /// Shards skipped as dead (skip_dead_shards mode only). Non-empty means
  /// documents on those shards are missing from per_doc.
  std::vector<ShardId> skipped_shards;
};

/// Joins a document's share-prefix with an in-document node path, matching
/// how the query session extends paths from the root downward.
std::string JoinSharePath(const std::string& prefix, const std::string& path);

template <typename Ring>
class Collection {
 public:
  using Deploy = DeployShape;
  /// Ring-specific outsourcing knobs (field size / modulus polynomial).
  /// The ring is fixed at Create for the collection's whole life; an Fp
  /// collection with options.p == 0 sizes the field for a default alphabet
  /// of kDefaultTagCapacity distinct tags across all documents.
  using OutsourceOptions =
      std::conditional_t<std::is_same_v<Ring, FpCyclotomicRing>,
                         FpOutsourceOptions, ZOutsourceOptions>;

  static constexpr uint64_t kDefaultTagCapacity = 64;

  /// The F_p modulus picked when options.p is 0: the smallest safe prime
  /// for `distinct_tags` tags (PrimeForAlphabet), bumped past the Shamir
  /// party points x = 1..n so every server's point lies in F_p.
  static uint64_t AutoPrime(uint64_t distinct_tags, const Deploy& deploy) {
    const uint64_t p = PrimeForAlphabet(distinct_tags);
    if (deploy.scheme != ShareScheme::kShamir) return p;
    return NextPrime(
        std::max(p, static_cast<uint64_t>(deploy.num_servers) + 1));
  }

  Collection(const Collection&) = delete;
  Collection& operator=(const Collection&) = delete;

  /// An empty collection with `deploy.num_shards` live in-process server
  /// groups. Documents are added incrementally with Add.
  static Result<std::unique_ptr<Collection>> Create(
      const DeterministicPrf& seed, const Deploy& deploy = {},
      const OutsourceOptions& options = {}) {
    if (deploy.num_shards < 1)
      return Status::InvalidArgument("need at least one shard");
    ASSIGN_OR_RETURN(Ring ring, MakeRing(deploy, options));
    auto col = std::unique_ptr<Collection>(new Collection(
        std::move(ring), seed, MakeSplitOptions(options)));
    uint64_t z_range = 0;
    if constexpr (std::is_same_v<Ring, ZQuotientRing>)
      z_range = options.max_tag_value;
    col->map_options_ = MapOptions(col->ring_, z_range);
    // Extending by no tags records the value range in the still-empty map.
    RETURN_IF_ERROR(col->tag_map_.Extend({}, col->map_options_, seed));
    RETURN_IF_ERROR(
        col->SetShape(deploy.scheme, deploy.num_servers, deploy.threshold));
    if (deploy.worker_threads > 1)
      col->pool_ = std::make_unique<ThreadPool>(
          static_cast<size_t>(deploy.worker_threads));
    const int64_t span =
        deploy.num_shards == 1 ? ShardMap::kIdSpaceEnd : deploy.shard_span;
    for (int i = 0; i < deploy.num_shards; ++i) {
      const int64_t base = static_cast<int64_t>(i) * span;
      if (base > INT32_MAX)
        return Status::InvalidArgument("shard layout exceeds the id space");
      const ShardId id = static_cast<ShardId>(i);
      RETURN_IF_ERROR(
          col->map_.AddShard(id, static_cast<int32_t>(base), span));
      RETURN_IF_ERROR(col->AttachGroup(id, col->NewRegistries(), {}));
    }
    return col;
  }

  /// A client-side collection over EXTERNAL server endpoints (e.g. one
  /// SocketEndpoint per remote registry), rebuilt from a key file. The
  /// endpoints are borrowed and positional: shards in ascending shard-id
  /// order, `key.num_servers` endpoints each — endpoint i*k+s is server s
  /// of the i-th shard's group (an unsharded key names one shard). Search
  /// works immediately; Add/Remove manage the remote registries over the
  /// wire. `executor` runs the shard scatter and each group's per-server
  /// fan-out alike (null: both sequential on the calling thread).
  static Result<std::unique_ptr<Collection>> Connect(
      const ClientSecretFile& key, std::vector<ServerEndpoint*> endpoints,
      Executor* executor = nullptr) {
    ASSIGN_OR_RETURN(Ring ring, RingFromKey(key));
    ASSIGN_OR_RETURN(std::unique_ptr<Collection> col,
                     FromKey(key, std::move(ring)));
    col->owns_servers_ = false;
    col->external_executor_ = executor;
    const size_t per_group = static_cast<size_t>(col->servers_per_group_);
    if (endpoints.size() != col->map_.size() * per_group)
      return Status::InvalidArgument(
          "this key names " + std::to_string(col->map_.size()) +
          " shard(s) of " + std::to_string(per_group) +
          " server(s); pass exactly that many endpoints, shard-major");
    const std::vector<ShardId> ids = SortedShardIds(key);
    for (size_t i = 0; i < ids.size(); ++i) {
      RETURN_IF_ERROR(col->AttachGroup(
          ids[i], {},
          std::vector<ServerEndpoint*>(
              endpoints.begin() + i * per_group,
              endpoints.begin() + (i + 1) * per_group)));
    }
    return col;
  }

  /// Reopens a persisted collection: the client key file plus the store
  /// file(s) Save wrote, one per (shard, server) at StorePath. Every store
  /// must hold the key's ring and agree with its document table.
  static Result<std::unique_ptr<Collection>> Open(
      const std::string& store_path, const std::string& key_path) {
    ASSIGN_OR_RETURN(std::vector<uint8_t> key_bytes, ReadFileBytes(key_path));
    ByteReader key_reader(key_bytes);
    ASSIGN_OR_RETURN(ClientSecretFile key,
                     ClientSecretFile::Deserialize(&key_reader));

    ASSIGN_OR_RETURN(Ring ring, RingFromKey(key));
    ASSIGN_OR_RETURN(std::unique_ptr<Collection> col,
                     FromKey(key, std::move(ring)));
    for (ShardId id : SortedShardIds(key)) {
      Registries loaded;
      for (int s = 0; s < col->servers_per_group_; ++s) {
        ASSIGN_OR_RETURN(std::vector<uint8_t> bytes,
                         ReadFileBytes(StorePath(key, store_path, id, s)));
        ASSIGN_OR_RETURN(std::unique_ptr<ServerStoreRegistry<Ring>> registry,
                         LoadStoreRegistry<Ring>(bytes));
        if (!ServerStoreRegistry<Ring>::SameRing(registry->ring(), col->ring_))
          return Status::Corruption(
              "server stores disagree on ring parameters");
        loaded.push_back(std::move(registry));
      }
      RETURN_IF_ERROR(col->CrossCheckGroup(id, loaded));
      RETURN_IF_ERROR(col->AttachGroup(id, std::move(loaded), {}));
    }
    return col;
  }

  // ----------------------------------------------------------- documents

  /// Outsources `document` as `doc_id` against the LIVE deployment: the
  /// new document's share trees travel to every server of the shard with
  /// the most free node-id space (the only shard when unsharded); no
  /// existing document is re-outsourced or re-shared, and their answers
  /// stay bit-identical. The collection's shared tag map grows by the
  /// document's unseen tags — failing cleanly (collection unchanged) if
  /// the ring's tag capacity is exhausted. Same seed + same add order =
  /// same tags, prefixes and shares at every shard count.
  Status Add(DocId doc_id, const XmlNode& document) {
    if (FindDoc(doc_id) != nullptr)
      return Status::InvalidArgument("doc id " + std::to_string(doc_id) +
                                     " is already in the collection");
    TagMap next_map = tag_map_;
    RETURN_IF_ERROR(
        next_map.Extend(document.DistinctTags(), map_options_, seed_));
    ASSIGN_OR_RETURN(PolyTree<Ring> data,
                     BuildPolyTree(ring_, next_map, document));
    const int64_t size = static_cast<int64_t>(data.size());
    ASSIGN_OR_RETURN(ShardId target, map_.PickForAdd(size));

    // The root namespace "" belongs to the FIRST document ever added
    // (next_epoch_ 0), not merely the first live one — a remove/re-add
    // cycle must never hand a fresh document an already-used PRF prefix.
    // So a one-document collection derives exactly the shares of a plain
    // single-tree deployment of that document.
    const std::string prefix =
        next_epoch_ == 0
            ? ""
            : "d" + std::to_string(doc_id) + "." + std::to_string(next_epoch_);
    for (auto& node : data.nodes) node.path = JoinSharePath(prefix, node.path);
    ASSIGN_OR_RETURN(std::vector<PolyTree<Ring>> trees,
                     SplitForServers(data, prefix));

    // Ship one AddDoc per server; on a partial failure, retire the copies
    // already registered so the servers stay consistent.
    const int64_t prior_next = map_.Find(target)->next;
    ASSIGN_OR_RETURN(int32_t base, map_.Allocate(target, size));
    const std::vector<ServerEndpoint*>& eps =
        FindGroup(target)->group.endpoints;
    for (size_t s = 0; s < trees.size(); ++s) {
      AddDocRequest req;
      req.doc_id = doc_id;
      req.base = base;
      ByteWriter bytes;
      ServerStore<Ring> store(ring_, std::move(trees[s]));
      SaveServerStore(store, &bytes);
      req.store_bytes = bytes.Take();
      auto ack = eps[s]->AddDoc(req);
      if (!ack.ok()) {
        // Undo includes server s itself: a transport retry may have
        // applied the add there even though the call reported failure
        // (RemoveDoc is a harmless NotFound where it never landed).
        RemoveDocRequest undo;
        undo.doc_id = doc_id;
        for (size_t u = 0; u <= s; ++u)
          (void)eps[u]->RemoveDoc(undo);  // best effort
        (void)map_.SetNext(target, prior_next);
        return ack.status();
      }
    }

    tag_map_ = std::move(next_map);
    RebuildClient();
    docs_.push_back({doc_id, target, base, size, prefix});
    SortDocs();
    ++next_epoch_;
    // Only Add sees the plaintext, so this is the one chance to build the
    // document's pre-filter; docs outsourced before the knob was turned on
    // simply have none and are always walked.
    if (prefilter_enabled_) {
      filters_.emplace(doc_id, DocBloomFilter::Build(
                                   seed_, prefix, document.DistinctTags(), {}));
    }
    ++generation_;
    return Status::Ok();
  }

  /// Retires `doc_id` on every server of its shard. Other documents keep
  /// their node-id ranges (ids are not reused until the shard is
  /// compacted), so their answers are bit-identical. Idempotent and
  /// retryable: every server is attempted even after one fails, and a
  /// server that already retired the doc (NotFound) counts as done — so a
  /// partial failure leaves the doc in the collection and a later Remove
  /// finishes the job on the servers that missed it.
  Status Remove(DocId doc_id) {
    ASSIGN_OR_RETURN(const Doc* doc, DocOrNotFound(doc_id));
    RemoveDocRequest req;
    req.doc_id = doc_id;
    Status first_error = Status::Ok();
    for (ServerEndpoint* ep : FindGroup(doc->shard)->group.endpoints) {
      auto ack = ep->RemoveDoc(req);
      if (!ack.ok() && ack.status().code() != StatusCode::kNotFound &&
          first_error.ok()) {
        first_error = ack.status();
      }
    }
    RETURN_IF_ERROR(first_error);
    docs_.erase(docs_.begin() + (doc - docs_.data()));
    filters_.erase(doc_id);
    ++generation_;
    return Status::Ok();
  }

  // ------------------------------------------------------------- queries

  /// Cross-document element lookup //tag: per shard ONE pruned BFS whose
  /// frontier spans every document of the shard — per round a single
  /// EvalRequest per server covers all of them.
  Result<CollectionResult> Search(std::string_view tag,
                                  VerifyMode mode = VerifyMode::kVerified,
                                  ShardSearchOptions options = {}) {
    Query q;
    q.tag = std::string(tag);
    q.mode = mode;
    ASSIGN_OR_RETURN(std::vector<CollectionResult> out,
                     SearchMany(std::span<const Query>(&q, 1), options));
    return std::move(out[0]);
  }

  /// Batched cross-document lookup: several //tag queries AND all of a
  /// shard's documents share one walk. Entry i answers queries[i]. With
  /// the Bloom pre-filter enabled, documents whose filter rejects every
  /// queried tag never enter the shared frontier.
  Result<std::vector<CollectionResult>> SearchMany(
      std::span<const Query> queries, ShardSearchOptions options = {}) {
    if (queries.empty()) return std::vector<CollectionResult>{};
    std::string key;
    if (cache_capacity_ > 0) {
      key = "many";
      for (const Query& q : queries) {
        key += '\x1f';
        key += static_cast<char>('0' + static_cast<int>(q.mode));
        key += '\x1e';
        key += q.tag;
      }
      if (const auto* hit = CacheFind(key)) return *hit;
    }
    ASSIGN_OR_RETURN(
        std::vector<CollectionResult> out,
        ScatterGather(queries.size(), options, PrefilterFor(queries),
                      [&](QuerySession<Ring>& session) {
                        return session.LookupBatch(queries);
                      }));
    CacheStore(std::move(key), out);
    return out;
  }

  /// Cross-document XPath (§4.3): every document root is a candidate
  /// starting context of the first step.
  Result<CollectionResult> SearchXPath(
      std::string_view xpath,
      XPathStrategy strategy = XPathStrategy::kAllAtOnce,
      VerifyMode mode = VerifyMode::kVerified) {
    std::string key;
    if (cache_capacity_ > 0) {
      key = "xpath";
      key += static_cast<char>('0' + static_cast<int>(mode) * 4 +
                               static_cast<int>(strategy));
      key += '\x1f';
      key += xpath;
      if (const auto* hit = CacheFind(key)) return (*hit)[0];
    }
    ASSIGN_OR_RETURN(XPathQuery query, XPathQuery::Parse(std::string(xpath)));
    ASSIGN_OR_RETURN(
        std::vector<CollectionResult> out,
        ScatterGather(1, {}, nullptr,
                      [&](QuerySession<Ring>& session)
                          -> Result<MultiLookupResult> {
                        ASSIGN_OR_RETURN(
                            LookupResult r,
                            session.EvaluateXPath(query, strategy, mode));
                        MultiLookupResult multi;
                        multi.stats = r.stats;
                        multi.per_tag.push_back(std::move(r));
                        return multi;
                      }));
    CacheStore(std::move(key), out);
    return std::move(out[0]);
  }

  /// Lookup restricted to one document (its own pruned walk, on its
  /// shard only). Node ids and paths in the result are document-local.
  Result<LookupResult> SearchDoc(DocId doc_id, std::string_view tag,
                                 VerifyMode mode = VerifyMode::kVerified) {
    RETURN_IF_ERROR(DocOrNotFound(doc_id).status());
    const Query q{std::string(tag), mode};
    ASSIGN_OR_RETURN(
        std::vector<CollectionResult> out,
        ScatterGather(
            1, {}, [doc_id](const Doc& doc) { return doc.id == doc_id; },
            [&](QuerySession<Ring>& session) {
              return session.LookupBatch(std::span<const Query>(&q, 1));
            }));
    auto it = out[0].per_doc.find(doc_id);
    if (it != out[0].per_doc.end()) return std::move(it->second);
    LookupResult none;
    none.stats = out[0].stats;
    return none;
  }

  // -------------------------------------------------------- split / merge

  /// Online shard split: moves the upper half of `source`'s documents (by
  /// node-id order) to the brand-new shard `new_shard`, which gets a fresh
  /// node-id range of the same span. Its server group is new in-process
  /// servers when `new_endpoints` is empty (owned servers only), else the
  /// given borrowed EXTERNAL endpoints, one per server of the group shape.
  /// Every move is pure wire traffic (ExportDoc + AddDoc + RemoveDoc);
  /// search answers before and after are bit-identical. The unsharded
  /// shard owns the whole id space, so it has no room to split.
  Status SplitShard(ShardId source, ShardId new_shard,
                    std::vector<ServerEndpoint*> new_endpoints = {}) {
    return Reshaped(
        SplitShardImpl(source, new_shard, std::move(new_endpoints)));
  }

  /// Online shard merge: compacts `into`, drains every document of
  /// `victim` into it, then retires `victim` — its whole node-id range
  /// returns to the free pool, which is how remove-heavy collections
  /// shrink their id space instead of leaking ranges.
  Status MergeShards(ShardId into, ShardId victim) {
    return Reshaped(MergeShardsImpl(into, victim));
  }

  /// Packs `shard`'s documents back against its range start via RebaseDoc
  /// (no share tree crosses the wire) and rewinds its allocation offset,
  /// reclaiming the holes removals left behind.
  Status CompactShard(ShardId shard) {
    return Reshaped(CompactShardImpl(shard));
  }

  // --------------------------------------------------------- persistence

  /// Persists the deployment as {per-server store files, client key file}.
  /// Server s of shard g ships StorePath(store_path, g, s) and nothing
  /// else. Requires collection-owned servers (a connected client persists
  /// only its key; see SaveKey).
  Status Save(const std::string& store_path,
              const std::string& key_path) const {
    if (!owns_servers_)
      return Status::FailedPrecondition(
          "connected collections do not hold the server stores; use "
          "SaveKey");
    const ClientSecretFile key = KeyFile();
    for (const auto& group : groups_) {
      for (size_t s = 0; s < group->registries.size(); ++s) {
        ByteWriter bytes;
        SaveStoreRegistry(*group->registries[s], &bytes);
        RETURN_IF_ERROR(WriteFileBytes(
            StorePath(key, store_path, group->id, s), bytes.span()));
      }
    }
    return SaveKey(key_path);
  }

  /// Persists the client secret state (seed, tag map, deployment shape,
  /// document table, shard table) — everything a networked client needs
  /// to Connect. An unsharded collection writes an empty shard table.
  Status SaveKey(const std::string& key_path) const {
    ByteWriter bytes;
    KeyFile().Serialize(&bytes);
    return WriteFileBytes(key_path, bytes.span());
  }

  /// Where Save puts server `i`'s share file of an unsharded multi-server
  /// deployment.
  static std::string MultiServerStorePath(const std::string& store_path,
                                          size_t i) {
    return store_path + ".s" + std::to_string(i);
  }

  // -------------------------------------------------------- introspection

  const Ring& ring() const { return ring_; }
  const ClientContext<Ring>& client() const { return *client_; }
  ShareScheme scheme() const { return scheme_; }
  /// Servers per shard group.
  size_t num_servers() const { return static_cast<size_t>(servers_per_group_); }
  const ShardMap& shard_map() const { return map_; }
  size_t num_shards() const { return map_.size(); }
  size_t num_docs() const { return docs_.size(); }
  bool contains(DocId doc_id) const { return FindDoc(doc_id) != nullptr; }
  /// Ids in node-id order.
  std::vector<DocId> doc_ids() const {
    std::vector<DocId> out;
    out.reserve(docs_.size());
    for (const Doc& doc : docs_) out.push_back(doc.id);
    return out;
  }
  /// The PRF namespace of one document's derived secrets ("" for the
  /// first document ever added). Unique per Add — never reused even when a
  /// doc id is removed and re-added — so derived keys never collide.
  Result<std::string> share_prefix(DocId doc_id) const {
    ASSIGN_OR_RETURN(const Doc* doc, DocOrNotFound(doc_id));
    return doc->prefix;
  }
  /// The shard currently hosting `doc_id`.
  Result<ShardId> shard_of(DocId doc_id) const {
    ASSIGN_OR_RETURN(const Doc* doc, DocOrNotFound(doc_id));
    return doc->shard;
  }

  /// Total nodes across every document of the collection.
  size_t total_nodes() const {
    size_t sum = 0;
    for (const Doc& doc : docs_) sum += static_cast<size_t>(doc.size);
    return sum;
  }

  /// Shard `shard`'s server-`s` registry (what a network frontend serves),
  /// or null (connected collection, or no such shard/server).
  ServerStoreRegistry<Ring>* registry(ShardId shard, size_t s) {
    ShardGroup* group = FindGroup(shard);
    if (group == nullptr || s >= group->registries.size()) return nullptr;
    return group->registries[s].get();
  }
  /// Server `s` of the first shard — the only one when unsharded.
  ServerStoreRegistry<Ring>* registry(size_t s = 0) {
    return registry(groups_.front()->id, s);
  }
  /// Protocol handlers of the same servers — thread-safe,
  /// SocketServer-servable.
  ServerHandler* handler(ShardId shard, size_t s) {
    return registry(shard, s);
  }
  ServerHandler* handler(size_t s = 0) { return registry(s); }
  /// One document's share store on server `s` of its shard
  /// (collection-owned servers).
  Result<const ServerStore<Ring>*> doc_store(size_t s, DocId doc_id) const {
    ASSIGN_OR_RETURN(const Doc* doc, DocOrNotFound(doc_id));
    const ShardGroup* group = FindGroup(doc->shard);
    if (s >= group->registries.size())
      return Status::InvalidArgument("no such server");
    return group->registries[s]->store(doc_id);
  }

  /// Probes shard `shard`'s group; true when enough servers answer for
  /// the scheme (Shamir: threshold, otherwise all).
  Result<bool> ProbeShard(ShardId shard) {
    ShardGroup* group = FindGroup(shard);
    if (group == nullptr) return Status::NotFound("no such shard");
    return ShardAlive(*group);
  }

  /// Wraps shard `shard`'s server-`s` endpoint in a FaultInjectingEndpoint
  /// (latency, failures, tampering) and returns it for mid-run
  /// reconfiguration, or null on a bad index. Composable: wrapping twice
  /// stacks faults.
  FaultInjectingEndpoint* InjectFaults(ShardId shard, size_t s,
                                       FaultConfig config) {
    ShardGroup* group = FindGroup(shard);
    if (group == nullptr || s >= group->group.endpoints.size())
      return nullptr;
    group->faults.push_back(std::make_unique<FaultInjectingEndpoint>(
        group->group.endpoints[s], std::move(config)));
    group->group.endpoints[s] = group->faults.back().get();
    ++generation_;  // cached answers predate the faults; don't serve them
    return group->faults.back().get();
  }
  /// Server `s` of the first shard — the only one when unsharded.
  FaultInjectingEndpoint* InjectFaults(size_t s, FaultConfig config) {
    return InjectFaults(groups_.front()->id, s, std::move(config));
  }

  /// The executor the shard scatter and each group's per-server fan-out
  /// run on: the owned pool, else Connect's executor (null = sequential
  /// inline).
  Executor* executor() const {
    return pool_ != nullptr ? pool_.get() : external_executor_;
  }

  // ------------------------------------------------- client-side caching

  /// Enables (capacity > 0) or disables (0, the default) the hot-query
  /// cache: a repeated identical Search/SearchMany/SearchXPath is answered
  /// from the client's memory with ZERO protocol messages. Entries are
  /// generation-stamped and die on any Add/Remove/InjectFaults and any
  /// reshape, so cached answers are always what a cold session would
  /// return. Least-recently-used entries are evicted past `capacity`.
  void SetQueryCacheCapacity(size_t capacity) {
    cache_capacity_ = capacity;
    while (cache_.size() > cache_capacity_) EvictOldest();
  }
  size_t query_cache_entries() const { return cache_.size(); }

  /// Turns on the per-document Bloom pre-filter for documents added FROM
  /// NOW ON (only Add sees the plaintext tag set the filter is built
  /// from). At query time, Search/SearchMany skip any filtered document
  /// whose filter rejects every queried tag — a Bloom filter has no false
  /// negatives, so answers stay bit-identical; false positives only cost
  /// walk work. Unfiltered documents (added before this call, or loaded
  /// via Connect/Open) are always walked.
  void EnableBloomPrefilter() { prefilter_enabled_ = true; }
  /// Documents the pre-filter excluded from the last lookup's frontiers.
  size_t last_prefilter_skipped() const { return last_prefilter_skipped_; }

  /// Cumulative wire cost across every server endpoint of every shard
  /// since attachment — this moves only when messages actually flow, so a
  /// cache hit shows up as an unchanged snapshot.
  TransportCounters transport_totals() const {
    TransportCounters sum;
    for (const auto& group : groups_)
      for (const ServerEndpoint* ep : group->group.endpoints)
        sum.Add(ep->counters());
    return sum;
  }

 private:
  struct Doc {
    DocId id = 0;
    ShardId shard = 0;
    int32_t base = 0;
    int64_t size = 0;
    std::string prefix;
  };

  using Registries = std::vector<std::unique_ptr<ServerStoreRegistry<Ring>>>;

  /// One shard's server group: registries/endpoints owned in live mode,
  /// endpoints borrowed in connected mode. `group.endpoints` is what
  /// queries and admin traffic actually use (faults splice in here).
  struct ShardGroup {
    ShardId id = 0;
    Registries registries;
    std::vector<std::unique_ptr<ServerEndpoint>> owned;
    std::vector<std::unique_ptr<FaultInjectingEndpoint>> faults;
    EndpointGroup group;
  };

  Collection(Ring ring, DeterministicPrf seed, ShareSplitOptions split_options)
      : ring_(std::move(ring)),
        seed_(std::move(seed)),
        split_options_(split_options) {
    RebuildClient();
  }

  /// The collection's fixed ring from Create-time options.
  static Result<Ring> MakeRing(const Deploy& deploy,
                               const OutsourceOptions& options) {
    if constexpr (std::is_same_v<Ring, FpCyclotomicRing>) {
      // No document in sight yet: size the field for the default capacity.
      return FpCyclotomicRing::Create(
          options.p != 0 ? options.p : AutoPrime(kDefaultTagCapacity, deploy));
    } else {
      return ZQuotientRing::Create(options.r);
    }
  }

  static Result<Ring> RingFromKey(const ClientSecretFile& key) {
    if constexpr (std::is_same_v<Ring, FpCyclotomicRing>) {
      if (key.ring_kind != static_cast<uint8_t>(StoredRingKind::kFpCyclotomic))
        return Status::InvalidArgument("key file is not for an F_p ring");
      return FpCyclotomicRing::Create(key.fp_p);
    } else {
      if (key.ring_kind != static_cast<uint8_t>(StoredRingKind::kZQuotient))
        return Status::InvalidArgument("key file is not for a Z ring");
      return ZQuotientRing::Create(key.z_modulus);
    }
  }

  /// The collection's one tag-map rule, for new and reopened collections
  /// alike. F_p tags take values in {1..p-2} (Lemma 3 excludes p-1). Z tags
  /// come from the ring's safe-value pool below `z_range`: Create's
  /// max_tag_value, which it records in the still-empty map so the key
  /// file carries it to every reopen.
  static TagMap::Options MapOptions(const Ring& ring, uint64_t z_range) {
    TagMap::Options out;
    if constexpr (std::is_same_v<Ring, FpCyclotomicRing>) {
      out.max_value = ring.MaxTagValue();
    } else {
      out.max_value = z_range;
      out.allowed_values =
          ring.SafeTagValues(z_range, /*max_tag_distance=*/z_range);
    }
    return out;
  }

  static ShareSplitOptions MakeSplitOptions(const OutsourceOptions& options) {
    ShareSplitOptions out;
    if constexpr (std::is_same_v<Ring, ZQuotientRing>)
      out.z_coeff_bits = options.coeff_bits;
    return out;
  }

  /// Shared Connect/Open front half: client state, group shape, shard map
  /// and document table from a key file. An empty shard table is the
  /// unsharded collection: one shard 0 owning the whole id space.
  static Result<std::unique_ptr<Collection>> FromKey(
      const ClientSecretFile& key, Ring ring) {
    auto col = std::unique_ptr<Collection>(new Collection(
        std::move(ring), DeterministicPrf(key.seed),
        ShareSplitOptions{key.z_coeff_bits}));
    col->tag_map_ = key.tag_map;
    col->map_options_ = MapOptions(col->ring_, key.tag_map.max_value());
    col->RebuildClient();
    RETURN_IF_ERROR(
        col->SetShape(key.scheme, key.num_servers, key.threshold));
    std::vector<ShardRange> ranges;
    for (const auto& s : key.shards)
      ranges.push_back({s.shard_id, s.base, s.span, s.next});
    if (ranges.empty())
      ranges.push_back({0, 0, ShardMap::kIdSpaceEnd, key.next_base});
    ASSIGN_OR_RETURN(col->map_, ShardMap::FromRanges(std::move(ranges)));
    for (const auto& doc : key.docs) {
      const ShardRange* owner = col->map_.OwnerOfNode(doc.base);
      if (owner == nullptr || !owner->Contains(doc.base, doc.size))
        return Status::Corruption(
            "key file document outside every shard range");
      col->docs_.push_back({doc.doc_id, owner->shard_id, doc.base, doc.size,
                            doc.share_prefix});
    }
    col->SortDocs();
    col->next_epoch_ = key.next_epoch;
    return col;
  }

  /// The client secret state SaveKey persists.
  ClientSecretFile KeyFile() const {
    ClientSecretFile key;
    key.seed = seed_.seed();
    key.tag_map = tag_map_;
    key.z_coeff_bits = split_options_.z_coeff_bits;
    key.scheme = scheme_;
    key.num_servers = servers_per_group_;
    key.threshold = threshold_;
    if constexpr (std::is_same_v<Ring, FpCyclotomicRing>) {
      key.ring_kind = static_cast<uint8_t>(StoredRingKind::kFpCyclotomic);
      key.fp_p = ring_.p();
    } else {
      key.ring_kind = static_cast<uint8_t>(StoredRingKind::kZQuotient);
      key.z_modulus = ring_.modulus();
    }
    for (const Doc& doc : docs_)
      key.docs.push_back({doc.id, doc.base, doc.size, doc.prefix});
    key.next_epoch = next_epoch_;
    const std::vector<ShardRange>& shards = map_.shards();
    if (shards.size() == 1 && shards[0].span == ShardMap::kIdSpaceEnd) {
      key.next_base = shards[0].next;  // unsharded: no shard table
    } else {
      for (const ShardRange& s : shards)
        key.shards.push_back({s.shard_id, s.base, s.span, s.next});
    }
    return key;
  }

  /// Where shard `shard`'s server-`s` store file lives: an unsharded key
  /// keeps the historical names (`store_path` for two-party, else
  /// MultiServerStorePath), a sharded one names the shard too.
  static std::string StorePath(const ClientSecretFile& key,
                               const std::string& store_path, ShardId shard,
                               size_t s) {
    if (!key.shards.empty())
      return store_path + ".g" + std::to_string(shard) + ".s" +
             std::to_string(s);
    return key.scheme == ShareScheme::kTwoParty
               ? store_path
               : MultiServerStorePath(store_path, s);
  }

  /// The key's shards in ascending id order (shard 0 when unsharded) —
  /// the order of Connect's endpoints.
  static std::vector<ShardId> SortedShardIds(const ClientSecretFile& key) {
    std::vector<ShardId> ids;
    for (const auto& s : key.shards) ids.push_back(s.shard_id);
    if (ids.empty()) ids.push_back(0);
    std::sort(ids.begin(), ids.end());
    return ids;
  }

  Status SetShape(ShareScheme scheme, int num_servers, int threshold) {
    switch (scheme) {
      case ShareScheme::kTwoParty:
        if (num_servers != 1)
          return Status::InvalidArgument(
              "two-party scheme takes one server per group");
        break;
      case ShareScheme::kAdditive:
        if (num_servers < 1)
          return Status::InvalidArgument("need at least one server");
        break;
      case ShareScheme::kShamir:
        if (!std::is_same_v<Ring, FpCyclotomicRing>)
          return Status::Unimplemented("Shamir t-of-n requires the F_p ring");
        // Range-checked by EndpointGroup::Validate.
        threshold = threshold > 0 ? threshold : num_servers;
        break;
    }
    scheme_ = scheme;
    servers_per_group_ = num_servers;
    threshold_ = scheme == ShareScheme::kShamir ? threshold : 0;
    return Status::Ok();
  }

  /// Splits a (prefixed) data tree for the deployment's scheme.
  Result<std::vector<PolyTree<Ring>>> SplitForServers(
      const PolyTree<Ring>& data, const std::string& prefix) {
    std::vector<PolyTree<Ring>> trees;
    switch (scheme_) {
      case ShareScheme::kTwoParty: {
        SharedTrees<Ring> shares =
            SplitShares(ring_, data, seed_, split_options_);
        trees.push_back(std::move(shares.server));
        break;
      }
      case ShareScheme::kAdditive: {
        ASSIGN_OR_RETURN(trees, SplitSharesAcrossServers(
                                    ring_, data, seed_, servers_per_group_,
                                    split_options_));
        break;
      }
      case ShareScheme::kShamir: {
        if constexpr (std::is_same_v<Ring, FpCyclotomicRing>) {
          // Per-document randomness stream; the unprefixed label is the
          // historical single-document one.
          ChaChaRng rng = seed_.Stream(
              prefix.empty() ? "shamir-split" : "shamir-split/" + prefix);
          ASSIGN_OR_RETURN(
              trees, SplitSharesShamir(ring_, data, threshold_,
                                       servers_per_group_, rng));
        } else {
          return Status::Unimplemented("Shamir t-of-n requires the F_p ring");
        }
        break;
      }
    }
    return trees;
  }

  /// Empty in-process servers for one new group.
  Registries NewRegistries() const {
    Registries out;
    for (int s = 0; s < servers_per_group_; ++s)
      out.push_back(std::make_unique<ServerStoreRegistry<Ring>>(ring_));
    return out;
  }

  /// Registers shard `id`'s server group: owned `registries` fronted by
  /// LoopbackEndpoints, or the borrowed external `endpoints`.
  Status AttachGroup(ShardId id, Registries registries,
                     std::vector<ServerEndpoint*> endpoints) {
    auto group = std::make_unique<ShardGroup>();
    group->id = id;
    group->registries = std::move(registries);
    for (const auto& registry : group->registries) {
      group->owned.push_back(
          std::make_unique<LoopbackEndpoint>(registry.get()));
      endpoints.push_back(group->owned.back().get());
    }
    switch (scheme_) {
      case ShareScheme::kTwoParty:
        group->group = EndpointGroup::TwoParty(endpoints[0]);
        break;
      case ShareScheme::kAdditive:
        group->group = EndpointGroup::Additive(std::move(endpoints));
        break;
      case ShareScheme::kShamir:
        group->group = EndpointGroup::Shamir(std::move(endpoints), threshold_);
        break;
    }
    group->group.executor = executor();
    RETURN_IF_ERROR(group->group.Validate());
    auto pos = groups_.begin();
    while (pos != groups_.end() && (*pos)->id < group->id) ++pos;
    groups_.insert(pos, std::move(group));
    return Status::Ok();
  }

  /// Open-time consistency check: every server of shard `id` must agree
  /// with the key's document table for that shard.
  Status CrossCheckGroup(ShardId id, const Registries& registries) const {
    std::vector<const Doc*> expected;
    for (const Doc& doc : docs_)
      if (doc.shard == id) expected.push_back(&doc);
    for (const auto& registry : registries) {
      const auto stored = registry->docs();
      if (stored.size() != expected.size())
        return Status::Corruption(
            "server stores disagree with the key file's document table");
      for (size_t i = 0; i < stored.size(); ++i) {
        if (stored[i].doc_id != expected[i]->id ||
            stored[i].base != expected[i]->base ||
            stored[i].nodes != static_cast<size_t>(expected[i]->size))
          return Status::Corruption(
              "server stores disagree with the key file's document table");
      }
    }
    return Status::Ok();
  }

  void RebuildClient() {
    client_ = std::make_unique<ClientContext<Ring>>(
        ClientContext<Ring>::SeedOnly(ring_, tag_map_, seed_, split_options_));
  }

  /// The Bloom pre-filter's admission test for one lookup batch (null when
  /// the filter is off): a document stays in the frontier if it has no
  /// filter or one that admits at least one queried tag.
  std::function<bool(const Doc&)> PrefilterFor(
      std::span<const Query> queries) {
    last_prefilter_skipped_ = 0;
    if (!prefilter_enabled_ || filters_.empty()) return nullptr;
    std::vector<std::vector<std::array<uint8_t, 32>>> trapdoors;
    trapdoors.reserve(queries.size());
    for (const Query& q : queries)
      trapdoors.push_back(DocBloomFilter::QueryTrapdoors(seed_, q.tag, {}));
    return [this, trapdoors = std::move(trapdoors)](const Doc& doc) {
      auto it = filters_.find(doc.id);
      bool include = it == filters_.end();
      for (size_t i = 0; !include && i < trapdoors.size(); ++i)
        include = it->second.MayContain(trapdoors[i]);
      if (!include) ++last_prefilter_skipped_;
      return include;
    };
  }

  /// Runs `walk` on one session per document-bearing shard, rooted at the
  /// shard's documents that `admit` lets through (all when null), on
  /// executor() — concurrently when the collection has one, owned or
  /// passed to Connect, and in shard order on the calling thread otherwise
  /// — and gathers `num_answers` per-document answers plus the stats
  /// roll-up. The same executor runs each group's per-server calls inside
  /// the walks; Executor::ParallelFor allows that nesting. A session lives
  /// for one walk, so each shard in flight holds one walk's state and a
  /// Shamir walk's dead servers are forgotten when it returns. Every query
  /// method runs here; nothing else builds a session or localizes matches.
  template <typename Walk>
  Result<std::vector<CollectionResult>> ScatterGather(
      size_t num_answers, ShardSearchOptions options,
      const std::function<bool(const Doc&)>& admit, Walk walk) {
    struct Part {
      ShardGroup* group = nullptr;
      std::vector<SessionRoot> roots;
      Status status = Status::Ok();
      MultiLookupResult result;
    };
    std::vector<Part> parts;
    std::vector<ShardId> skipped;
    for (const auto& group : groups_) {
      Part part;
      part.group = group.get();
      for (const Doc& doc : docs_)
        if (doc.shard == group->id && (admit == nullptr || admit(doc)))
          part.roots.push_back(Root(doc));
      if (part.roots.empty()) continue;  // nothing to walk, nothing to probe
      if (options.skip_dead_shards && !ShardAlive(*group)) {
        skipped.push_back(group->id);
        continue;
      }
      parts.push_back(std::move(part));
    }

    auto run_one = [&](size_t i) {
      Part& part = parts[i];
      QuerySession<Ring> session(client_.get(), part.group->group,
                                 std::move(part.roots));
      Result<MultiLookupResult> r = walk(session);
      if (r.ok()) {
        part.result = std::move(*r);
      } else {
        part.status = r.status();
      }
    };
    Executor* scatter = executor();
    (scatter != nullptr ? scatter : GlobalInlineExecutor())
        ->ParallelFor(parts.size(), run_one);

    QueryStats rollup;
    std::vector<ShardQueryStats> per_shard;
    for (size_t i = 0; i < parts.size(); ++i) {
      RETURN_IF_ERROR(parts[i].status);
      const QueryStats& s = parts[i].result.stats;
      if (i == 0) {
        rollup = s;
      } else {
        MergeStats(&rollup, s);
      }
      per_shard.push_back({parts[i].group->id, s});
    }
    std::vector<CollectionResult> out(num_answers);
    for (size_t q = 0; q < num_answers; ++q) {
      CollectionResult& r = out[q];
      r.stats = rollup;
      r.per_shard = per_shard;
      r.skipped_shards = skipped;
      for (Part& part : parts) {
        LookupResult& lr = part.result.per_tag[q];
        RETURN_IF_ERROR(Partition(lr.matches, /*possible=*/false, &r));
        RETURN_IF_ERROR(Partition(lr.possible, /*possible=*/true, &r));
      }
      for (auto& [id, result] : r.per_doc) result.stats = rollup;
    }
    return out;
  }

  static void MergeStats(QueryStats* into, const QueryStats& s) {
    into->total_server_nodes += s.total_server_nodes;
    into->nodes_visited += s.nodes_visited;
    into->server_evals += s.server_evals;
    into->client_evals += s.client_evals;
    into->client_share_derivations += s.client_share_derivations;
    into->rounds = std::max(into->rounds, s.rounds);
    into->fetch_rounds = std::max(into->fetch_rounds, s.fetch_rounds);
    into->zero_candidates += s.zero_candidates;
    into->reconstructions += s.reconstructions;
    into->polys_fetched_full += s.polys_fetched_full;
    into->consts_fetched += s.consts_fetched;
    into->trusted_fallbacks += s.trusted_fallbacks;
    into->false_positives_removed += s.false_positives_removed;
    into->server_failovers += s.server_failovers;
    into->transport.Add(s.transport);
  }

  /// Files session-global matches under their documents, localized.
  Status Partition(std::vector<MatchedNode>& from, bool possible,
                   CollectionResult* out) const {
    for (MatchedNode& m : from) {
      const Doc* doc = FindDocByNode(m.node_id);
      if (doc == nullptr)
        return Status::Internal("match outside every document's id range");
      LookupResult& r = out->per_doc[doc->id];
      (possible ? r.possible : r.matches)
          .push_back(Localize(*doc, std::move(m)));
    }
    return Status::Ok();
  }

  /// A document's starting point for a walk session.
  static SessionRoot Root(const Doc& doc) {
    return {doc.base, doc.prefix, static_cast<int32_t>(doc.size)};
  }

  /// A session-global match as its document sees it: document-local node
  /// id, share prefix stripped off the path.
  static MatchedNode Localize(const Doc& doc, MatchedNode m) {
    m.node_id -= doc.base;
    if (!doc.prefix.empty())
      m.path = m.path == doc.prefix ? "" : m.path.substr(doc.prefix.size() + 1);
    return m;
  }

  // ------------------------------------------------------------ reshaping

  /// Every reshape exit — success or a partial failure — ends here: moved
  /// documents carry new bases, so the table is re-sorted (FindDocByNode
  /// relies on it), and cached answers are retired.
  Status Reshaped(Status status) {
    SortDocs();
    ++generation_;
    return status;
  }

  Status SplitShardImpl(ShardId source, ShardId new_shard,
                        std::vector<ServerEndpoint*> new_endpoints) {
    if (new_endpoints.empty() && !owns_servers_)
      return Status::FailedPrecondition(
          "connected collections must supply the new group's endpoints");
    if (!new_endpoints.empty() &&
        new_endpoints.size() != static_cast<size_t>(servers_per_group_))
      return Status::InvalidArgument(
          "pass one endpoint per server of the group shape");
    ShardGroup* src = FindGroup(source);
    const ShardRange* range = map_.Find(source);
    if (src == nullptr || range == nullptr)
      return Status::NotFound("no such shard");
    if (map_.Find(new_shard) != nullptr)
      return Status::InvalidArgument("shard id " +
                                     std::to_string(new_shard) +
                                     " already exists");
    const int64_t span = range->span;
    ASSIGN_OR_RETURN(int32_t base, map_.FreeRangeBase(span));
    RETURN_IF_ERROR(map_.AddShard(new_shard, base, span));
    Status attached = AttachGroup(
        new_shard, new_endpoints.empty() ? NewRegistries() : Registries{},
        std::move(new_endpoints));
    if (!attached.ok()) {
      (void)map_.RemoveShard(new_shard);
      return attached;
    }
    ShardGroup* dst = FindGroup(new_shard);

    // The upper half of the source's documents (by node-id order) moves.
    std::vector<DocId> in_source;
    for (const Doc& doc : docs_)
      if (doc.shard == source) in_source.push_back(doc.id);
    const size_t keep = in_source.size() - in_source.size() / 2;
    for (size_t i = keep; i < in_source.size(); ++i)
      RETURN_IF_ERROR(MoveDoc(FindDocMutable(in_source[i]), src, dst));
    return Status::Ok();
  }

  Status MergeShardsImpl(ShardId into, ShardId victim) {
    if (into == victim)
      return Status::InvalidArgument("cannot merge a shard into itself");
    ShardGroup* dst = FindGroup(into);
    ShardGroup* src = FindGroup(victim);
    if (dst == nullptr || src == nullptr)
      return Status::NotFound("no such shard");
    RETURN_IF_ERROR(CompactShardImpl(into));
    int64_t need = 0;
    std::vector<DocId> moving;
    for (const Doc& doc : docs_) {  // sorted by base: stable order
      if (doc.shard != victim) continue;
      need += doc.size;
      moving.push_back(doc.id);
    }
    if (need > map_.Find(into)->free_space())
      return Status::FailedPrecondition(
          "shard " + std::to_string(into) + " lacks " + std::to_string(need) +
          " free node ids for the merge");
    for (DocId id : moving)
      RETURN_IF_ERROR(MoveDoc(FindDocMutable(id), src, dst));
    RETURN_IF_ERROR(map_.RemoveShard(victim));
    groups_.erase(std::find_if(groups_.begin(), groups_.end(),
                               [&](const auto& g) { return g->id == victim; }));
    return Status::Ok();
  }

  Status CompactShardImpl(ShardId shard) {
    ShardGroup* group = FindGroup(shard);
    const ShardRange* range = map_.Find(shard);
    if (group == nullptr || range == nullptr)
      return Status::NotFound("no such shard");
    const int64_t range_base = range->base;
    int64_t offset = 0;
    for (Doc& doc : docs_) {  // ascending base: packing left never collides
      if (doc.shard != shard) continue;
      const int32_t target = static_cast<int32_t>(range_base + offset);
      if (target != doc.base) {
        RebaseDocRequest req;
        req.doc_id = doc.id;
        req.new_base = target;
        for (ServerEndpoint* ep : group->group.endpoints)
          RETURN_IF_ERROR(ep->RebaseDoc(req).status());
        doc.base = target;
      }
      offset += doc.size;
    }
    return map_.SetNext(shard, offset);
  }

  /// Moves one document's trees from `src` to a freshly allocated base in
  /// `dst`: per server export + re-add, then retire at the source. On a
  /// partial failure the destination copies are rolled back and the
  /// document stays where it was.
  Status MoveDoc(Doc* doc, ShardGroup* src, ShardGroup* dst) {
    ASSIGN_OR_RETURN(int32_t new_base, map_.Allocate(dst->id, doc->size));
    const size_t k = src->group.endpoints.size();
    std::vector<ExportDocResponse> exports;
    exports.reserve(k);
    for (size_t s = 0; s < k; ++s) {
      ExportDocRequest req;
      req.doc_id = doc->id;
      ASSIGN_OR_RETURN(ExportDocResponse resp,
                       src->group.endpoints[s]->ExportDoc(req));
      exports.push_back(std::move(resp));
    }
    for (size_t s = 0; s < k; ++s) {
      AddDocRequest req;
      req.doc_id = doc->id;
      req.base = new_base;
      req.store_bytes = std::move(exports[s].store_bytes);
      auto ack = dst->group.endpoints[s]->AddDoc(req);
      if (!ack.ok()) {
        RemoveDocRequest undo;
        undo.doc_id = doc->id;
        for (size_t u = 0; u <= s; ++u)
          (void)dst->group.endpoints[u]->RemoveDoc(undo);  // best effort
        return ack.status();
      }
    }
    RemoveDocRequest retire;
    retire.doc_id = doc->id;
    for (size_t s = 0; s < k; ++s)
      (void)src->group.endpoints[s]->RemoveDoc(retire);
    doc->shard = dst->id;
    doc->base = new_base;
    return Status::Ok();
  }

  bool ShardAlive(ShardGroup& group) {
    size_t alive = 0;
    for (ServerEndpoint* ep : group.group.endpoints)
      if (ep->Probe().ok()) ++alive;
    const size_t required =
        group.group.scheme == ShareScheme::kShamir
            ? static_cast<size_t>(group.group.threshold)
            : group.group.endpoints.size();
    return alive >= required;
  }

  // -------------------------------------------------------------- lookups

  ShardGroup* FindGroup(ShardId id) const {
    for (const auto& group : groups_)
      if (group->id == id) return group.get();
    return nullptr;
  }

  const Doc* FindDoc(DocId doc_id) const {
    for (const Doc& doc : docs_)
      if (doc.id == doc_id) return &doc;
    return nullptr;
  }

  Result<const Doc*> DocOrNotFound(DocId doc_id) const {
    const Doc* doc = FindDoc(doc_id);
    if (doc == nullptr)
      return Status::NotFound("doc id " + std::to_string(doc_id) +
                              " is not in the collection");
    return doc;
  }

  Doc* FindDocMutable(DocId doc_id) {
    return const_cast<Doc*>(FindDoc(doc_id));
  }

  /// docs_ is sorted by base: the owner is the last doc starting at or
  /// below `id` (if `id` falls inside its range).
  const Doc* FindDocByNode(int32_t id) const {
    const Doc* owner = nullptr;
    for (const Doc& doc : docs_) {
      if (doc.base > id) break;
      owner = &doc;
    }
    if (owner == nullptr) return nullptr;
    if (static_cast<int64_t>(id) >= owner->base + owner->size) return nullptr;
    return owner;
  }

  void SortDocs() {
    std::sort(docs_.begin(), docs_.end(),
              [](const Doc& a, const Doc& b) { return a.base < b.base; });
  }

  // ------------------------------------------------------- hot-query cache

  /// A cache hit only counts when the entry's generation is current; stale
  /// entries are reaped on contact instead of by sweeping at mutation.
  const std::vector<CollectionResult>* CacheFind(const std::string& key) {
    auto it = cache_.find(key);
    if (it == cache_.end()) return nullptr;
    if (it->second.generation != generation_) {
      cache_order_.erase(it->second.order);
      cache_.erase(it);
      return nullptr;
    }
    cache_order_.splice(cache_order_.begin(), cache_order_, it->second.order);
    return &it->second.results;
  }

  /// Keeps `results` under `key` (empty = caching off). Partial answers —
  /// a dead shard skipped — are never cached.
  void CacheStore(std::string key,
                  const std::vector<CollectionResult>& results) {
    if (key.empty() || cache_capacity_ == 0 ||
        !results[0].skipped_shards.empty())
      return;
    auto it = cache_.find(key);
    if (it != cache_.end()) {
      cache_order_.erase(it->second.order);
      cache_.erase(it);
    }
    while (cache_.size() >= cache_capacity_) EvictOldest();
    cache_order_.push_front(std::move(key));
    cache_.emplace(cache_order_.front(),
                   CacheEntry{generation_, results, cache_order_.begin()});
  }

  void EvictOldest() {
    if (cache_order_.empty()) return;
    cache_.erase(cache_order_.back());
    cache_order_.pop_back();
  }

  Ring ring_;
  DeterministicPrf seed_;
  TagMap tag_map_;
  TagMap::Options map_options_;
  ShareSplitOptions split_options_;
  ShareScheme scheme_ = ShareScheme::kTwoParty;
  int servers_per_group_ = 1;
  int threshold_ = 0;  ///< Shamir only
  bool owns_servers_ = true;
  std::unique_ptr<ClientContext<Ring>> client_;
  std::unique_ptr<ThreadPool> pool_;
  Executor* external_executor_ = nullptr;
  ShardMap map_;
  std::vector<std::unique_ptr<ShardGroup>> groups_;  ///< sorted by id
  std::vector<Doc> docs_;                            ///< sorted by base
  uint64_t next_epoch_ = 0;

  // Hot-query cache (off until SetQueryCacheCapacity).
  struct CacheEntry {
    uint64_t generation = 0;
    std::vector<CollectionResult> results;
    std::list<std::string>::iterator order;  ///< position in cache_order_
  };
  size_t cache_capacity_ = 0;
  uint64_t generation_ = 0;  ///< bumped by every mutation, fault and reshape
  std::list<std::string> cache_order_;  ///< most-recently-used first
  std::map<std::string, CacheEntry> cache_;

  // Bloom pre-filter (off until EnableBloomPrefilter).
  bool prefilter_enabled_ = false;
  std::map<DocId, DocBloomFilter> filters_;
  size_t last_prefilter_skipped_ = 0;
};

using FpCollection = Collection<FpCyclotomicRing>;
using ZCollection = Collection<ZQuotientRing>;

}  // namespace polysse

#endif  // POLYSSE_CORE_COLLECTION_H_
