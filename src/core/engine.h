// The single-document front door: one facade over outsourcing, transports,
// querying and persistence.
//
//   auto engine = FpEngine::Outsource(doc, seed).value();        // 2-party
//   auto r = engine->Lookup("client", VerifyMode::kVerified);
//
//   FpEngine::Deploy deploy;                                     // t-of-n
//   deploy.scheme = ShareScheme::kShamir;
//   deploy.num_servers = 5;
//   deploy.threshold = 3;
//   auto ms = FpEngine::Outsource(doc, seed, deploy).value();
//
//   engine->RunQueries(queries);   // batched: one shared BFS walk answers
//                                  // many concurrent //tag queries
//
// Engine is a thin helper over a one-document, unsharded
// polysse::Collection (core/collection.h) — the single code path for
// outsourcing, serving, querying and persistence. Use a Collection
// directly when you have more than one document; Engine stays the
// ergonomic special case. Its document is the collection's first, which
// takes the root share namespace "", so its shares are byte-identical to
// a plain single-tree deployment of the same document and seed.
//
// The engine owns the demo-grade server side (one ServerStoreRegistry per
// server, each fronted by a LoopbackEndpoint); a networked
// deployment instead hands QuerySession endpoints that speak to remote
// processes (see net/socket_endpoint.h for the TCP transport over
// DispatchSerialized). With Deploy::worker_threads > 1 the engine owns a
// ThreadPool and the per-server subrequests of every round fan out
// concurrently, so k-server wall time tracks one server's latency instead
// of the sum of all k.
#ifndef POLYSSE_CORE_ENGINE_H_
#define POLYSSE_CORE_ENGINE_H_

#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/collection.h"

namespace polysse {

template <typename Ring>
class Engine {
 public:
  /// Ring-specific outsourcing knobs (field size / modulus polynomial).
  using OutsourceOptions = typename Collection<Ring>::OutsourceOptions;

  /// Server-side deployment shape.
  using Deploy = typename Collection<Ring>::Deploy;

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Document in, live deployment out: tag map, polynomial tree, share
  /// split across the requested server scheme, endpoints, query session.
  /// The client side stays thin — everything it keeps derives from `seed`
  /// plus the private tag map.
  static Result<std::unique_ptr<Engine>> Outsource(
      const XmlNode& document, const DeterministicPrf& seed,
      const Deploy& deploy = {}, const OutsourceOptions& options = {}) {
    OutsourceOptions effective = options;
    if constexpr (std::is_same_v<Ring, FpCyclotomicRing>) {
      // The single-document engine sizes the field for exactly this
      // document's alphabet.
      if (effective.p == 0)
        effective.p = Collection<Ring>::AutoPrime(
            document.DistinctTags().size(), deploy);
    }
    ASSIGN_OR_RETURN(std::unique_ptr<Collection<Ring>> collection,
                     Collection<Ring>::Create(seed, deploy, effective));
    RETURN_IF_ERROR(collection->Add(kDocId, document));
    return std::unique_ptr<Engine>(new Engine(std::move(collection)));
  }

  /// Reopens a persisted deployment from the client's secret key file
  /// (seed + tag map + deployment shape) and the server store file(s) Save
  /// wrote: one file at `store_path` for two-party, one per server at
  /// MultiServerStorePath(store_path, i) for additive/Shamir deployments.
  /// A multi-document collection opens too (queries then span every
  /// document).
  static Result<std::unique_ptr<Engine>> Open(
      const std::string& store_path, const std::string& key_path) {
    ASSIGN_OR_RETURN(std::unique_ptr<Collection<Ring>> collection,
                     Collection<Ring>::Open(store_path, key_path));
    if (collection->num_docs() == 0)
      return Status::FailedPrecondition(
          "the engine facade needs at least one document; open empty "
          "collections with Collection::Open");
    return std::unique_ptr<Engine>(new Engine(std::move(collection)));
  }

  /// Persists the deployment as {server store file(s), client key file}.
  /// Two-party writes one store file at `store_path`; additive/Shamir
  /// deployments write each server ITS OWN file at
  /// MultiServerStorePath(store_path, i) — a real k-of-n deployment ships
  /// file i to server i and nothing else.
  Status Save(const std::string& store_path,
              const std::string& key_path) const {
    return collection_->Save(store_path, key_path);
  }

  /// Where Save puts server `i`'s share file of a multi-server deployment.
  static std::string MultiServerStorePath(const std::string& store_path,
                                          size_t i) {
    return Collection<Ring>::MultiServerStorePath(store_path, i);
  }

  // ------------------------------------------------------------- queries

  /// Element lookup //tag.
  Result<LookupResult> Lookup(std::string_view tag,
                              VerifyMode mode = VerifyMode::kVerified) {
    return session().Lookup(tag, mode);
  }

  /// Batched multi-query execution: the BFS frontiers of all queries
  /// coalesce into shared EvalRequests per round — one server pass
  /// evaluates the union of points × nodes, so 16 concurrent queries cost
  /// far fewer round trips than 16 sequential walks.
  Result<MultiLookupResult> RunQueries(std::span<const Query> queries) {
    return session().LookupBatch(queries);
  }

  /// Advanced XPath query (§4.3).
  Result<LookupResult> RunXPath(
      std::string_view xpath,
      XPathStrategy strategy = XPathStrategy::kAllAtOnce,
      VerifyMode mode = VerifyMode::kVerified) {
    ASSIGN_OR_RETURN(XPathQuery query, XPathQuery::Parse(std::string(xpath)));
    return session().EvaluateXPath(query, strategy, mode);
  }

  // -------------------------------------------------------- introspection

  const Ring& ring() const { return collection_->ring(); }
  const ClientContext<Ring>& client() const { return collection_->client(); }
  ShareScheme scheme() const { return collection_->scheme(); }
  size_t num_servers() const { return collection_->num_servers(); }
  /// Server `i`'s share store for the engine's document.
  const ServerStore<Ring>& store(size_t i = 0) const {
    return *collection_->doc_store(i, collection_->doc_ids().front()).value();
  }
  /// Server `i`'s protocol handler — what a network frontend (e.g.
  /// SocketServer) serves. Handlers are thread-safe.
  ServerHandler* handler(size_t i = 0) { return collection_->handler(i); }
  /// The session, for callers needing the full §4.3 API surface.
  QuerySession<Ring>& session() { return collection_->session(); }
  /// The one-entry collection under the hood — escape hatch for callers
  /// growing into multiple documents.
  Collection<Ring>& collection() { return *collection_; }

  /// Wraps server `i`'s endpoint in a FaultInjectingEndpoint (latency,
  /// failures, tampering) and returns it for mid-run reconfiguration, or
  /// null when `i` is not a server index. Composable: wrapping twice
  /// stacks faults.
  FaultInjectingEndpoint* InjectFaults(size_t i, FaultConfig config) {
    return collection_->InjectFaults(i, std::move(config));
  }

  /// Reconfigures the fan-out executor: <= 1 reverts to sequential inline
  /// dispatch, larger values (re)build the worker pool. Answers are
  /// bit-identical either way; only wall time changes.
  void SetWorkerThreadCount(int worker_threads) {
    collection_->SetWorkerThreadCount(worker_threads);
  }

  /// The executor fan-out currently runs on (null = sequential inline).
  Executor* executor() const { return collection_->executor(); }

 private:
  /// The engine's single document registers under this id.
  static constexpr DocId kDocId = 0;

  explicit Engine(std::unique_ptr<Collection<Ring>> collection)
      : collection_(std::move(collection)) {}

  std::unique_ptr<Collection<Ring>> collection_;
};

using FpEngine = Engine<FpCyclotomicRing>;
using ZEngine = Engine<ZQuotientRing>;

}  // namespace polysse

#endif  // POLYSSE_CORE_ENGINE_H_
