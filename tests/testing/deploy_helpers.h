// White-box deployment builders for tests and benches. The product API is
// polysse::Collection (core/collection.h); suites that assert on the
// individual pieces — the ring, the thin client, a server's registry and
// its share tree, an explicitly wired endpoint — build them here from the
// public primitives PrepareOutsource + SplitShares, with none of the
// collection's ownership wrapping in the way. Built independently of the
// collection, they double as its answer oracle.
// OneDocFpCollection/OneDocZCollection build the product side of the same
// comparison: a one-document collection.
#ifndef POLYSSE_TESTS_TESTING_DEPLOY_HELPERS_H_
#define POLYSSE_TESTS_TESTING_DEPLOY_HELPERS_H_

#include <memory>
#include <utility>

#include "core/client_context.h"
#include "core/collection.h"
#include "core/endpoint.h"
#include "core/outsource.h"
#include "core/query_session.h"
#include "core/server_store.h"
#include "core/sharing.h"
#include "core/store_registry.h"
#include "util/check.h"

namespace polysse {
namespace testing {

/// A server holding `share_tree` as its one document (id 0, base 0): how
/// every one-document deployment serves.
template <typename Ring>
std::unique_ptr<ServerStoreRegistry<Ring>> OneDocRegistry(
    const Ring& ring, PolyTree<Ring> share_tree) {
  auto registry = std::make_unique<ServerStoreRegistry<Ring>>(ring);
  POLYSSE_CHECK(
      registry->AddDoc(0, 0, ServerStore<Ring>(ring, std::move(share_tree)))
          .ok());
  return registry;
}

/// The pieces of one two-party deployment, exposed individually.
template <typename Ring>
struct TwoPartyDeployment {
  Ring ring;
  ClientContext<Ring> client;
  /// The server: a one-document registry (OneDocRegistry).
  std::unique_ptr<ServerStoreRegistry<Ring>> server;

  /// The server's share tree.
  const ServerStore<Ring>& store() const { return *server->store(0).value(); }
};

using FpDeployment = TwoPartyDeployment<FpCyclotomicRing>;
using ZDeployment = TwoPartyDeployment<ZQuotientRing>;

/// Document -> {ring, thin client, server} over F_p, split exactly
/// like the first document of a two-party collection.
inline Result<FpDeployment> MakeFpDeployment(
    const XmlNode& document, const DeterministicPrf& seed,
    const FpOutsourceOptions& options = {}) {
  ASSIGN_OR_RETURN(PreparedOutsource<FpCyclotomicRing> prep,
                   PrepareOutsource(document, seed, options));
  SharedTrees<FpCyclotomicRing> shares =
      SplitShares(prep.ring, prep.data, seed);
  return FpDeployment{
      prep.ring,
      ClientContext<FpCyclotomicRing>::SeedOnly(prep.ring,
                                                std::move(prep.tag_map), seed),
      OneDocRegistry(prep.ring, std::move(shares.server))};
}

/// Document -> {ring, thin client, server} over Z[x]/(r).
inline Result<ZDeployment> MakeZDeployment(const XmlNode& document,
                                           const DeterministicPrf& seed,
                                           const ZOutsourceOptions& options = {}) {
  ASSIGN_OR_RETURN(PreparedOutsource<ZQuotientRing> prep,
                   PrepareOutsource(document, seed, options));
  SharedTrees<ZQuotientRing> shares =
      SplitShares(prep.ring, prep.data, seed, prep.split_options);
  return ZDeployment{
      prep.ring,
      ClientContext<ZQuotientRing>::SeedOnly(prep.ring,
                                             std::move(prep.tag_map), seed,
                                             prep.split_options),
      OneDocRegistry(prep.ring, std::move(shares.server))};
}

/// The one-document collection the scheme, persistence and transport
/// suites run on: the field sized for `document`'s alphabet, then
/// `document` added as id 0. The first document takes the root share
/// namespace "", so its shares equal MakeFpDeployment's for the same seed.
inline Result<std::unique_ptr<FpCollection>> OneDocFpCollection(
    const XmlNode& document, const DeterministicPrf& seed,
    const DeployShape& deploy = {}) {
  ASSIGN_OR_RETURN(
      std::unique_ptr<FpCollection> col,
      FpCollection::Create(
          seed, deploy,
          {.p = FpCollection::AutoPrime(document.DistinctTags().size(),
                                        deploy)}));
  RETURN_IF_ERROR(col->Add(0, document));
  return col;
}

/// The same over Z[x]/(r), whose ring does not depend on the alphabet.
inline Result<std::unique_ptr<ZCollection>> OneDocZCollection(
    const XmlNode& document, const DeterministicPrf& seed,
    const DeployShape& deploy = {}) {
  ASSIGN_OR_RETURN(std::unique_ptr<ZCollection> col,
                   ZCollection::Create(seed, deploy));
  RETURN_IF_ERROR(col->Add(0, document));
  return col;
}

namespace internal {
/// Base-from-member holder so the endpoint outlives the QuerySession base
/// below (bases initialize before members, so the session cannot point at
/// a not-yet-constructed endpoint).
struct OwnedLoopback {
  explicit OwnedLoopback(ServerHandler* handler) : endpoint(handler) {}
  LoopbackEndpoint endpoint;
};
}  // namespace internal

/// A two-party QuerySession over one in-process server with every message
/// serialized both ways — the session shape most suites drive. Owns its
/// loopback endpoint; use it exactly like the QuerySession it is.
template <typename Ring>
class TestSession : private internal::OwnedLoopback,
                    public QuerySession<Ring> {
 public:
  TestSession(ClientContext<Ring>* client, ServerHandler* server)
      : internal::OwnedLoopback(server),
        QuerySession<Ring>(client, EndpointGroup::TwoParty(&endpoint)) {}
};

}  // namespace testing
}  // namespace polysse

#endif  // POLYSSE_TESTS_TESTING_DEPLOY_HELPERS_H_
