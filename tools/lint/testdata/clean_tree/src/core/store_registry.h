// Fixture: a server written once over its ring, which names each ring only
// in its marked aliases.
#ifndef FIXTURE_STORE_REGISTRY_H_
#define FIXTURE_STORE_REGISTRY_H_

namespace polysse {

template <typename Ring>
class ServerStoreRegistry {
 public:
  static bool SameRing(const Ring& a, const Ring& b) {
    return a.Params() == b.Params();
  }
};

// polysse-lint: allow(ring-fork): each ring's registry, by name.
using FpStoreRegistry = ServerStoreRegistry<FpCyclotomicRing>;
// polysse-lint: allow(ring-fork)
using ZStoreRegistry = ServerStoreRegistry<ZQuotientRing>;

}  // namespace polysse

#endif  // FIXTURE_STORE_REGISTRY_H_
