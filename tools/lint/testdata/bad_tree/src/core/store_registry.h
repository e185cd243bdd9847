// Fixture: a server that picks its ring by name, in a branch and in an
// alias, without saying why. The FpCyclotomicRing named in this comment is
// not a fork.
#ifndef FIXTURE_STORE_REGISTRY_H_
#define FIXTURE_STORE_REGISTRY_H_

#include <type_traits>

namespace polysse {

template <typename Ring>
class ServerStoreRegistry {
 public:
  static int Kind() {
    if constexpr (std::is_same_v<Ring, FpCyclotomicRing>) return 1;
    return 2;
  }
};

using ZStoreRegistry = ServerStoreRegistry<ZQuotientRing>;

}  // namespace polysse

#endif  // FIXTURE_STORE_REGISTRY_H_
