// Test-only backdoor into a ServerStore's share tree. Production code must
// never mutate a store behind the protocol; cheating-server scenarios are
// modeled with FaultInjectingEndpoint instead. This hook remains for the
// one legacy case that needs to corrupt *stored* state (so eval and fetch
// lie consistently) rather than in-flight responses.
#ifndef POLYSSE_TESTS_TESTING_STORE_TEST_ACCESS_H_
#define POLYSSE_TESTS_TESTING_STORE_TEST_ACCESS_H_

#include "core/server_store.h"

namespace polysse {

struct ServerStoreTestAccess {
  /// A registry hands out const views of the stores it owns as mutable
  /// objects, so the cast reaches the registered tree itself.
  template <typename Ring>
  static PolyTree<Ring>& MutableTree(const ServerStore<Ring>& store) {
    return const_cast<ServerStore<Ring>&>(store).tree_;
  }
};

}  // namespace polysse

#endif  // POLYSSE_TESTS_TESTING_STORE_TEST_ACCESS_H_
