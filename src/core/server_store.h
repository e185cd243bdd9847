// What the untrusted server of §4.2/§4.3 stores for one document: its
// share tree — random-looking polynomials plus tree shape — and the ring
// they live in. It is plain data. The server that answers evaluation and
// fetch requests over these trees is ServerStoreRegistry
// (store_registry.h); it never sees tag values, queries (only evaluation
// points), or results.
#ifndef POLYSSE_CORE_SERVER_STORE_H_
#define POLYSSE_CORE_SERVER_STORE_H_

#include <utility>

#include "core/poly_tree.h"
#include "util/bytes.h"

namespace polysse {

/// Test-only backdoor into the share tree (tests/testing/store_test_access.h).
struct ServerStoreTestAccess;

/// One document's share tree on one server. Ring is FpCyclotomicRing or
/// ZQuotientRing. Immutable after construction, so any number of threads
/// may read it while a registry serves it.
template <typename Ring>
class ServerStore {
 public:
  ServerStore(const Ring& ring, PolyTree<Ring> share_tree)
      : ring_(ring), tree_(std::move(share_tree)) {}

  size_t size() const { return tree_.size(); }
  const Ring& ring() const { return ring_; }
  /// Exposed for tests and storage measurement; a real deployment would of
  /// course not share this object with the client.
  const PolyTree<Ring>& tree() const { return tree_; }

  /// Bytes the server persists: every share polynomial plus the tree shape
  /// (parent + child count as varints). This is the measured side of the
  /// §5 storage comparison (E7).
  size_t PersistedBytes() const {
    ByteWriter w;
    w.PutVarint64(tree_.size());
    for (const auto& node : tree_.nodes) {
      w.PutVarintSigned64(node.parent);
      w.PutVarint64(node.children.size());
      ring_.Serialize(node.poly, &w);
    }
    return w.size();
  }

 private:
  friend struct ServerStoreTestAccess;

  Ring ring_;
  PolyTree<Ring> tree_;
};

}  // namespace polysse

#endif  // POLYSSE_CORE_SERVER_STORE_H_
