// Share-split roundtrip checker: the §4.2 invariant every deployment relies
// on. For a document + ring it builds the polynomial tree, splits it into
// client/server share trees, and asserts for every node that
//   client.poly + server.poly == data.poly     (share reconstruction)
//   RecoverTagValue(combined) == mapped tag    (Theorems 1/2)
// Returns a gtest AssertionResult naming the first offending node.
#ifndef POLYSSE_TESTS_TESTING_SHARE_ROUNDTRIP_H_
#define POLYSSE_TESTS_TESTING_SHARE_ROUNDTRIP_H_

#include <gtest/gtest.h>

#include "core/poly_tree.h"
#include "core/sharing.h"
#include "core/tag_map.h"
#include "crypto/prf.h"
#include "xml/xml_node.h"

namespace polysse {
namespace testing {

template <typename Ring>
::testing::AssertionResult ShareRoundtripOk(
    const Ring& ring, const TagMap& tag_map, const XmlNode& document,
    const DeterministicPrf& client_prf, const ShareSplitOptions& options = {}) {
  auto tree_or = BuildPolyTree(ring, tag_map, document);
  if (!tree_or.ok()) {
    return ::testing::AssertionFailure()
           << "BuildPolyTree: " << tree_or.status().ToString();
  }
  const PolyTree<Ring>& data = *tree_or;
  SharedTrees<Ring> shares = SplitShares(ring, data, client_prf, options);
  if (shares.client.size() != data.size() ||
      shares.server.size() != data.size()) {
    return ::testing::AssertionFailure()
           << "share trees lost nodes: client " << shares.client.size()
           << ", server " << shares.server.size() << ", data " << data.size();
  }
  for (size_t i = 0; i < data.size(); ++i) {
    const auto& node = data.nodes[i];
    // Scrubbing: neither share may carry the plaintext tag value.
    if (shares.client.nodes[i].tag_value != 0 ||
        shares.server.nodes[i].tag_value != 0) {
      return ::testing::AssertionFailure()
             << "node " << i << " (path '" << node.path
             << "'): share carries a tag value";
    }
    typename Ring::Elem combined =
        ring.Add(shares.client.nodes[i].poly, shares.server.nodes[i].poly);
    if (!ring.Equal(combined, node.poly)) {
      return ::testing::AssertionFailure()
             << "node " << i << " (path '" << node.path
             << "'): client+server != data; got " << ring.ToString(combined)
             << ", want " << ring.ToString(node.poly);
    }
    // The client share must also be re-derivable from the seed alone (the
    // thin-client property sharing.h promises).
    typename Ring::Elem rederived =
        DeriveClientShare(ring, client_prf, node.path, options);
    if (!ring.Equal(rederived, shares.client.nodes[i].poly)) {
      return ::testing::AssertionFailure()
             << "node " << i << " (path '" << node.path
             << "'): client share not PRF-rederivable";
    }
    auto t = RecoverTagValue(ring, data, static_cast<int>(i));
    if (!t.ok()) {
      return ::testing::AssertionFailure()
             << "node " << i << " (path '" << node.path
             << "'): RecoverTagValue: " << t.status().ToString();
    }
    if (*t != node.tag_value) {
      return ::testing::AssertionFailure()
             << "node " << i << " (path '" << node.path << "'): recovered tag "
             << *t << ", want " << node.tag_value;
    }
  }
  return ::testing::AssertionSuccess();
}

}  // namespace testing
}  // namespace polysse

#endif  // POLYSSE_TESTS_TESTING_SHARE_ROUNDTRIP_H_
