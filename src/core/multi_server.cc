#include "core/multi_server.h"

namespace polysse {

Result<std::vector<PolyTree<FpCyclotomicRing>>> SplitSharesShamir(
    const FpCyclotomicRing& ring, const PolyTree<FpCyclotomicRing>& data,
    int threshold, int num_servers, ChaChaRng& rng) {
  ASSIGN_OR_RETURN(ShamirScheme scheme,
                   ShamirScheme::Create(ring.field(), threshold, num_servers));
  std::vector<PolyTree<FpCyclotomicRing>> servers(num_servers);
  for (auto& tree : servers) tree.nodes.reserve(data.size());

  const size_t width = ring.DenseCoeffCount();
  std::vector<std::vector<int64_t>> coeffs(
      num_servers, std::vector<int64_t>(width));
  for (const auto& node : data.nodes) {
    for (size_t j = 0; j < width; ++j) {
      std::vector<ShamirShare> shares = scheme.Share(node.poly.coeff(j), rng);
      for (int s = 0; s < num_servers; ++s)
        coeffs[s][j] = static_cast<int64_t>(shares[s].y);
    }
    for (int s = 0; s < num_servers; ++s) {
      // Share trees mirror the shape but carry no plaintext (tag_value 0).
      servers[s].nodes.push_back(typename PolyTree<FpCyclotomicRing>::Node{
          FpPoly(ring.field(), coeffs[s]), 0, node.parent, node.children,
          node.path, node.subtree_size});
    }
  }
  return servers;
}

}  // namespace polysse
