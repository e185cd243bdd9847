// Data sharing (paper §4.2): every node polynomial d is split as
// d = d_client + d_server with d_client drawn from a seeded PRF stream keyed
// by the node's path. Because the client share is *derived*, a thin client
// can forget its whole tree and keep only the 32-byte seed ("store only the
// random seed ... and recompute the needed entries for each query").
#ifndef POLYSSE_CORE_SHARING_H_
#define POLYSSE_CORE_SHARING_H_

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/poly_tree.h"
#include "crypto/prf.h"
#include "ring/fp_cyclotomic_ring.h"
#include "ring/z_quotient_ring.h"
#include "util/status.h"

namespace polysse {

/// Knobs of the share split.
struct ShareSplitOptions {
  /// Coefficient width for Z[x]/(r) client shares. Shares over Z cannot be
  /// perfectly hiding (no uniform distribution on Z — a weakness the paper
  /// inherits); this sets the statistical masking margin and must comfortably
  /// exceed the data coefficients' bit growth (~ n log p).
  size_t z_coeff_bits = 256;
};

/// PRF label for a node's share stream; shared by the splitter and the
/// seed-only client so both derive the identical polynomial.
inline constexpr std::string_view kShareLabelPrefix = "share/";
inline std::string ShareLabel(const std::string& node_path) {
  return std::string(kShareLabelPrefix) + node_path;
}

/// One share drawn from `rng` as its dense coefficients, written into `row`
/// (DenseCoeffCount() of them, trailing zeros included): ring-uniform over
/// F_p (perfectly hiding), `z_coeff_bits`-bit coefficients over Z
/// (statistically hiding).
inline void RandomShare(const FpCyclotomicRing& ring, ChaChaRng& rng,
                        std::span<uint64_t> row, const ShareSplitOptions&) {
  ring.RandomInto(rng, row);
}
inline void RandomShare(const ZQuotientRing& ring, ChaChaRng& rng,
                        std::span<BigInt> row,
                        const ShareSplitOptions& options) {
  ring.RandomInto(rng, row, options.z_coeff_bits);
}

/// The client share of the node whose share label is `label` (ShareLabel of
/// its path), as its dense coefficients written into `row`, allocating
/// nothing in the F_p ring. The one statement of the share recipe:
/// DeriveClientShare and a seed-only ClientContext both draw through it.
template <typename Ring>
void DeriveClientShareRow(const Ring& ring, const DeterministicPrf& prf,
                          std::string_view label,
                          std::span<typename Ring::Scalar> row,
                          const ShareSplitOptions& options) {
  ChaChaRng rng = prf.Stream(label);
  RandomShare(ring, rng, row, options);
}

/// Derives the client share of the node identified by `node_path`.
template <typename Ring>
typename Ring::Elem DeriveClientShare(const Ring& ring,
                                      const DeterministicPrf& prf,
                                      const std::string& node_path,
                                      const ShareSplitOptions& options) {
  std::vector<typename Ring::Scalar> row(ring.DenseCoeffCount());
  DeriveClientShareRow(ring, prf, ShareLabel(node_path), row, options);
  return ring.FromCoeffs(std::move(row));
}

/// The two share trees produced by a split. Shapes (parent/children/path/
/// subtree_size) mirror the data tree; tag values are scrubbed.
template <typename Ring>
struct SharedTrees {
  PolyTree<Ring> client;
  PolyTree<Ring> server;
};

/// Splits a data tree into client + server share trees such that for every
/// node, client.poly + server.poly == data.poly in the ring.
template <typename Ring>
SharedTrees<Ring> SplitShares(const Ring& ring, const PolyTree<Ring>& data,
                              const DeterministicPrf& client_prf,
                              const ShareSplitOptions& options = {}) {
  SharedTrees<Ring> out;
  out.client.nodes.reserve(data.size());
  out.server.nodes.reserve(data.size());
  for (const auto& node : data.nodes) {
    // Shares mirror the tree shape but carry no plaintext (tag_value 0).
    typename PolyTree<Ring>::Node cnode{
        DeriveClientShare(ring, client_prf, node.path, options),
        0, node.parent, node.children, node.path, node.subtree_size};
    typename PolyTree<Ring>::Node snode{
        ring.Sub(node.poly, cnode.poly),
        0, node.parent, node.children, node.path, node.subtree_size};
    out.client.nodes.push_back(std::move(cnode));
    out.server.nodes.push_back(std::move(snode));
  }
  return out;
}

}  // namespace polysse

#endif  // POLYSSE_CORE_SHARING_H_
