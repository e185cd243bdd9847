// The multi-server extension sketched at the end of §4.2: "this can easily
// be extended to a model with multiple servers, in which the client together
// with k out of n servers (or any other access structure) can reconstruct
// the shared secret polynomial."
//
// Two share splits, each producing ordinary share trees that servers
// (ServerStoreRegistry) serve over the wire protocol:
//  * SplitSharesAcrossServers — client + k servers, all of them needed
//    (k+1-of-k+1 additive sharing; generalizes the 2-party scheme).
//  * SplitSharesShamir — pure t-of-n over the F_p ring: every coefficient is
//    Shamir-shared, so any t servers reconstruct evaluations by Lagrange
//    interpolation and t-1 servers learn nothing. The client holds no share
//    at all (only the tag map).
#ifndef POLYSSE_CORE_MULTI_SERVER_H_
#define POLYSSE_CORE_MULTI_SERVER_H_

#include <string>
#include <vector>

#include "core/poly_tree.h"
#include "core/sharing.h"
#include "mpc/shamir.h"
#include "ring/fp_cyclotomic_ring.h"

namespace polysse {

/// Additive client + k-server split: data = client + sum_i server_i.
/// Servers 0..k-2 are PRF-derived (forgettable, like the client share);
/// the last server absorbs the difference.
template <typename Ring>
Result<std::vector<PolyTree<Ring>>> SplitSharesAcrossServers(
    const Ring& ring, const PolyTree<Ring>& data,
    const DeterministicPrf& client_prf, int num_servers,
    const ShareSplitOptions& options = {}) {
  if (num_servers < 1)
    return Status::InvalidArgument("need at least one server");
  std::vector<PolyTree<Ring>> servers(num_servers);
  for (int s = 0; s < num_servers; ++s)
    servers[s].nodes.reserve(data.size());

  for (const auto& node : data.nodes) {
    // The client share is derived exactly as in the 2-party scheme, so a
    // seed-only ClientContext works unchanged against multi-server stores.
    typename Ring::Elem acc =
        DeriveClientShare(ring, client_prf, node.path, options);
    for (int s = 0; s < num_servers; ++s) {
      typename Ring::Elem poly = ring.Zero();
      if (s + 1 < num_servers) {
        ChaChaRng rng = client_prf.Stream("server" + std::to_string(s) + "/" +
                                          node.path);
        std::vector<typename Ring::Scalar> row(ring.DenseCoeffCount());
        RandomShare(ring, rng, row, options);
        poly = ring.FromCoeffs(std::move(row));
        acc = ring.Add(acc, poly);
      } else {
        poly = ring.Sub(node.poly, acc);
      }
      servers[s].nodes.push_back(typename PolyTree<Ring>::Node{
          std::move(poly), 0, node.parent, node.children, node.path,
          node.subtree_size});
    }
  }
  return servers;
}

/// Shamir t-of-n split of an F_p data tree into n ordinary share trees —
/// the form every server's registry serves over the wire protocol. Server s
/// (s = 0..n-1, evaluation point x = s+1) receives, per node, the
/// polynomial whose j-th coefficient is its Shamir share of the data
/// polynomial's j-th coefficient; by linearity, evaluating that share
/// polynomial at e yields the server's Shamir share of f(e), and any
/// `threshold` servers reconstruct f(e) — or, coefficient-wise, f itself —
/// via LagrangeWeightsAtZero. The client holds no share of its own.
Result<std::vector<PolyTree<FpCyclotomicRing>>> SplitSharesShamir(
    const FpCyclotomicRing& ring, const PolyTree<FpCyclotomicRing>& data,
    int threshold, int num_servers, ChaChaRng& rng);

}  // namespace polysse

#endif  // POLYSSE_CORE_MULTI_SERVER_H_
