// Baseline 1: the strawman the paper's introduction dismisses — "download
// the whole database locally and then perform the query. This of course is
// terribly inefficient." The client fetches every server share, recombines
// the polynomial tree, recovers every tag (Theorems 1/2), and searches
// locally. Correct, private, and maximally expensive in bandwidth.
#ifndef POLYSSE_BASELINE_NAIVE_DOWNLOAD_H_
#define POLYSSE_BASELINE_NAIVE_DOWNLOAD_H_

#include <string>

#include "baseline/plaintext_search.h"
#include "core/client_context.h"
#include "core/endpoint.h"
#include "core/poly_tree.h"
#include "util/status.h"

namespace polysse {

/// Downloads all shares from `server`, reconstructs the whole document's
/// tag values, and answers //tagname locally. The document sits at node
/// ids [0, shape.size()), and `shape` supplies only its structure (paths
/// and children), never a polynomial. Byte counters reflect the full
/// transfer.
template <typename Ring>
Result<BaselineResult> NaiveDownloadLookup(ClientContext<Ring>* client,
                                           ServerHandler* server,
                                           const PolyTree<Ring>& shape,
                                           const std::string& tagname) {
  BaselineResult out;
  const Ring& ring = client->ring();

  // Fetch every node (one request, all ids — the whole database leaves the
  // server).
  FetchRequest req;
  req.mode = FetchMode::kFull;
  for (size_t i = 0; i < shape.size(); ++i)
    req.node_ids.push_back(static_cast<int32_t>(i));
  ByteWriter up;
  req.Serialize(&up);
  out.stats.bytes_up += up.size();
  ASSIGN_OR_RETURN(FetchResponse resp, server->HandleFetch(req));
  if (resp.entries.size() != shape.size())
    return Status::Corruption("download answered the wrong node count");
  ByteWriter down;
  resp.Serialize(&down);
  out.stats.bytes_down += down.size();

  // Recombine with locally derived client shares.
  std::vector<typename Ring::Elem> combined;
  combined.reserve(shape.size());
  for (size_t i = 0; i < shape.size(); ++i) {
    ByteReader r(resp.entries[i].payload);
    ASSIGN_OR_RETURN(typename Ring::Elem server_part, ring.Deserialize(&r));
    ASSIGN_OR_RETURN(typename Ring::Elem client_part,
                     client->ShareForPath(shape.nodes[i].path));
    combined.push_back(ring.Add(client_part, server_part));
    ++out.stats.crypto_ops;
  }

  // Recover every node's tag (bottom-up identity is not needed; children
  // polynomials are available directly).
  auto e_or = client->tag_map().Value(tagname);
  if (!e_or.ok()) return out;  // unmapped tag: empty result
  for (size_t i = 0; i < shape.size(); ++i) {
    ++out.stats.nodes_scanned;
    std::vector<typename Ring::Elem> children;
    for (int c : shape.nodes[i].children) children.push_back(combined[c]);
    ASSIGN_OR_RETURN(uint64_t t, RecoverTagValue(ring, combined[i], children));
    if (t == *e_or) out.match_paths.push_back(shape.nodes[i].path);
  }
  return out;
}

}  // namespace polysse

#endif  // POLYSSE_BASELINE_NAIVE_DOWNLOAD_H_
