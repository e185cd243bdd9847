// Client-side secret state (§4.2): the tag map, and either the materialized
// client share tree or — for thin clients — just the PRF seed from which
// share polynomials are re-derived on demand.
#ifndef POLYSSE_CORE_CLIENT_CONTEXT_H_
#define POLYSSE_CORE_CLIENT_CONTEXT_H_

#include <algorithm>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "core/sharing.h"
#include "core/tag_map.h"
#include "crypto/prf.h"
#include "util/check.h"

namespace polysse {

/// What the client keeps between queries.
template <typename Ring>
class ClientContext {
 public:
  using Elem = typename Ring::Elem;

  /// Thin client: 32-byte seed + tag map; shares are derived per query.
  static ClientContext SeedOnly(Ring ring, TagMap tag_map,
                                DeterministicPrf prf,
                                ShareSplitOptions options = {}) {
    ClientContext out(std::move(ring), std::move(tag_map), std::move(prf),
                      options);
    return out;
  }

  /// Fat client: keeps the whole client share tree in memory (no derivation
  /// cost at query time). The PRF is still stored so both modes answer
  /// identically; the tree is authoritative.
  static ClientContext Materialized(Ring ring, TagMap tag_map,
                                    DeterministicPrf prf,
                                    PolyTree<Ring> client_tree,
                                    ShareSplitOptions options = {}) {
    ClientContext out(std::move(ring), std::move(tag_map), std::move(prf),
                      options);
    out.client_tree_ = std::move(client_tree);
    for (size_t i = 0; i < out.client_tree_->nodes.size(); ++i) {
      out.path_index_[out.client_tree_->nodes[i].path] = static_cast<int>(i);
    }
    return out;
  }

  const Ring& ring() const { return ring_; }
  const TagMap& tag_map() const { return tag_map_; }
  const ShareSplitOptions& split_options() const { return options_; }
  bool seed_only() const { return !client_tree_.has_value(); }

  /// The client share polynomial of the node at `path`. Thin clients derive
  /// it from the PRF; fat clients look it up.
  Result<Elem> ShareForPath(const std::string& path) const {
    if (client_tree_.has_value()) {
      auto it = path_index_.find(path);
      if (it == path_index_.end())
        return Status::NotFound("no client share for path '" + path + "'");
      return client_tree_->nodes[it->second].poly;
    }
    return DeriveClientShare(ring_, prf_, path, options_);
  }

  /// The same share, for the node whose share label is `label`
  /// (kShareLabelPrefix + its path, built by the caller in a buffer of its
  /// own), as its dense coefficients: `row` must hold DenseCoeffCount() of
  /// them and receives trailing zeros too. A thin client draws straight
  /// into `row` (DeriveClientShareRow), so an F_p derivation allocates
  /// nothing.
  Status ShareRowForLabel(std::string_view label,
                          std::span<typename Ring::Scalar> row) const {
    POLYSSE_CHECK(row.size() == ring_.DenseCoeffCount());
    if (client_tree_.has_value()) {
      ASSIGN_OR_RETURN(
          Elem share,
          ShareForPath(std::string(label.substr(kShareLabelPrefix.size()))));
      const auto& c = share.coeffs();
      std::fill(std::copy(c.begin(), c.end(), row.begin()), row.end(),
                typename Ring::Scalar{});
      return Status::Ok();
    }
    DeriveClientShareRow(ring_, prf_, label, row, options_);
    return Status::Ok();
  }

  /// Bytes of persistent client state: tag map + (seed | share tree).
  /// The thin-vs-fat storage gap of §4.2, measured.
  size_t PersistedBytes() const {
    size_t bytes = tag_map_.SerializedSize();
    if (!client_tree_.has_value()) return bytes + DeterministicPrf::kSeedSize;
    ByteWriter w;
    for (const auto& node : client_tree_->nodes) ring_.Serialize(node.poly, &w);
    return bytes + w.size();
  }

 private:
  ClientContext(Ring ring, TagMap tag_map, DeterministicPrf prf,
                ShareSplitOptions options)
      : ring_(std::move(ring)),
        tag_map_(std::move(tag_map)),
        prf_(std::move(prf)),
        options_(options) {}

  Ring ring_;
  TagMap tag_map_;
  DeterministicPrf prf_;
  ShareSplitOptions options_;
  std::optional<PolyTree<Ring>> client_tree_;
  std::unordered_map<std::string, int> path_index_;
};

}  // namespace polysse

#endif  // POLYSSE_CORE_CLIENT_CONTEXT_H_
