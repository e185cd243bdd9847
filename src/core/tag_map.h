// The private mapping function map: tagnames -> {1..max} of paper §4.1
// (Fig. 1(b)). The mapping must stay client-side: the server sees only
// evaluation points, so a private map keeps queries confidential (§4.3).
#ifndef POLYSSE_CORE_TAG_MAP_H_
#define POLYSSE_CORE_TAG_MAP_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "crypto/prf.h"
#include "util/bytes.h"
#include "util/status.h"

namespace polysse {

/// Injective tagname -> value map, drawn as a keyed-random injection: the
/// PRF hides tag-to-point structure from the servers.
class TagMap {
 public:
  /// An empty map (placeholder for deserialization targets).
  TagMap() = default;

  struct Options {
    /// Values are drawn from {1..max_value}. For the F_p ring the safe
    /// bound is p-2 (Lemma 3 excludes p-1; 0 is reserved).
    uint64_t max_value = 0;
    /// Optional whitelist of usable values (e.g. ZQuotientRing::SafeTagValues
    /// output); when non-empty, values come only from here.
    std::vector<uint64_t> allowed_values;
  };

  /// Builds a map for `tags` (duplicates rejected).
  static Result<TagMap> Build(const std::vector<std::string>& tags,
                              const Options& options,
                              const DeterministicPrf& prf);

  /// Extends the map in place with every not-yet-mapped tag of `tags`,
  /// drawing values with the same keyed sampler as Build — extending an
  /// empty map is identical to building it, so a collection's first
  /// document gets the exact map a single-document deployment would.
  /// Already-mapped tags are kept (documents share vocabulary). The options
  /// must match the ones the map was built with (same max_value / pool).
  /// All-or-nothing: on error the map is unchanged.
  Status Extend(const std::vector<std::string>& tags, const Options& options,
                const DeterministicPrf& prf);

  /// Builds from explicit pairs — used to reproduce Fig. 1(b) verbatim.
  static Result<TagMap> FromExplicit(
      const std::vector<std::pair<std::string, uint64_t>>& pairs);

  /// NotFound for unmapped tags (the client then knows the answer is empty
  /// without contacting the server).
  Result<uint64_t> Value(std::string_view tag) const;
  /// NotFound for unassigned values.
  Result<std::string> Tag(uint64_t value) const;
  bool Contains(std::string_view tag) const;

  size_t size() const { return to_value_.size(); }
  uint64_t max_value() const { return max_value_; }
  /// Entries sorted by value (deterministic iteration for tests/figures).
  std::vector<std::pair<std::string, uint64_t>> Entries() const;

  /// Client-side persistence (the map is part of the client secret state).
  void Serialize(ByteWriter* out) const;
  static Result<TagMap> Deserialize(ByteReader* in);
  size_t SerializedSize() const;

 private:
  uint64_t max_value_ = 0;
  std::unordered_map<std::string, uint64_t> to_value_;
  std::unordered_map<uint64_t, std::string> to_tag_;
};

}  // namespace polysse

#endif  // POLYSSE_CORE_TAG_MAP_H_
