#include "core/outsource.h"

#include "core/sharing.h"
#include "nt/primes.h"

namespace polysse {

Result<PreparedOutsource<FpCyclotomicRing>> PrepareOutsource(
    const XmlNode& document, const DeterministicPrf& seed,
    const FpOutsourceOptions& options) {
  std::vector<std::string> tags = document.DistinctTags();
  const uint64_t p =
      options.p != 0 ? options.p : PrimeForAlphabet(tags.size());
  ASSIGN_OR_RETURN(FpCyclotomicRing ring, FpCyclotomicRing::Create(p));

  TagMap::Options map_options;
  map_options.max_value = ring.MaxTagValue();  // Lemma 3: exclude p-1
  ASSIGN_OR_RETURN(TagMap tag_map, TagMap::Build(tags, map_options, seed));

  ASSIGN_OR_RETURN(PolyTree<FpCyclotomicRing> data,
                   BuildPolyTree(ring, tag_map, document));
  return PreparedOutsource<FpCyclotomicRing>{ring, std::move(tag_map),
                                             std::move(data), {}};
}

Result<PreparedOutsource<ZQuotientRing>> PrepareOutsource(
    const XmlNode& document, const DeterministicPrf& seed,
    const ZOutsourceOptions& options) {
  ASSIGN_OR_RETURN(ZQuotientRing ring, ZQuotientRing::Create(options.r));

  std::vector<std::string> tags = document.DistinctTags();
  TagMap::Options map_options;
  map_options.max_value = options.max_tag_value;
  map_options.allowed_values =
      ring.SafeTagValues(options.max_tag_value,
                         /*max_tag_distance=*/options.max_tag_value);
  if (map_options.allowed_values.size() < tags.size())
    return Status::InvalidArgument(
        "not enough safe tag values below " +
        std::to_string(options.max_tag_value) + " for " +
        std::to_string(tags.size()) +
        " tags; raise max_tag_value or use a different r(x)");
  ASSIGN_OR_RETURN(TagMap tag_map, TagMap::Build(tags, map_options, seed));

  ASSIGN_OR_RETURN(PolyTree<ZQuotientRing> data,
                   BuildPolyTree(ring, tag_map, document));
  ShareSplitOptions split_options;
  split_options.z_coeff_bits = options.coeff_bits;
  return PreparedOutsource<ZQuotientRing>{ring, std::move(tag_map),
                                          std::move(data), split_options};
}

}  // namespace polysse
