// The outsourcing options of both rings, and PrepareOutsource: ring
// selection, private tag map and the reduced data tree of one document,
// before any share split. The library's front door, polysse::Collection
// (core/collection.h), takes the options and applies the same rules
// itself; PrepareOutsource is what the tests' white-box deployment
// builders (tests/testing/deploy_helpers.h) start from, an independent
// oracle for the collection's answers.
#ifndef POLYSSE_CORE_OUTSOURCE_H_
#define POLYSSE_CORE_OUTSOURCE_H_

#include <cstdint>

#include "core/client_context.h"
#include "core/server_store.h"
#include "crypto/prf.h"
#include "poly/z_poly.h"
#include "util/status.h"
#include "xml/xml_node.h"

namespace polysse {

/// Configuration of an F_p[x]/(x^{p-1}-1) deployment.
struct FpOutsourceOptions {
  /// Field modulus; 0 auto-selects the smallest safe prime for the
  /// document's tag alphabet (PrimeForAlphabet).
  uint64_t p = 0;
};

/// The plaintext-side artifacts of one document: ring, private tag map and
/// the reduced data tree, before any share split.
template <typename Ring>
struct PreparedOutsource {
  Ring ring;
  TagMap tag_map;
  PolyTree<Ring> data;
  ShareSplitOptions split_options;
};

Result<PreparedOutsource<FpCyclotomicRing>> PrepareOutsource(
    const XmlNode& document, const DeterministicPrf& seed,
    const FpOutsourceOptions& options = {});

/// Configuration of a Z[x]/(r(x)) deployment.
struct ZOutsourceOptions {
  /// Monic irreducible modulus; default x^2 + 1 (the paper's running
  /// example).
  ZPoly r = ZPoly({1, 0, 1});
  /// Client-share coefficient width (statistical hiding margin).
  size_t coeff_bits = 256;
  /// Highest candidate tag value. Tags take only the safe values below it:
  /// points where r(t) is prime and large enough to rule out
  /// evaluation-filter false positives (ZQuotientRing::SafeTagValues).
  uint64_t max_tag_value = 4096;
};

Result<PreparedOutsource<ZQuotientRing>> PrepareOutsource(
    const XmlNode& document, const DeterministicPrf& seed,
    const ZOutsourceOptions& options);

}  // namespace polysse

#endif  // POLYSSE_CORE_OUTSOURCE_H_
