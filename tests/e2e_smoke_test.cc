// End-to-end smoke test over the full outsource -> query -> verify loop:
// a small document is outsourced in both rings, every //tag and a
// descendant query //a/b//c run through a serialized-wire QuerySession
// against a one-document server, and every answer must equal the
// plaintext_search baseline.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "baseline/plaintext_search.h"
#include "core/outsource.h"
#include "core/query_session.h"
#include "testing/deploy_helpers.h"
#include "testing/mul_path_guards.h"
#include "testing/query_helpers.h"
#include "testing/xml_builders.h"
#include "xpath/xpath.h"

namespace polysse {
namespace {

using testing::MakeFpDeployment;
using testing::MakeZDeployment;
using testing::TestSession;

using testing::Sorted;
using testing::SortedMatchPaths;

// A small catalog with repeated tags, nesting that exercises //a/b//c (both
// a direct a/b/c chain and a deep a/b/x/c one), and a decoy c outside any
// a/b prefix.
XmlNode MakeSmokeDocument() {
  testing::XmlTreeBuilder b("catalog");
  b.Open("a")
      .Open("b")
      .Leaf("c", "direct hit")
      .Open("x")
      .Leaf("c", "deep hit")
      .Close()
      .Close()
      .Leaf("b")
      .Close();
  b.Open("a").Leaf("c").Close();  // c without intermediate b: no match
  b.Open("misc").Leaf("c").Leaf("b").Close();
  return b.Build();
}

template <typename Deployment>
void ExpectAllQueriesMatchBaseline(const XmlNode& doc, Deployment& dep,
                                   const char* ring_name) {
  using Ring = std::remove_reference_t<decltype(dep.ring)>;
  TestSession<Ring> session(&dep.client, dep.server.get());

  // Element lookup //tag for every distinct tag, in every verify mode.
  for (const std::string& tag : doc.DistinctTags()) {
    BaselineResult oracle = PlaintextLookup(doc, tag);
    for (VerifyMode mode : {VerifyMode::kVerified, VerifyMode::kOptimistic,
                            VerifyMode::kTrustedConstOnly}) {
      auto r = session.Lookup(tag, mode);
      ASSERT_TRUE(r.ok()) << ring_name << " //" << tag << ": "
                          << r.status().ToString();
      if (mode == VerifyMode::kOptimistic) {
        // Optimistic mode may defer some answers into `possible`; definite
        // matches must still be a subset of the oracle.
        std::vector<std::string> oracle_sorted = Sorted(oracle.match_paths);
        for (const std::string& p : SortedMatchPaths(r->matches)) {
          EXPECT_TRUE(std::binary_search(oracle_sorted.begin(),
                                         oracle_sorted.end(), p))
              << ring_name << " //" << tag << " spurious optimistic match "
              << p;
        }
      } else {
        EXPECT_EQ(SortedMatchPaths(r->matches), Sorted(oracle.match_paths))
            << ring_name << " //" << tag << " mode "
            << static_cast<int>(mode);
      }
    }
  }

  // Advanced descendant query //a/b//c in both evaluation strategies.
  XPathQuery query = XPathQuery::Parse("//a/b//c").value();
  BaselineResult oracle = PlaintextXPath(doc, query);
  EXPECT_FALSE(oracle.match_paths.empty());  // the document plants two hits
  for (XPathStrategy strategy :
       {XPathStrategy::kLeftToRight, XPathStrategy::kAllAtOnce}) {
    auto r = session.EvaluateXPath(query, strategy, VerifyMode::kVerified);
    ASSERT_TRUE(r.ok()) << ring_name << ": " << r.status().ToString();
    EXPECT_EQ(SortedMatchPaths(r->matches), Sorted(oracle.match_paths))
        << ring_name << " strategy " << static_cast<int>(strategy);
  }

  // A tag the document never uses resolves to an empty answer, not an error.
  auto none = session.Lookup("no-such-tag", VerifyMode::kVerified);
  ASSERT_TRUE(none.ok());
  EXPECT_TRUE(none->matches.empty());
}

TEST(E2ESmokeTest, FpDeploymentMatchesPlaintextBaseline) {
  XmlNode doc = MakeSmokeDocument();
  DeterministicPrf seed = DeterministicPrf::FromString("e2e-smoke-fp");
  auto dep = MakeFpDeployment(doc, seed);
  ASSERT_TRUE(dep.ok()) << dep.status().ToString();
  ExpectAllQueriesMatchBaseline(doc, *dep, "Fp");
}

TEST(E2ESmokeTest, ZDeploymentMatchesPlaintextBaseline) {
  XmlNode doc = MakeSmokeDocument();
  DeterministicPrf seed = DeterministicPrf::FromString("e2e-smoke-z");
  auto dep = MakeZDeployment(doc, seed);
  ASSERT_TRUE(dep.ok()) << dep.status().ToString();
  ExpectAllQueriesMatchBaseline(doc, *dep, "Z");
}

template <typename Deployment>
void ExpectFastPathAnswersBitForBit(const XmlNode& doc, Deployment& dep,
                                    const char* ring_name) {
  using Ring = std::remove_reference_t<decltype(dep.ring)>;
  TestSession<Ring> session(&dep.client, dep.server.get());

  // One element lookup: //c has matches in two subtrees plus a decoy.
  BaselineResult lookup_oracle = PlaintextLookup(doc, "c");
  auto lookup = session.Lookup("c", VerifyMode::kVerified);
  ASSERT_TRUE(lookup.ok()) << ring_name << ": " << lookup.status().ToString();
  EXPECT_EQ(SortedMatchPaths(lookup->matches), Sorted(lookup_oracle.match_paths))
      << ring_name << " //c under forced fast path";

  // One descendant query //a/b//c.
  XPathQuery query = XPathQuery::Parse("//a/b//c").value();
  BaselineResult xpath_oracle = PlaintextXPath(doc, query);
  ASSERT_FALSE(xpath_oracle.match_paths.empty());
  auto xpath = session.EvaluateXPath(query, XPathStrategy::kLeftToRight,
                                     VerifyMode::kVerified);
  ASSERT_TRUE(xpath.ok()) << ring_name << ": " << xpath.status().ToString();
  EXPECT_EQ(SortedMatchPaths(xpath->matches), Sorted(xpath_oracle.match_paths))
      << ring_name << " //a/b//c under forced fast path";
}

TEST(E2ESmokeTest, ForcedFastPathMatchesPlaintextBaselineInBothRings) {
  // Fast-path guard: with the Montgomery/Karatsuba kernels forced on for
  // every multiplication (crossover threshold 1, so even degree-1 products
  // take the Karatsuba branch), outsourcing and querying must agree with
  // the plaintext baseline bit-for-bit in both rings. This covers the whole
  // loop — share derivation, reduction, evaluation, Theorem 1/2
  // verification — not just the kernels in isolation.
  testing::ScopedFpMulPath fp_path(FpMulPath::kFast);
  testing::ScopedZMulPath z_path(ZMulPath::kFast);
  testing::ScopedFpKaratsubaThreshold fp_thresh(1);
  testing::ScopedZKaratsubaThreshold z_thresh(1);

  XmlNode doc = MakeSmokeDocument();
  DeterministicPrf fp_seed = DeterministicPrf::FromString("e2e-fastpath-fp");
  auto fp_dep = MakeFpDeployment(doc, fp_seed);
  ASSERT_TRUE(fp_dep.ok()) << fp_dep.status().ToString();
  ExpectFastPathAnswersBitForBit(doc, *fp_dep, "Fp");

  DeterministicPrf z_seed = DeterministicPrf::FromString("e2e-fastpath-z");
  auto z_dep = MakeZDeployment(doc, z_seed);
  ASSERT_TRUE(z_dep.ok()) << z_dep.status().ToString();
  ExpectFastPathAnswersBitForBit(doc, *z_dep, "Z");
}

TEST(E2ESmokeTest, QueryCostsAreAccounted) {
  // The smoke loop also sanity-checks the §5 accounting: a lookup touches
  // at least the root, moves bytes both ways, and never visits more nodes
  // than the server holds.
  XmlNode doc = MakeSmokeDocument();
  DeterministicPrf seed = DeterministicPrf::FromString("e2e-smoke-stats");
  auto dep = MakeFpDeployment(doc, seed);
  ASSERT_TRUE(dep.ok()) << dep.status().ToString();
  TestSession<FpCyclotomicRing> session(&dep->client, dep->server.get());
  auto r = session.Lookup("c", VerifyMode::kVerified).value();
  EXPECT_FALSE(r.matches.empty());
  EXPECT_GT(r.stats.nodes_visited, 0u);
  EXPECT_LE(r.stats.nodes_visited, r.stats.total_server_nodes);
  EXPECT_GT(r.stats.transport.bytes_up, 0u);
  EXPECT_GT(r.stats.transport.bytes_down, 0u);
}

}  // namespace
}  // namespace polysse
