// End-to-end tests of the query protocol over Z[x]/(r(x)): the exact Fig. 6
// run, oracle equivalence with safe tag values, and the evaluation-filter
// false-positive phenomenon with unsafe mappings (removed by verification).
#include <gtest/gtest.h>

#include <set>

#include "core/outsource.h"
#include "core/query_session.h"
#include "testing/deploy_helpers.h"
#include "testing/store_test_access.h"
#include "xml/xml_generator.h"
#include "xpath/xpath.h"

namespace polysse {
namespace {

using testing::ZDeployment;
using testing::MakeZDeployment;
using testing::OneDocRegistry;
using testing::TestSession;

std::vector<std::string> MatchPaths(const LookupResult& r) {
  std::vector<std::string> out;
  for (const auto& m : r.matches) out.push_back(m.path);
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<std::string> OraclePaths(const XmlNode& doc, const std::string& q) {
  std::vector<std::string> out;
  for (const auto& p : EvalXPathPaths(doc, XPathQuery::Parse(q).value()))
    out.push_back(PathToString(p));
  std::sort(out.begin(), out.end());
  return out;
}

TEST(QueryZTest, Fig6ClientLookup) {
  // Fig. 6: the same //client query, now in Z[x]/(x^2+1) with arithmetic
  // mod r(2) = 5. Sum tree: names -> 3, clients -> 0, root -> 0.
  ZQuotientRing ring = ZQuotientRing::Create(ZPoly({1, 0, 1})).value();
  TagMap map = TagMap::FromExplicit(Fig1TagMapping()).value();
  DeterministicPrf prf = DeterministicPrf::FromString("fig6");
  PolyTree<ZQuotientRing> data =
      BuildPolyTree(ring, map, MakeFig1Document()).value();
  SharedTrees<ZQuotientRing> shares = SplitShares(ring, data, prf);
  auto server = OneDocRegistry(ring, std::move(shares.server));
  auto client = ClientContext<ZQuotientRing>::SeedOnly(ring, map, prf);
  TestSession<ZQuotientRing> session(&client, server.get());

  auto result = session.Lookup("client", VerifyMode::kVerified).value();
  EXPECT_EQ(MatchPaths(result), (std::vector<std::string>{"0", "1"}));
  EXPECT_EQ(result.stats.zero_candidates, 3u);  // root + both clients
}

TEST(QueryZTest, SafeMappingOracleEquivalence) {
  for (uint64_t seed : {31ull, 32ull, 33ull}) {
    XmlGeneratorOptions gen;
    gen.num_nodes = 60;
    gen.tag_alphabet = 8;
    gen.seed = seed;
    XmlNode doc = GenerateXmlTree(gen);
    DeterministicPrf prf =
        DeterministicPrf::FromString("zsweep" + std::to_string(seed));
    ZDeployment dep = MakeZDeployment(doc, prf).value();
    TestSession<ZQuotientRing> session(&dep.client, dep.server.get());
    for (const std::string& tag : doc.DistinctTags()) {
      auto verified = session.Lookup(tag, VerifyMode::kVerified).value();
      EXPECT_EQ(MatchPaths(verified), OraclePaths(doc, "//" + tag)) << tag;
      EXPECT_EQ(verified.stats.false_positives_removed, 0u)
          << "safe mapping must not produce filter false positives";
      auto trusted =
          session.Lookup(tag, VerifyMode::kTrustedConstOnly).value();
      EXPECT_EQ(MatchPaths(trusted), OraclePaths(doc, "//" + tag)) << tag;
    }
  }
}

TEST(QueryZTest, XPathStrategiesMatchOracle) {
  XmlNode doc = MakeMedicalRecordsDocument(8, 41);
  DeterministicPrf prf = DeterministicPrf::FromString("zxpath");
  ZDeployment dep = MakeZDeployment(doc, prf).value();
  TestSession<ZQuotientRing> session(&dep.client, dep.server.get());
  for (const std::string& q :
       {std::string("//prescription"), std::string("//patient/record"),
        std::string("//record//drug"),
        std::string("/hospital/patient//dose")}) {
    auto query = XPathQuery::Parse(q).value();
    auto oracle = OraclePaths(doc, q);
    auto l2r = session.EvaluateXPath(query, XPathStrategy::kLeftToRight,
                                     VerifyMode::kVerified).value();
    auto aao = session.EvaluateXPath(query, XPathStrategy::kAllAtOnce,
                                     VerifyMode::kVerified).value();
    EXPECT_EQ(MatchPaths(l2r), oracle) << q;
    EXPECT_EQ(MatchPaths(aao), oracle) << q;
  }
}

TEST(QueryZTest, UnsafeMappingCreatesFilterFalsePositives) {
  // tag 'a' -> 2, tag 'b' -> 7: (2 - 7) = -5 = 0 mod r(2)=5, so every b-leaf
  // *looks* like a match for //a at the evaluation-filter level.
  XmlNode doc("root");
  doc.AddChild("a");
  doc.AddChild("b");
  doc.AddChild("b");
  TagMap map =
      TagMap::FromExplicit({{"root", 1}, {"a", 2}, {"b", 7}}).value();
  ZQuotientRing ring = ZQuotientRing::Create(ZPoly({1, 0, 1})).value();
  DeterministicPrf prf = DeterministicPrf::FromString("unsafe");
  PolyTree<ZQuotientRing> data = BuildPolyTree(ring, map, doc).value();
  SharedTrees<ZQuotientRing> shares = SplitShares(ring, data, prf);
  auto server = OneDocRegistry(ring, std::move(shares.server));
  auto client = ClientContext<ZQuotientRing>::SeedOnly(ring, map, prf);
  TestSession<ZQuotientRing> session(&client, server.get());

  // Optimistic mode reports the b-leaves as (false) matches.
  auto optimistic = session.Lookup("a", VerifyMode::kOptimistic).value();
  EXPECT_EQ(optimistic.matches.size(), 3u);  // a + two false b's

  // Verified mode reconstructs tags and keeps only the real a.
  auto verified = session.Lookup("a", VerifyMode::kVerified).value();
  EXPECT_EQ(MatchPaths(verified), (std::vector<std::string>{"0"}));
  EXPECT_EQ(verified.stats.false_positives_removed, 2u);
}

TEST(QueryZTest, VerifiedModeDetectsTampering) {
  XmlNode doc = MakeFig1Document();
  DeterministicPrf prf = DeterministicPrf::FromString("zcheat");
  ZDeployment dep = MakeZDeployment(doc, prf).value();
  TestSession<ZQuotientRing> session(&dep.client, dep.server.get());
  const uint64_t e = dep.client.tag_map().Value("client").value();

  // Find the server node for path "0" (first client element). Stored-state
  // corruption (vs in-flight tampering, which FaultInjectingEndpoint
  // covers) needs the test-only backdoor.
  auto& tree = ServerStoreTestAccess::MutableTree(dep.store());
  for (auto& node : tree.nodes) {
    if (node.path == "0") {
      node.poly = dep.ring.Add(
          node.poly, dep.ring.XMinus(e).value());  // keeps eval at e zero
      break;
    }
  }
  auto verified = session.Lookup("client", VerifyMode::kVerified);
  ASSERT_FALSE(verified.ok());
  EXPECT_EQ(verified.status().code(), StatusCode::kVerificationFailed);
}

TEST(QueryZTest, CoefficientGrowthVisibleInBandwidth) {
  // Bigger documents mean bigger Z-ring coefficients; fetching a root
  // polynomial must cost visibly more bytes for a bigger tree.
  DeterministicPrf prf = DeterministicPrf::FromString("growth");
  XmlGeneratorOptions small_gen;
  small_gen.num_nodes = 10;
  small_gen.tag_alphabet = 4;
  small_gen.seed = 51;
  XmlGeneratorOptions big_gen = small_gen;
  big_gen.num_nodes = 160;

  auto run = [&](const XmlGeneratorOptions& gen) {
    XmlNode doc = GenerateXmlTree(gen);
    ZDeployment dep = MakeZDeployment(doc, prf).value();
    size_t max_bytes = 0;
    for (const auto& node : dep.store().tree().nodes) {
      max_bytes = std::max(max_bytes, dep.ring.SerializedSize(node.poly));
    }
    return max_bytes;
  };
  size_t small_bytes = run(small_gen);
  size_t big_bytes = run(big_gen);
  EXPECT_GT(big_bytes, small_bytes * 4) << "coefficients must grow with n";
}

TEST(QueryZTest, SeedOnlyClientAgreesWithMaterialized) {
  XmlNode doc = MakeMedicalRecordsDocument(5, 61);
  DeterministicPrf prf = DeterministicPrf::FromString("zthin");
  ZQuotientRing ring = ZQuotientRing::Create(ZPoly({1, 0, 1})).value();
  TagMap::Options mopt;
  mopt.allowed_values = ring.SafeTagValues(4096, 4096);
  TagMap map = TagMap::Build(doc.DistinctTags(), mopt, prf).value();
  PolyTree<ZQuotientRing> data = BuildPolyTree(ring, map, doc).value();
  SharedTrees<ZQuotientRing> shares = SplitShares(ring, data, prf);

  auto server1 = OneDocRegistry(ring, shares.server);
  auto server2 = OneDocRegistry(ring, shares.server);
  auto thin = ClientContext<ZQuotientRing>::SeedOnly(ring, map, prf);
  auto fat = ClientContext<ZQuotientRing>::Materialized(
      ring, map, prf, std::move(shares.client));
  TestSession<ZQuotientRing> s1(&thin, server1.get());
  TestSession<ZQuotientRing> s2(&fat, server2.get());
  for (const char* tag : {"patient", "drug", "insurance"}) {
    auto r1 = s1.Lookup(tag, VerifyMode::kVerified).value();
    auto r2 = s2.Lookup(tag, VerifyMode::kVerified).value();
    EXPECT_EQ(MatchPaths(r1), MatchPaths(r2)) << tag;
  }
}

}  // namespace
}  // namespace polysse
