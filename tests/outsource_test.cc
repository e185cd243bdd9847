// End-to-end pipeline tests for the public outsourcing API: raw XML string
// to query results, option validation, auto parameter selection, and
// higher-degree Z-ring deployments.
#include <gtest/gtest.h>

#include "core/outsource.h"
#include "core/query_session.h"
#include "nt/primes.h"
#include "testing/deploy_helpers.h"
#include "xml/xml_generator.h"
#include "xml/xml_parser.h"
#include "xpath/xpath.h"

namespace polysse {
namespace {

using testing::FpDeployment;
using testing::ZDeployment;
using testing::MakeFpDeployment;
using testing::MakeZDeployment;
using testing::TestSession;

TEST(FpOutsourceTest, AutoPrimeSelection) {
  // p = 0 auto-selects the smallest prime fitting the alphabet.
  XmlGeneratorOptions gen;
  gen.num_nodes = 40;
  gen.tag_alphabet = 12;
  gen.seed = 121;
  XmlNode doc = GenerateXmlTree(gen);
  DeterministicPrf seed = DeterministicPrf::FromString("auto-p");
  FpDeployment dep = MakeFpDeployment(doc, seed).value();
  EXPECT_EQ(dep.ring.p(), PrimeForAlphabet(doc.DistinctTagCount()));
  EXPECT_GE(dep.ring.MaxTagValue(), doc.DistinctTagCount());
}

TEST(FpOutsourceTest, ExplicitPrimeValidated) {
  XmlNode doc = MakeFig1Document();
  DeterministicPrf seed = DeterministicPrf::FromString("expl");
  FpOutsourceOptions opt;
  opt.p = 4;  // not prime
  EXPECT_FALSE(MakeFpDeployment(doc, seed, opt).ok());
  opt.p = 5;  // prime but alphabet of 3 tags needs p-2 >= 3
  EXPECT_TRUE(MakeFpDeployment(doc, seed, opt).ok());
  opt.p = 3;  // p-2 = 1 < 3 tags
  EXPECT_FALSE(MakeFpDeployment(doc, seed, opt).ok());
}

TEST(ZOutsourceTest, RejectsBadModulus) {
  XmlNode doc = MakeFig1Document();
  DeterministicPrf seed = DeterministicPrf::FromString("zbad");
  ZOutsourceOptions opt;
  opt.r = ZPoly({0, 0, 1});  // x^2, reducible
  EXPECT_FALSE(MakeZDeployment(doc, seed, opt).ok());
  opt.r = ZPoly({1, 2});  // non-monic
  EXPECT_FALSE(MakeZDeployment(doc, seed, opt).ok());
}

TEST(ZOutsourceTest, SafeValueBudgetEnforced) {
  XmlNode doc = MakeFig1Document();
  DeterministicPrf seed = DeterministicPrf::FromString("budget");
  ZOutsourceOptions opt;
  opt.max_tag_value = 3;  // far too few safe values for 3 tags
  EXPECT_FALSE(MakeZDeployment(doc, seed, opt).ok());
}

TEST(ZOutsourceTest, HigherDegreeModulusEndToEnd) {
  // Degree-4 cyclotomic modulus: more wrap-free nodes, bigger residues.
  XmlNode doc = MakeMedicalRecordsDocument(6, 131);
  DeterministicPrf seed = DeterministicPrf::FromString("deg4");
  ZOutsourceOptions opt;
  opt.r = ZPoly({1, 1, 1, 1, 1});
  ZDeployment dep = MakeZDeployment(doc, seed, opt).value();
  EXPECT_EQ(dep.ring.degree(), 4);
  TestSession<ZQuotientRing> session(&dep.client, dep.server.get());
  for (const char* tag : {"patient", "drug", "lab"}) {
    auto r = session.Lookup(tag, VerifyMode::kVerified);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    auto oracle =
        EvalXPathPaths(doc, XPathQuery::Parse(std::string("//") + tag).value());
    EXPECT_EQ(r->matches.size(), oracle.size()) << tag;
  }
}

TEST(PipelineTest, RawXmlStringToQueryResults) {
  const char* kXml = R"(
    <?xml version="1.0"?>
    <catalog>
      <item sku="a1"><price>10</price></item>
      <item sku="a2"><price>20</price><discount/></item>
      <!-- seasonal -->
      <bundle><item sku="a3"><price>5</price></item></bundle>
    </catalog>)";
  auto doc = ParseXml(kXml);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  DeterministicPrf seed = DeterministicPrf::FromString("pipeline");
  FpDeployment dep = MakeFpDeployment(*doc, seed).value();
  TestSession<FpCyclotomicRing> session(&dep.client, dep.server.get());

  auto items = session.Lookup("item", VerifyMode::kVerified).value();
  EXPECT_EQ(items.matches.size(), 3u);
  auto nested = session
                    .EvaluateXPath(XPathQuery::Parse("//bundle//price").value(),
                                   XPathStrategy::kAllAtOnce,
                                   VerifyMode::kVerified)
                    .value();
  ASSERT_EQ(nested.matches.size(), 1u);
  EXPECT_EQ(nested.matches[0].path, "2/0/0");
}

TEST(PipelineTest, TagsWithNamespacePunctuation) {
  // Name chars : - . _ are legal XML and must flow through the whole stack.
  auto doc = ParseXml(
      "<ns:root><ns:a-b/><c.d_e/><ns:a-b/></ns:root>");
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  DeterministicPrf seed = DeterministicPrf::FromString("ns");
  FpDeployment dep = MakeFpDeployment(*doc, seed).value();
  TestSession<FpCyclotomicRing> session(&dep.client, dep.server.get());
  EXPECT_EQ(session.Lookup("ns:a-b", VerifyMode::kVerified)->matches.size(),
            2u);
  EXPECT_EQ(session.Lookup("c.d_e", VerifyMode::kVerified)->matches.size(),
            1u);
}

TEST(PipelineTest, LargeAlphabetSmallDocument) {
  // 60 distinct tags in a 60-node tree: every node a different tag; p jumps
  // accordingly and every lookup finds exactly one node.
  XmlNode root("t0");
  XmlNode* cur = &root;
  for (int i = 1; i < 60; ++i) {
    // Built with += rather than "t" + to_string(...): the operator+
    // rvalue-insert path trips a GCC 12 -Wrestrict false positive at -O3.
    std::string tag = "t";
    tag += std::to_string(i);
    cur = &cur->AddChild(tag);
  }
  DeterministicPrf seed = DeterministicPrf::FromString("wide");
  FpDeployment dep = MakeFpDeployment(root, seed).value();
  EXPECT_GE(dep.ring.p(), 62u);
  TestSession<FpCyclotomicRing> session(&dep.client, dep.server.get());
  for (int i : {0, 17, 42, 59}) {
    std::string tag = "t";
    tag += std::to_string(i);
    auto r = session.Lookup(tag, VerifyMode::kVerified).value();
    ASSERT_EQ(r.matches.size(), 1u) << i;
  }
  // Path documents have no pruning opportunity for the deepest tag — the
  // whole spine is alive — but shallow misses prune hard.
  auto deep = session.Lookup("t59", VerifyMode::kOptimistic).value();
  EXPECT_EQ(deep.stats.nodes_visited, 60u);
}

TEST(PipelineTest, DistinctSeedsIsolateDeployments) {
  // A client key from one deployment must not decode another's store:
  // evaluations combine to garbage and verified lookups reject or miss.
  XmlNode doc = MakeFig1Document();
  FpDeployment dep_a =
      MakeFpDeployment(doc, DeterministicPrf::FromString("seed-A")).value();
  FpDeployment dep_b =
      MakeFpDeployment(doc, DeterministicPrf::FromString("seed-B")).value();
  // Client A against server B (same ring/p, same tag names — but B's map
  // may differ; use A's).
  auto client_a = ClientContext<FpCyclotomicRing>::SeedOnly(
      dep_a.ring, dep_a.client.tag_map(), DeterministicPrf::FromString("seed-A"));
  TestSession<FpCyclotomicRing> cross(&client_a, dep_b.server.get());
  auto r = cross.Lookup("client", VerifyMode::kVerified);
  if (r.ok()) {
    // Shares don't align: combined polynomials are random, so either no
    // zeros survive or reconstruction rejects. Matching both real nodes
    // by chance in F_5 is possible but must not be the common case; accept
    // any outcome except a *verified* clean result identical to the real
    // one AND passing reconstruction.
    for (const auto& m : r->matches) {
      EXPECT_TRUE(m.path == "0" || m.path == "1" || m.path == "" ||
                  m.path == "0/0" || m.path == "1/0");
    }
  } else {
    EXPECT_EQ(r.status().code(), StatusCode::kVerificationFailed);
  }
}

}  // namespace
}  // namespace polysse
