// Tests for the three baselines of experiment E11: plaintext scan,
// naive download-everything, SWP-style linear encrypted scan.
#include <gtest/gtest.h>

#include "baseline/naive_download.h"
#include "baseline/plaintext_search.h"
#include "baseline/swp_linear.h"
#include "core/outsource.h"
#include "core/query_session.h"
#include "testing/deploy_helpers.h"
#include "xml/xml_generator.h"

namespace polysse {
namespace {

using testing::FpDeployment;
using testing::MakeFpDeployment;
using testing::TestSession;

std::vector<std::string> Sorted(std::vector<std::string> v) {
  std::sort(v.begin(), v.end());
  return v;
}

std::vector<std::string> OraclePaths(const XmlNode& doc,
                                     const std::string& tag) {
  auto r = PlaintextLookup(doc, tag);
  return Sorted(r.match_paths);
}

TEST(PlaintextBaselineTest, LookupScansEverything) {
  XmlNode doc = MakeMedicalRecordsDocument(10, 71);
  auto r = PlaintextLookup(doc, "patient");
  EXPECT_EQ(r.match_paths.size(), 10u);
  EXPECT_EQ(r.stats.nodes_scanned, doc.SubtreeSize());
}

TEST(PlaintextBaselineTest, XPathAgreesWithEvaluator) {
  XmlNode doc = MakeMedicalRecordsDocument(6, 72);
  auto q = XPathQuery::Parse("//record//drug").value();
  auto r = PlaintextXPath(doc, q);
  EXPECT_EQ(Sorted(r.match_paths).size(), EvalXPathPaths(doc, q).size());
}

TEST(NaiveDownloadTest, MatchesOracleAndPaysFullTransfer) {
  XmlGeneratorOptions gen;
  gen.num_nodes = 50;
  gen.tag_alphabet = 6;
  gen.seed = 73;
  XmlNode doc = GenerateXmlTree(gen);
  DeterministicPrf prf = DeterministicPrf::FromString("naive");
  FpDeployment dep = MakeFpDeployment(doc, prf).value();

  for (const std::string& tag : doc.DistinctTags()) {
    auto r = NaiveDownloadLookup(&dep.client, dep.server.get(),
                                 dep.store().tree(), tag);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(Sorted(r->match_paths), OraclePaths(doc, tag)) << tag;
    EXPECT_EQ(r->stats.nodes_scanned, doc.SubtreeSize());
    // Entire store crosses the wire.
    EXPECT_GE(r->stats.bytes_down, dep.store().PersistedBytes() / 2);
  }
}

TEST(NaiveDownloadTest, DwarfsInteractiveProtocolBandwidth) {
  XmlGeneratorOptions gen;
  gen.num_nodes = 300;
  gen.tag_alphabet = 12;
  gen.seed = 74;
  XmlNode doc = GenerateXmlTree(gen);
  DeterministicPrf prf = DeterministicPrf::FromString("naive2");
  FpDeployment dep = MakeFpDeployment(doc, prf).value();
  const std::string rare = doc.DistinctTags().back();

  TestSession<FpCyclotomicRing> session(&dep.client, dep.server.get());
  auto smart = session.Lookup(rare, VerifyMode::kVerified).value();
  auto naive = NaiveDownloadLookup(&dep.client, dep.server.get(),
                                   dep.store().tree(), rare).value();
  EXPECT_EQ(Sorted([&] {
              std::vector<std::string> v;
              for (const auto& m : smart.matches) v.push_back(m.path);
              return v;
            }()),
            Sorted(naive.match_paths));
  EXPECT_LT(smart.stats.transport.bytes_down, naive.stats.bytes_down);
}

TEST(SwpLinearTest, FindsExactMatches) {
  XmlNode doc = MakeMedicalRecordsDocument(8, 75);
  SwpLinearClient client(DeterministicPrf::FromString("swp"));
  SwpLinearServer server = client.Outsource(doc);
  EXPECT_EQ(server.size(), doc.SubtreeSize());

  for (const char* tag : {"patient", "drug", "hospital", "absent-tag"}) {
    auto r = client.Lookup(server, tag);
    EXPECT_EQ(Sorted(r.match_paths), OraclePaths(doc, tag)) << tag;
    // Linear scan: every entry touched, one HMAC each.
    EXPECT_EQ(r.stats.nodes_scanned, server.size());
    EXPECT_EQ(r.stats.crypto_ops, server.size());
  }
}

TEST(SwpLinearTest, TrapdoorsAreTagSpecificAndKeyed) {
  SwpLinearClient a(DeterministicPrf::FromString("ka"));
  SwpLinearClient b(DeterministicPrf::FromString("kb"));
  EXPECT_NE(a.Trapdoor("x"), a.Trapdoor("y"));
  EXPECT_NE(a.Trapdoor("x"), b.Trapdoor("x"));
}

TEST(SwpLinearTest, WrongKeyFindsNothing) {
  XmlNode doc = MakeFig1Document();
  SwpLinearClient owner(DeterministicPrf::FromString("owner"));
  SwpLinearClient thief(DeterministicPrf::FromString("thief"));
  SwpLinearServer server = owner.Outsource(doc);
  EXPECT_EQ(owner.Lookup(server, "client").match_paths.size(), 2u);
  EXPECT_TRUE(thief.Lookup(server, "client").match_paths.empty());
}

TEST(SwpLinearTest, SaltsPreventCrossEntryLinkage) {
  // Two nodes with the same tag must have different stored tokens.
  XmlNode doc("r");
  doc.AddChild("same");
  doc.AddChild("same");
  SwpLinearClient client(DeterministicPrf::FromString("salt"));
  SwpLinearServer server = client.Outsource(doc);
  // Indirect check: search matches both, so tokens differ yet both match.
  auto r = client.Lookup(server, "same");
  EXPECT_EQ(r.match_paths.size(), 2u);
  EXPECT_GT(server.PersistedBytes(), 3 * 64u);
}

}  // namespace
}  // namespace polysse
