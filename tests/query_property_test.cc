// Parameterized property sweeps over the full query stack: every document
// shape x ring x verify mode must agree with the plaintext oracle; batched
// lookups must agree with single lookups and cost less; the §4.2 share split
// must round-trip on arbitrary documents; a one-document content service
// must return exactly the matched elements' decrypted text. Documents come
// from the shared tests/testing/ builders so shapes are named and reusable.
#include <gtest/gtest.h>

#include <memory>
#include <set>

#include "core/outsource.h"
#include "core/query_session.h"
#include "index/secure_collection.h"
#include "testing/deploy_helpers.h"
#include "testing/query_helpers.h"
#include "testing/share_roundtrip.h"
#include "testing/xml_builders.h"
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

using testing::MakeChainDocument;
using testing::MakeRandomDocument;
using testing::MakeStarDocument;
using testing::SortedMatchPaths;
using testing::XmlTreeBuilder;

std::vector<std::string> OraclePaths(const XmlNode& doc, const std::string& q) {
  std::vector<std::string> out;
  for (const auto& p : EvalXPathPaths(doc, XPathQuery::Parse(q).value()))
    out.push_back(PathToString(p));
  std::sort(out.begin(), out.end());
  return out;
}

// ------------------------------------------------- degenerate documents --

struct ShapeCase {
  const char* name;
  XmlNode (*make)();
};

class DegenerateShapes : public ::testing::TestWithParam<ShapeCase> {};

TEST_P(DegenerateShapes, AllTagsAllModesMatchOracle) {
  XmlNode doc = GetParam().make();
  DeterministicPrf seed = DeterministicPrf::FromString(GetParam().name);
  FpDeployment dep = MakeFpDeployment(doc, seed).value();
  TestSession<FpCyclotomicRing> session(&dep.client, dep.server.get());
  for (const std::string& tag : doc.DistinctTags()) {
    auto oracle = OraclePaths(doc, "//" + tag);
    for (VerifyMode mode :
         {VerifyMode::kVerified, VerifyMode::kTrustedConstOnly}) {
      auto r = session.Lookup(tag, mode);
      ASSERT_TRUE(r.ok()) << tag << ": " << r.status().ToString();
      EXPECT_EQ(SortedMatchPaths(r->matches), oracle)
          << GetParam().name << " //" << tag << " mode "
          << static_cast<int>(mode);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, DegenerateShapes,
    ::testing::Values(
        ShapeCase{"single", [] { return XmlNode("only"); }},
        ShapeCase{"path", [] { return MakeChainDocument(6, "lvl"); }},
        ShapeCase{"star", [] { return MakeStarDocument(8, "hub", "s"); }},
        ShapeCase{"samename",
                  [] {
                    XmlTreeBuilder b("a");
                    b.Open("a").Leaf("a").Close().Leaf("a");
                    return b.Build();
                  }},
        ShapeCase{"binary",
                  [] {
                    XmlTreeBuilder b("r");
                    b.Open("l").Leaf("l2").Leaf("r2").Close();
                    b.Open("rr").Leaf("l2").Leaf("r2").Close();
                    return b.Build();
                  }},
        ShapeCase{"mixed",
                  [] {
                    XmlTreeBuilder b("x");
                    b.Open("y").Open("x").Leaf("y").Close().Close();
                    b.Leaf("y");
                    b.Open("z").Leaf("x").Close();
                    return b.Build();
                  }}),
    [](const ::testing::TestParamInfo<ShapeCase>& info) {
      return info.param.name;
    });

// --------------------------------------- share split on arbitrary docs --

class ShareRoundtripSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ShareRoundtripSweep, SplitReconstructsOnRandomDocuments) {
  // The §4.2 invariant on generator output, in both rings: split shares
  // recombine to the data tree, the client share is PRF-rederivable, and
  // Theorems 1/2 still recover every node's tag.
  XmlNode doc = MakeRandomDocument(/*num_nodes=*/60, /*tag_alphabet=*/9,
                                   /*seed=*/GetParam());
  DeterministicPrf prf =
      DeterministicPrf::FromString("sweep" + std::to_string(GetParam()));

  FpCyclotomicRing fp = FpCyclotomicRing::Create(101).value();
  TagMap::Options fp_opts;
  fp_opts.max_value = fp.MaxTagValue();
  TagMap fp_map = TagMap::Build(doc.DistinctTags(), fp_opts, prf).value();
  EXPECT_TRUE(testing::ShareRoundtripOk(fp, fp_map, doc, prf));

  ZQuotientRing z = ZQuotientRing::Create(ZPoly({1, 0, 1})).value();
  TagMap::Options z_opts;
  z_opts.max_value = 4096;
  z_opts.allowed_values = z.SafeTagValues(4096, 4096);
  TagMap z_map = TagMap::Build(doc.DistinctTags(), z_opts, prf).value();
  EXPECT_TRUE(testing::ShareRoundtripOk(z, z_map, doc, prf));
}

INSTANTIATE_TEST_SUITE_P(Seeds, ShareRoundtripSweep,
                         ::testing::Values(21, 22, 23));

// ------------------------------------------------------ repeated queries --

TEST(QuerySessionPropertyTest, RepeatedQueriesAreDeterministic) {
  XmlNode doc = MakeMedicalRecordsDocument(12, 101);
  DeterministicPrf seed = DeterministicPrf::FromString("repeat");
  FpDeployment dep = MakeFpDeployment(doc, seed).value();
  TestSession<FpCyclotomicRing> session(&dep.client, dep.server.get());
  auto first = session.Lookup("record", VerifyMode::kVerified).value();
  for (int i = 0; i < 5; ++i) {
    auto again = session.Lookup("record", VerifyMode::kVerified).value();
    EXPECT_EQ(SortedMatchPaths(again.matches),
              SortedMatchPaths(first.matches));
    EXPECT_EQ(again.stats.nodes_visited, first.stats.nodes_visited);
    EXPECT_EQ(again.stats.transport.bytes_down,
              first.stats.transport.bytes_down);
  }
}

// ---------------------------------------------------------- LookupMany --

class MultiLookupSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MultiLookupSweep, AgreesWithSingleLookupsAndCostsLess) {
  XmlNode doc = MakeRandomDocument(/*num_nodes=*/150, /*tag_alphabet=*/8,
                                   /*seed=*/GetParam());
  DeterministicPrf seed =
      DeterministicPrf::FromString("multi" + std::to_string(GetParam()));
  FpDeployment dep = MakeFpDeployment(doc, seed).value();
  TestSession<FpCyclotomicRing> session(&dep.client, dep.server.get());

  std::vector<std::string> tags = doc.DistinctTags();
  tags.push_back("unmapped-tag");  // must yield an empty entry, not an error
  auto multi = session.LookupMany(tags, VerifyMode::kVerified);
  ASSERT_TRUE(multi.ok()) << multi.status().ToString();
  ASSERT_EQ(multi->per_tag.size(), tags.size());

  size_t single_bytes_total = 0;
  for (size_t i = 0; i < tags.size(); ++i) {
    auto single = session.Lookup(tags[i], VerifyMode::kVerified).value();
    EXPECT_EQ(SortedMatchPaths(multi->per_tag[i].matches),
              SortedMatchPaths(single.matches))
        << tags[i];
    single_bytes_total += single.stats.transport.bytes_down;
  }
  // The shared walk must beat issuing the lookups one by one.
  EXPECT_LT(multi->stats.transport.bytes_down, single_bytes_total);
  EXPECT_TRUE(multi->per_tag.back().matches.empty());  // unmapped tag
}

INSTANTIATE_TEST_SUITE_P(Seeds, MultiLookupSweep,
                         ::testing::Values(1, 2, 3, 4));

TEST(MultiLookupTest, DuplicateTagsShareWork) {
  XmlNode doc = MakeFig1Document();
  DeterministicPrf seed = DeterministicPrf::FromString("dup");
  FpDeployment dep = MakeFpDeployment(doc, seed).value();
  TestSession<FpCyclotomicRing> session(&dep.client, dep.server.get());
  auto multi = session
                   .LookupMany({"client", "client", "name"},
                               VerifyMode::kVerified)
                   .value();
  EXPECT_EQ(SortedMatchPaths(multi.per_tag[0].matches),
            SortedMatchPaths(multi.per_tag[1].matches));
  EXPECT_EQ(multi.per_tag[2].matches.size(), 2u);
}

TEST(MultiLookupTest, OptimisticModePartitionsCandidates) {
  XmlNode doc = MakeFig1Document();
  DeterministicPrf seed = DeterministicPrf::FromString("opt");
  FpDeployment dep = MakeFpDeployment(doc, seed).value();
  TestSession<FpCyclotomicRing> session(&dep.client, dep.server.get());
  auto multi =
      session.LookupMany({"customers", "client"}, VerifyMode::kOptimistic)
          .value();
  // customers: the root is zero with no zero child -> one definite match.
  EXPECT_EQ(multi.per_tag[0].matches.size(), 1u);
  EXPECT_TRUE(multi.per_tag[0].possible.empty());
  // client: two definite matches (the client nodes) plus the root as an
  // inner zero ("may or may not represent a correct answer").
  EXPECT_EQ(multi.per_tag[1].matches.size(), 2u);
  ASSERT_EQ(multi.per_tag[1].possible.size(), 1u);
  EXPECT_EQ(multi.per_tag[1].possible[0].path, "");
}

// ---------------------------------------- one-document content service ----

/// A content service holding `doc` alone, as document 0, with the field
/// sized for its alphabet.
Result<std::unique_ptr<SecureCollectionService>> OneDocService(
    const XmlNode& doc, const DeterministicPrf& seed) {
  ASSIGN_OR_RETURN(
      std::unique_ptr<SecureCollectionService> service,
      SecureCollectionService::Create(
          seed, {},
          {.p = FpCollection::AutoPrime(doc.DistinctTags().size(), {})}));
  RETURN_IF_ERROR(service->Add(0, doc));
  return service;
}

TEST(SecureDocumentTest, QueryReturnsDecryptedContentOfMatches) {
  XmlTreeBuilder b("inbox");
  b.Open("mail").Leaf("subject", "hello").Leaf("body", "first body").Close();
  b.Open("mail").Leaf("subject", "again").Leaf("body", "second body").Close();
  XmlNode doc = b.Build();
  auto service = OneDocService(doc, DeterministicPrf::FromString("mailbox"));
  ASSERT_TRUE(service.ok()) << service.status().ToString();

  auto bodies = (*service)->Query("//body");
  ASSERT_TRUE(bodies.ok()) << bodies.status().ToString();
  ASSERT_EQ(bodies->size(), 1u);
  const std::vector<ContentMatch>& body_texts = bodies->at(0);
  ASSERT_EQ(body_texts.size(), 2u);
  EXPECT_EQ(body_texts[0].text, "first body");
  EXPECT_EQ(body_texts[1].text, "second body");
  EXPECT_GT((*service)->last_payload_bytes(), 0u);

  auto subjects = (*service)->Lookup("subject");
  ASSERT_TRUE(subjects.ok());
  ASSERT_EQ(subjects->at(0).size(), 2u);
  EXPECT_EQ(subjects->at(0)[0].text, "hello");
  EXPECT_EQ(subjects->at(0)[1].text, "again");

  auto none = (*service)->Query("//missing");
  ASSERT_TRUE(none.ok());
  EXPECT_TRUE(none->empty());
}

TEST(SecureDocumentTest, MedicalCorpusContentRoundTrip) {
  XmlNode doc = MakeMedicalRecordsDocument(10, 111);
  auto service = OneDocService(doc, DeterministicPrf::FromString("medsvc"));
  ASSERT_TRUE(service.ok());
  auto drugs = (*service)->Query("//prescription/drug");
  ASSERT_TRUE(drugs.ok());
  ASSERT_EQ(drugs->size(), 1u);
  // Cross-check every decrypted text against the plaintext document.
  for (const ContentMatch& m : drugs->at(0)) {
    std::vector<int> path;
    for (const char* p = m.path.c_str(); *p;) {
      path.push_back(std::atoi(p));
      while (*p && *p != '/') ++p;
      if (*p == '/') ++p;
    }
    const XmlNode* n = doc.AtPath(path);
    ASSERT_NE(n, nullptr);
    EXPECT_EQ(n->text(), m.text);
    EXPECT_EQ(n->name(), "drug");
  }
  EXPECT_GT((*service)->server_structure_bytes(), 0u);
  EXPECT_GT((*service)->server_payload_bytes(), 0u);
}

// ------------------------------------ cross-ring equivalence (property) --

class CrossRingSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CrossRingSweep, BothRingsAnswerIdentically) {
  XmlNode doc = MakeRandomDocument(/*num_nodes=*/90, /*tag_alphabet=*/7,
                                   /*seed=*/GetParam(), /*max_fanout=*/3);
  DeterministicPrf seed =
      DeterministicPrf::FromString("xr" + std::to_string(GetParam()));
  FpDeployment fp = MakeFpDeployment(doc, seed).value();
  ZDeployment z = MakeZDeployment(doc, seed).value();
  TestSession<FpCyclotomicRing> fs(&fp.client, fp.server.get());
  TestSession<ZQuotientRing> zs(&z.client, z.server.get());
  for (const std::string& tag : doc.DistinctTags()) {
    auto fr = fs.Lookup(tag, VerifyMode::kVerified).value();
    auto zr = zs.Lookup(tag, VerifyMode::kVerified).value();
    EXPECT_EQ(SortedMatchPaths(fr.matches), SortedMatchPaths(zr.matches)) << tag;
    // Both rings must also visit the same node set: pruning is a property
    // of the data, not the ring.
    EXPECT_EQ(fr.stats.nodes_visited, zr.stats.nodes_visited) << tag;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CrossRingSweep,
                         ::testing::Values(11, 12, 13, 14, 15));

}  // namespace
}  // namespace polysse
