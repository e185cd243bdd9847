// End-to-end tests of the §4.3 query protocol over F_p[x]/(x^{p-1}-1):
// the exact Fig. 5 run, oracle equivalence on random documents for every
// verify mode and XPath strategy, pruning behaviour, bandwidth modes,
// cheating-server detection, and thin-vs-fat client equivalence.
#include <gtest/gtest.h>

#include <set>

#include "core/endpoint.h"
#include "core/outsource.h"
#include "core/query_session.h"
#include "testing/deploy_helpers.h"
#include "xml/xml_generator.h"
#include "xpath/xpath.h"

namespace polysse {
namespace {

using testing::FpDeployment;
using testing::MakeFpDeployment;
using testing::OneDocRegistry;
using testing::TestSession;

std::vector<std::string> MatchPaths(const LookupResult& r) {
  std::vector<std::string> out;
  for (const auto& m : r.matches) out.push_back(m.path);
  return out;
}

std::vector<std::string> OraclePaths(const XmlNode& doc, const std::string& q) {
  std::vector<std::string> out;
  for (const auto& p : EvalXPathPaths(doc, XPathQuery::Parse(q).value()))
    out.push_back(PathToString(p));
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<std::string> Sorted(std::vector<std::string> v) {
  std::sort(v.begin(), v.end());
  return v;
}

// ------------------------------------------------------------ Fig. 5 run

TEST(QueryFpTest, Fig5ClientLookup) {
  // Paper setup: Fig. 1 doc, p = 5, the Fig. 1(b) mapping, query //client
  // (x = 2). Expected: both client nodes match; name leaves evaluate to 3
  // (dead); root and clients evaluate to 0.
  FpCyclotomicRing ring = FpCyclotomicRing::Create(5).value();
  TagMap map = TagMap::FromExplicit(Fig1TagMapping()).value();
  DeterministicPrf prf = DeterministicPrf::FromString("fig5");
  PolyTree<FpCyclotomicRing> data =
      BuildPolyTree(ring, map, MakeFig1Document()).value();
  SharedTrees<FpCyclotomicRing> shares = SplitShares(ring, data, prf);
  auto server = OneDocRegistry(ring, std::move(shares.server));
  auto client = ClientContext<FpCyclotomicRing>::SeedOnly(ring, map, prf);
  TestSession<FpCyclotomicRing> session(&client, server.get());

  auto result = session.Lookup("client", VerifyMode::kOptimistic).value();
  EXPECT_EQ(MatchPaths(result), (std::vector<std::string>{"0", "1"}));
  EXPECT_TRUE(result.possible.empty() ||
              result.possible[0].path == "");  // root may be ambiguous
  // All 5 nodes visited (the whole alive region + its frontier).
  EXPECT_EQ(result.stats.nodes_visited, 5u);
  EXPECT_EQ(result.stats.zero_candidates, 3u);  // root + both clients
  EXPECT_GT(result.stats.transport.bytes_down, 0u);

  // Verified mode gives the same answer and resolves the root's ambiguity.
  auto verified = session.Lookup("client", VerifyMode::kVerified).value();
  EXPECT_EQ(MatchPaths(verified), (std::vector<std::string>{"0", "1"}));
  EXPECT_TRUE(verified.possible.empty());
  EXPECT_GT(verified.stats.reconstructions, 0u);
}

TEST(QueryFpTest, Fig5NameLookupFindsLeaves) {
  FpCyclotomicRing ring = FpCyclotomicRing::Create(5).value();
  TagMap map = TagMap::FromExplicit(Fig1TagMapping()).value();
  DeterministicPrf prf = DeterministicPrf::FromString("fig5b");
  PolyTree<FpCyclotomicRing> data =
      BuildPolyTree(ring, map, MakeFig1Document()).value();
  SharedTrees<FpCyclotomicRing> shares = SplitShares(ring, data, prf);
  auto server = OneDocRegistry(ring, std::move(shares.server));
  auto client = ClientContext<FpCyclotomicRing>::SeedOnly(ring, map, prf);
  TestSession<FpCyclotomicRing> session(&client, server.get());

  // NOTE: name maps to 4 = p-1 in the paper's own figure; the query still
  // works because evaluation at 4 is well defined.
  auto result = session.Lookup("name", VerifyMode::kVerified).value();
  EXPECT_EQ(MatchPaths(result), (std::vector<std::string>{"0/0", "1/0"}));
}

TEST(QueryFpTest, UnmappedTagShortCircuits) {
  XmlNode doc = MakeFig1Document();
  DeterministicPrf prf = DeterministicPrf::FromString("um");
  FpDeployment dep = MakeFpDeployment(doc, prf).value();
  TestSession<FpCyclotomicRing> session(&dep.client, dep.server.get());
  auto result = session.Lookup("nonexistent", VerifyMode::kVerified).value();
  EXPECT_TRUE(result.matches.empty());
  EXPECT_EQ(result.stats.transport.messages_up, 0u);  // never contacted server
}

// ------------------------------------------- oracle equivalence sweeps --

struct SweepCase {
  uint64_t seed;
  size_t num_nodes;
  int fanout;
  size_t alphabet;
};

class FpOracleSweep : public ::testing::TestWithParam<SweepCase> {};

TEST_P(FpOracleSweep, LookupMatchesPlaintextOracle) {
  const SweepCase& c = GetParam();
  XmlGeneratorOptions gen;
  gen.num_nodes = c.num_nodes;
  gen.max_fanout = c.fanout;
  gen.tag_alphabet = c.alphabet;
  gen.seed = c.seed;
  XmlNode doc = GenerateXmlTree(gen);
  DeterministicPrf prf =
      DeterministicPrf::FromString("sweep" + std::to_string(c.seed));
  FpDeployment dep = MakeFpDeployment(doc, prf).value();
  TestSession<FpCyclotomicRing> session(&dep.client, dep.server.get());

  for (const std::string& tag : doc.DistinctTags()) {
    auto oracle = OraclePaths(doc, "//" + tag);

    auto verified = session.Lookup(tag, VerifyMode::kVerified).value();
    EXPECT_EQ(Sorted(MatchPaths(verified)), oracle) << "//" << tag;
    EXPECT_EQ(verified.stats.false_positives_removed, 0u);  // F_p is exact

    auto trusted = session.Lookup(tag, VerifyMode::kTrustedConstOnly).value();
    EXPECT_EQ(Sorted(MatchPaths(trusted)), oracle) << "//" << tag;

    // Optimistic: matches are sound (subset of oracle), and every oracle
    // answer is among matches + possible.
    auto opt = session.Lookup(tag, VerifyMode::kOptimistic).value();
    std::set<std::string> oracle_set(oracle.begin(), oracle.end());
    std::set<std::string> covered;
    for (const auto& m : opt.matches) {
      EXPECT_TRUE(oracle_set.count(m.path)) << m.path;
      covered.insert(m.path);
    }
    for (const auto& m : opt.possible) covered.insert(m.path);
    for (const auto& p : oracle) EXPECT_TRUE(covered.count(p)) << p;
  }
}

TEST_P(FpOracleSweep, XPathBothStrategiesMatchOracle) {
  const SweepCase& c = GetParam();
  XmlGeneratorOptions gen;
  gen.num_nodes = c.num_nodes;
  gen.max_fanout = c.fanout;
  gen.tag_alphabet = c.alphabet;
  gen.seed = c.seed + 1000;
  XmlNode doc = GenerateXmlTree(gen);
  DeterministicPrf prf =
      DeterministicPrf::FromString("xp" + std::to_string(c.seed));
  FpDeployment dep = MakeFpDeployment(doc, prf).value();
  TestSession<FpCyclotomicRing> session(&dep.client, dep.server.get());

  std::vector<std::string> tags = doc.DistinctTags();
  auto tag = [&](size_t i) { return tags[i % tags.size()]; };
  std::vector<std::string> queries = {
      "//" + tag(0),
      "/" + doc.name(),
      "//" + tag(1) + "/" + tag(2),
      "//" + tag(0) + "//" + tag(1),
      "/" + doc.name() + "/" + tag(3) + "//" + tag(1),
      "//" + tag(2) + "//" + tag(2),  // repeated name
      "//" + tag(1) + "/" + tag(1) + "/" + tag(4),
  };
  for (const std::string& q : queries) {
    auto query = XPathQuery::Parse(q).value();
    auto oracle = OraclePaths(doc, q);
    auto l2r = session.EvaluateXPath(query, XPathStrategy::kLeftToRight,
                                     VerifyMode::kVerified)
                   .value();
    EXPECT_EQ(Sorted(MatchPaths(l2r)), oracle) << q;
    auto aao = session.EvaluateXPath(query, XPathStrategy::kAllAtOnce,
                                     VerifyMode::kVerified)
                   .value();
    EXPECT_EQ(Sorted(MatchPaths(aao)), oracle) << q;
    // The all-at-once filter must not touch more nodes than left-to-right
    // plus the (tiny) overhead of multi-point requests on shared prefixes.
    EXPECT_LE(aao.stats.nodes_visited, l2r.stats.nodes_visited + 2) << q;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, FpOracleSweep,
    ::testing::Values(SweepCase{1, 30, 3, 5}, SweepCase{2, 80, 2, 8},
                      SweepCase{3, 80, 6, 4}, SweepCase{4, 150, 4, 12},
                      SweepCase{5, 300, 3, 20}, SweepCase{6, 60, 8, 3}));

// --------------------------------------------------------------- pruning

TEST(QueryFpTest, DeadBranchesAreNeverVisited) {
  // A wide document whose needle lives in exactly one of 20 branches: the
  // server must evaluate the root, the 20 children, and only the needle
  // branch's spine — nothing inside the 19 dead branches.
  XmlNode root("root");
  for (int i = 0; i < 20; ++i) {
    XmlNode branch("branch");
    XmlNode* cur = &branch;
    for (int d = 0; d < 8; ++d) cur = &cur->AddChild("filler");
    if (i == 7) cur->AddChild("needle");
    root.AddChild(std::move(branch));
  }
  DeterministicPrf prf = DeterministicPrf::FromString("prune");
  FpDeployment dep = MakeFpDeployment(root, prf).value();
  TestSession<FpCyclotomicRing> session(&dep.client, dep.server.get());

  auto result = session.Lookup("needle", VerifyMode::kOptimistic).value();
  ASSERT_EQ(result.matches.size(), 1u);
  EXPECT_EQ(result.stats.total_server_nodes, root.SubtreeSize());
  // Alive region: root + needle spine (9 nodes); frontier: 20 branches +
  // spine children. Everything else is pruned.
  EXPECT_LE(result.stats.nodes_visited, 40u);
  EXPECT_LT(result.stats.VisitedFraction(), 0.3);
  // A query for a tag on every path visits everything.
  auto all = session.Lookup("filler", VerifyMode::kOptimistic).value();
  EXPECT_GT(all.stats.VisitedFraction(), 0.9);
}

// ----------------------------------------------------- bandwidth modes --

TEST(QueryFpTest, TrustedConstOnlySavesBandwidth) {
  XmlGeneratorOptions gen;
  gen.num_nodes = 60;
  gen.tag_alphabet = 6;
  gen.seed = 17;
  XmlNode doc = GenerateXmlTree(gen);
  DeterministicPrf prf = DeterministicPrf::FromString("bw");
  FpOutsourceOptions opt;
  opt.p = 101;  // wrap-free for the whole document (n = 60 < 99)
  FpDeployment dep = MakeFpDeployment(doc, prf, opt).value();
  TestSession<FpCyclotomicRing> session(&dep.client, dep.server.get());

  const std::string tag = doc.DistinctTags()[1];
  auto verified = session.Lookup(tag, VerifyMode::kVerified).value();
  auto trusted = session.Lookup(tag, VerifyMode::kTrustedConstOnly).value();
  EXPECT_EQ(Sorted(MatchPaths(verified)), Sorted(MatchPaths(trusted)));
  if (verified.stats.reconstructions > 0) {
    EXPECT_EQ(trusted.stats.trusted_fallbacks, 0u);
    EXPECT_LT(trusted.stats.transport.bytes_down,
              verified.stats.transport.bytes_down);
  }
}

// ----------------------------------------------- cheating server checks --

TEST(QueryFpTest, VerifiedModeDetectsTamperedPolynomial) {
  XmlNode doc = MakeFig1Document();
  DeterministicPrf prf = DeterministicPrf::FromString("cheat");
  FpDeployment dep = MakeFpDeployment(doc, prf).value();
  const uint64_t e = dep.client.tag_map().Value("client").value();

  // A cheating server rewrites fetched shares in flight: node 1 (a matching
  // client node) gains c*(x - e), so every evaluation the pruning saw stays
  // consistent but the reconstructed polynomial is wrong.
  LoopbackEndpoint honest(dep.server.get());
  FaultConfig faults;
  const FpCyclotomicRing ring = dep.ring;
  faults.tamper_fetch = [&ring, e](FetchResponse& resp) {
    for (FetchEntry& entry : resp.entries) {
      if (entry.node_id != 1) continue;
      ByteReader r(entry.payload);
      FpPoly poly = ring.Deserialize(&r).value();
      poly = ring.Add(poly, ring.XMinus(e).value().ScalarMul(3));
      ByteWriter w;
      ring.Serialize(poly, &w);
      entry.payload = w.Take();
    }
  };
  FaultInjectingEndpoint cheater(&honest, std::move(faults));
  QuerySession<FpCyclotomicRing> session(&dep.client,
                                         EndpointGroup::TwoParty(&cheater));

  auto optimistic = session.Lookup("client", VerifyMode::kOptimistic);
  ASSERT_TRUE(optimistic.ok());  // optimistic mode never fetches: fooled
  EXPECT_EQ(optimistic->matches.size(), 2u);

  auto verified = session.Lookup("client", VerifyMode::kVerified);
  ASSERT_FALSE(verified.ok());
  EXPECT_EQ(verified.status().code(), StatusCode::kVerificationFailed);
}

TEST(QueryFpTest, VerifiedModeDetectsTamperedEvaluation) {
  // Shifting reported evaluations makes the zero-tree wrong; reconstruction
  // of an affected candidate must fail loudly rather than return a bogus
  // match. (Suppressed answers - tampering that makes a match evaluate
  // nonzero - are undetectable by any scheme that prunes.)
  XmlNode doc = MakeFig1Document();
  DeterministicPrf prf = DeterministicPrf::FromString("cheat2");
  FpDeployment dep = MakeFpDeployment(doc, prf).value();

  LoopbackEndpoint honest(dep.server.get());
  FaultConfig faults;
  const uint64_t p = dep.ring.p();
  faults.tamper_eval = [p](EvalResponse& resp) {
    for (EvalEntry& entry : resp.entries) {
      if (entry.node_id != 0) continue;
      for (uint64_t& v : entry.values) v = (v + 1) % p;
    }
  };
  FaultInjectingEndpoint cheater(&honest, std::move(faults));
  QuerySession<FpCyclotomicRing> session(&dep.client,
                                         EndpointGroup::TwoParty(&cheater));

  auto verified = session.Lookup("client", VerifyMode::kVerified);
  // Either the root now prunes the whole tree (empty, no error), or its
  // reconstruction fails. Both are acceptable; silent wrong answers are not.
  if (verified.ok()) {
    EXPECT_TRUE(verified->matches.empty());
  } else {
    EXPECT_EQ(verified.status().code(), StatusCode::kVerificationFailed);
  }
}

// ------------------------------------------------ thin vs fat client ----

TEST(QueryFpTest, SeedOnlyAndMaterializedClientsAgree) {
  XmlGeneratorOptions gen;
  gen.num_nodes = 70;
  gen.tag_alphabet = 7;
  gen.seed = 23;
  XmlNode doc = GenerateXmlTree(gen);
  DeterministicPrf prf = DeterministicPrf::FromString("thin");

  FpCyclotomicRing ring = FpCyclotomicRing::Create(11).value();
  TagMap::Options mopt;
  mopt.max_value = 9;
  TagMap map = TagMap::Build(doc.DistinctTags(), mopt, prf).value();
  PolyTree<FpCyclotomicRing> data = BuildPolyTree(ring, map, doc).value();
  SharedTrees<FpCyclotomicRing> shares = SplitShares(ring, data, prf);

  auto server1 = OneDocRegistry(ring, shares.server);
  auto server2 = OneDocRegistry(ring, shares.server);
  auto thin = ClientContext<FpCyclotomicRing>::SeedOnly(ring, map, prf);
  auto fat = ClientContext<FpCyclotomicRing>::Materialized(
      ring, map, prf, std::move(shares.client));
  EXPECT_TRUE(thin.seed_only());
  EXPECT_FALSE(fat.seed_only());
  // Thin client state is a few hundred bytes; fat client holds ~n polys.
  EXPECT_LT(thin.PersistedBytes(), 1000u);
  EXPECT_GT(fat.PersistedBytes(), thin.PersistedBytes() * 5);

  TestSession<FpCyclotomicRing> s1(&thin, server1.get());
  TestSession<FpCyclotomicRing> s2(&fat, server2.get());
  for (const std::string& tag : doc.DistinctTags()) {
    auto r1 = s1.Lookup(tag, VerifyMode::kVerified).value();
    auto r2 = s2.Lookup(tag, VerifyMode::kVerified).value();
    EXPECT_EQ(MatchPaths(r1), MatchPaths(r2)) << tag;
    EXPECT_EQ(r1.stats.transport.bytes_down, r2.stats.transport.bytes_down);
  }
}

// --------------------------------------------------------- scale smoke --

TEST(QueryFpTest, MediumDocumentEndToEnd) {
  XmlGeneratorOptions gen;
  gen.num_nodes = 2000;
  gen.tag_alphabet = 30;
  gen.max_fanout = 5;
  gen.seed = 99;
  XmlNode doc = GenerateXmlTree(gen);
  DeterministicPrf prf = DeterministicPrf::FromString("med");
  FpDeployment dep = MakeFpDeployment(doc, prf).value();
  TestSession<FpCyclotomicRing> session(&dep.client, dep.server.get());
  for (const std::string& tag :
       {doc.DistinctTags()[0], doc.DistinctTags()[15]}) {
    auto result = session.Lookup(tag, VerifyMode::kVerified).value();
    EXPECT_EQ(Sorted(MatchPaths(result)), OraclePaths(doc, "//" + tag));
  }
}

}  // namespace
}  // namespace polysse
