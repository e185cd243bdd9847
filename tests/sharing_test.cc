// Tests for the §4.2 share split: additivity (Figs. 3 & 4 invariant),
// seed-only re-derivation, hiding properties, multi-server splits.
#include <gtest/gtest.h>

#include "core/client_context.h"
#include "core/multi_server.h"
#include "core/sharing.h"
#include "mpc/shamir.h"
#include "xml/xml_generator.h"

namespace polysse {
namespace {

TagMap Fig1Map() { return TagMap::FromExplicit(Fig1TagMapping()).value(); }

TEST(SharingFpTest, Fig3Invariant_SharesSumToData) {
  // Fig. 3: "the sum of a polynomial at the client side with the
  // corresponding polynomial at the server side equals the original".
  FpCyclotomicRing ring = FpCyclotomicRing::Create(5).value();
  PolyTree<FpCyclotomicRing> data =
      BuildPolyTree(ring, Fig1Map(), MakeFig1Document()).value();
  DeterministicPrf prf = DeterministicPrf::FromString("fig3");
  SharedTrees<FpCyclotomicRing> shares = SplitShares(ring, data, prf);
  ASSERT_EQ(shares.client.size(), 5u);
  ASSERT_EQ(shares.server.size(), 5u);
  for (size_t i = 0; i < data.size(); ++i) {
    EXPECT_TRUE(ring.Equal(
        ring.Add(shares.client.nodes[i].poly, shares.server.nodes[i].poly),
        data.nodes[i].poly))
        << "node " << i;
    // Shares scrub plaintext.
    EXPECT_EQ(shares.client.nodes[i].tag_value, 0u);
    EXPECT_EQ(shares.server.nodes[i].tag_value, 0u);
  }
}

TEST(SharingZTest, Fig4Invariant_SharesSumToData) {
  ZQuotientRing ring = ZQuotientRing::Create(ZPoly({1, 0, 1})).value();
  PolyTree<ZQuotientRing> data =
      BuildPolyTree(ring, Fig1Map(), MakeFig1Document()).value();
  DeterministicPrf prf = DeterministicPrf::FromString("fig4");
  SharedTrees<ZQuotientRing> shares = SplitShares(ring, data, prf);
  for (size_t i = 0; i < data.size(); ++i) {
    EXPECT_TRUE(ring.Equal(
        ring.Add(shares.client.nodes[i].poly, shares.server.nodes[i].poly),
        data.nodes[i].poly))
        << "node " << i;
  }
  // The root must still sum to 265x + 45 (Fig. 2(b)/Fig. 4 invariant).
  EXPECT_EQ(ring.ToString(ring.Add(shares.client.nodes[0].poly,
                                   shares.server.nodes[0].poly)),
            "265x + 45");
}

TEST(SharingTest, SeedOnlyRederivationMatchesSplit) {
  // The thin client's re-derived share must equal the share produced at
  // split time — node by node, for both rings.
  XmlGeneratorOptions gen;
  gen.num_nodes = 40;
  gen.seed = 8;
  XmlNode doc = GenerateXmlTree(gen);
  DeterministicPrf prf = DeterministicPrf::FromString("seed-only");

  FpCyclotomicRing fp = FpCyclotomicRing::Create(13).value();
  TagMap::Options opt;
  opt.max_value = 11;
  TagMap map = TagMap::Build(doc.DistinctTags(), opt, prf).value();
  PolyTree<FpCyclotomicRing> data = BuildPolyTree(fp, map, doc).value();
  SharedTrees<FpCyclotomicRing> shares = SplitShares(fp, data, prf);
  for (const auto& node : shares.client.nodes) {
    EXPECT_TRUE(fp.Equal(DeriveClientShare(fp, prf, node.path, {}), node.poly));
  }
  // The walk's allocation-free entry point gives the same shares as dense
  // rows, for a thin client and for one holding the share tree.
  const auto thin = ClientContext<FpCyclotomicRing>::SeedOnly(fp, map, prf);
  const auto fat = ClientContext<FpCyclotomicRing>::Materialized(
      fp, map, prf, shares.client);
  std::vector<uint64_t> row(fp.DenseCoeffCount());
  for (const auto& node : shares.client.nodes) {
    std::vector<uint64_t> want = node.poly.coeffs();
    want.resize(fp.DenseCoeffCount(), 0);
    for (const auto* client : {&thin, &fat}) {
      std::fill(row.begin(), row.end(), 99);
      ASSERT_TRUE(client->ShareRowForLabel(ShareLabel(node.path), row).ok());
      EXPECT_EQ(row, want) << node.path;
    }
  }

  ZQuotientRing zr = ZQuotientRing::Create(ZPoly({1, 0, 1})).value();
  TagMap::Options zopt;
  zopt.max_value = 60;
  TagMap zmap = TagMap::Build(doc.DistinctTags(), zopt, prf).value();
  PolyTree<ZQuotientRing> zdata = BuildPolyTree(zr, zmap, doc).value();
  ShareSplitOptions sso;
  sso.z_coeff_bits = 192;
  SharedTrees<ZQuotientRing> zshares = SplitShares(zr, zdata, prf, sso);
  for (const auto& node : zshares.client.nodes) {
    EXPECT_TRUE(
        zr.Equal(DeriveClientShare(zr, prf, node.path, sso), node.poly));
  }
}

TEST(SharingTest, DifferentSeedsGiveDifferentServerTrees) {
  FpCyclotomicRing ring = FpCyclotomicRing::Create(11).value();
  PolyTree<FpCyclotomicRing> data =
      BuildPolyTree(ring,
                    TagMap::FromExplicit({{"customers", 3}, {"client", 2},
                                          {"name", 4}})
                        .value(),
                    MakeFig1Document())
          .value();
  auto s1 = SplitShares(ring, data, DeterministicPrf::FromString("s1"));
  auto s2 = SplitShares(ring, data, DeterministicPrf::FromString("s2"));
  int diff = 0;
  for (size_t i = 0; i < data.size(); ++i) {
    diff += !ring.Equal(s1.server.nodes[i].poly, s2.server.nodes[i].poly);
  }
  EXPECT_EQ(diff, static_cast<int>(data.size()));  // all differ w.h.p.
}

TEST(SharingFpTest, ServerShareDistributionIsUniformish) {
  // Perfect hiding: for fixed data, the server share is uniform because the
  // client share is. Chi-squared-lite: every field value appears in the
  // constant coefficient across many seeds.
  FpCyclotomicRing ring = FpCyclotomicRing::Create(7).value();
  PolyTree<FpCyclotomicRing> data =
      BuildPolyTree(ring, TagMap::FromExplicit({{"a", 3}}).value(),
                    XmlNode("a"))
          .value();
  std::vector<int> hist(7, 0);
  for (int seed = 0; seed < 700; ++seed) {
    // Built with += rather than "u" + to_string(...): the operator+
    // rvalue-insert path trips a GCC 12 -Wrestrict false positive at -O3.
    std::string label = "u";
    label += std::to_string(seed);
    auto shares =
        SplitShares(ring, data, DeterministicPrf::FromString(label));
    ++hist[shares.server.nodes[0].poly.coeff(0)];
  }
  for (int v = 0; v < 7; ++v) EXPECT_GT(hist[v], 40) << "value " << v;
}

TEST(SharingZTest, CoeffBitsControlShareWidth) {
  ZQuotientRing ring = ZQuotientRing::Create(ZPoly({1, 0, 1})).value();
  DeterministicPrf prf = DeterministicPrf::FromString("width");
  ShareSplitOptions narrow;
  narrow.z_coeff_bits = 64;
  ShareSplitOptions wide;
  wide.z_coeff_bits = 512;
  ZPoly n = DeriveClientShare(ring, prf, "0", narrow);
  ZPoly w = DeriveClientShare(ring, prf, "0", wide);
  EXPECT_LE(n.MaxCoeffBits(), 64u);
  EXPECT_GT(w.MaxCoeffBits(), 256u);
}

TEST(MultiServerTest, AdditiveKServerSplitSums) {
  FpCyclotomicRing ring = FpCyclotomicRing::Create(11).value();
  XmlGeneratorOptions gen;
  gen.num_nodes = 25;
  gen.tag_alphabet = 8;  // must fit into {1..9} = {1..p-2}
  gen.seed = 15;
  XmlNode doc = GenerateXmlTree(gen);
  TagMap::Options opt;
  opt.max_value = 9;
  DeterministicPrf prf = DeterministicPrf::FromString("kserver");
  TagMap map = TagMap::Build(doc.DistinctTags(), opt, prf).value();
  PolyTree<FpCyclotomicRing> data = BuildPolyTree(ring, map, doc).value();

  for (int k : {1, 2, 4}) {
    auto servers = SplitSharesAcrossServers(ring, data, prf, k).value();
    ASSERT_EQ(servers.size(), static_cast<size_t>(k));
    for (size_t i = 0; i < data.size(); ++i) {
      FpPoly sum = DeriveClientShare(ring, prf, data.nodes[i].path, {});
      for (int s = 0; s < k; ++s) sum = ring.Add(sum, servers[s].nodes[i].poly);
      EXPECT_TRUE(ring.Equal(sum, data.nodes[i].poly)) << "k=" << k;
    }
    // Evaluations combine the same way: client + sum of servers.
    const PrimeField& f = ring.field();
    for (uint64_t e = 1; e <= 9; ++e) {
      uint64_t sum =
          ring.EvalAt(DeriveClientShare(ring, prf, "", {}), e).value();
      for (int s = 0; s < k; ++s)
        sum = f.Add(sum, ring.EvalAt(servers[s].nodes[0].poly, e).value());
      EXPECT_EQ(sum, ring.EvalAt(data.nodes[0].poly, e).value());
    }
  }
}

TEST(MultiServerTest, ShamirTOfNReconstructsEvaluations) {
  FpCyclotomicRing ring = FpCyclotomicRing::Create(101).value();
  XmlGeneratorOptions gen;
  gen.num_nodes = 15;
  gen.seed = 16;
  XmlNode doc = GenerateXmlTree(gen);
  TagMap::Options opt;
  opt.max_value = 99;
  DeterministicPrf prf = DeterministicPrf::FromString("shamir-ms");
  TagMap map = TagMap::Build(doc.DistinctTags(), opt, prf).value();
  PolyTree<FpCyclotomicRing> data = BuildPolyTree(ring, map, doc).value();

  ChaChaRng rng = ChaChaRng::FromString("shamir-ms-rng");
  auto servers = SplitSharesShamir(ring, data, 3, 5, rng).value();
  ASSERT_EQ(servers.size(), 5u);
  // Any 3 of the 5 share trees (server s sits at x = s+1) reconstruct
  // every node's evaluation through the Lagrange weights at zero.
  const PrimeField& f = ring.field();
  int subsets = 0;
  for (int a = 0; a < 5; ++a) {
    for (int b = a + 1; b < 5; ++b) {
      for (int c = b + 1; c < 5; ++c) {
        const std::vector<int> ids = {a, b, c};
        const std::vector<uint64_t> xs = {a + 1ull, b + 1ull, c + 1ull};
        std::vector<uint64_t> w = LagrangeWeightsAtZero(f, xs).value();
        for (size_t node = 0; node < data.size(); ++node) {
          for (uint64_t e : {1ull, 7ull, 50ull}) {
            uint64_t combined = 0;
            for (size_t i = 0; i < ids.size(); ++i) {
              const uint64_t v =
                  ring.EvalAt(servers[ids[i]].nodes[node].poly, e).value();
              combined = f.Add(combined, f.Mul(w[i], v));
            }
            EXPECT_EQ(combined, ring.EvalAt(data.nodes[node].poly, e).value())
                << "servers " << a << b << c << " node " << node << " e " << e;
          }
        }
        ++subsets;
      }
    }
  }
  EXPECT_EQ(subsets, 10);
}

TEST(MultiServerTest, ShamirValidation) {
  FpCyclotomicRing ring = FpCyclotomicRing::Create(11).value();
  PolyTree<FpCyclotomicRing> data =
      BuildPolyTree(ring, TagMap::FromExplicit({{"a", 3}}).value(),
                    XmlNode("a"))
          .value();
  ChaChaRng rng = ChaChaRng::FromString("v");
  EXPECT_FALSE(SplitSharesShamir(ring, data, 6, 5, rng).ok());  // t > n
  EXPECT_FALSE(SplitSharesShamir(ring, data, 0, 5, rng).ok());
  EXPECT_EQ(SplitSharesShamir(ring, data, 2, 3, rng).value().size(), 3u);
  // Combining needs distinct, nonzero party points.
  const std::vector<uint64_t> repeated = {1, 1};
  const std::vector<uint64_t> zero = {0, 2};
  EXPECT_FALSE(LagrangeWeightsAtZero(ring.field(), repeated).ok());
  EXPECT_FALSE(LagrangeWeightsAtZero(ring.field(), zero).ok());
}

}  // namespace
}  // namespace polysse
