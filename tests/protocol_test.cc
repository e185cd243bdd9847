// Tests for the wire protocol codecs and the storage model formulas.
#include <gtest/gtest.h>

#include <random>

#include "core/outsource.h"
#include "core/protocol.h"
#include "core/storage_model.h"
#include "testing/deploy_helpers.h"
#include "xml/xml_generator.h"

namespace polysse {
namespace {

using testing::FpDeployment;
using testing::ZDeployment;
using testing::MakeFpDeployment;
using testing::MakeZDeployment;

TEST(ProtocolTest, EvalRequestRoundTrip) {
  EvalRequest req;
  req.points = {2, 7, 65535};
  req.node_ids = {0, 5, 1000000};
  ByteWriter w;
  req.Serialize(&w);
  ByteReader r(w.span());
  auto back = EvalRequest::Deserialize(&r);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->points, req.points);
  EXPECT_EQ(back->node_ids, req.node_ids);
  EXPECT_TRUE(r.AtEnd());
}

TEST(ProtocolTest, EvalResponseRoundTrip) {
  EvalResponse resp;
  resp.entries.push_back({7, {1, 2, 3}, {8, 9}, 42});
  resp.entries.push_back({8, {}, {}, 1});
  ByteWriter w;
  resp.Serialize(&w);
  ByteReader r(w.span());
  auto back = EvalResponse::Deserialize(&r);
  ASSERT_TRUE(back.ok());
  ASSERT_EQ(back->entries.size(), 2u);
  EXPECT_EQ(back->entries[0].node_id, 7);
  EXPECT_EQ(back->entries[0].values, (std::vector<uint64_t>{1, 2, 3}));
  EXPECT_EQ(back->entries[0].children, (std::vector<int32_t>{8, 9}));
  EXPECT_EQ(back->entries[0].subtree_size, 42);
  EXPECT_EQ(back->entries[1].subtree_size, 1);
}

TEST(ProtocolTest, FetchRoundTrip) {
  FetchRequest req;
  req.mode = FetchMode::kConstOnly;
  req.node_ids = {3, 1, 4};
  ByteWriter w;
  req.Serialize(&w);
  ByteReader r(w.span());
  auto back = FetchRequest::Deserialize(&r);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->mode, FetchMode::kConstOnly);
  EXPECT_EQ(back->node_ids, req.node_ids);

  FetchResponse resp;
  resp.entries.push_back({3, {0xDE, 0xAD}});
  resp.entries.push_back({1, {}});
  ByteWriter w2;
  resp.Serialize(&w2);
  ByteReader r2(w2.span());
  auto back2 = FetchResponse::Deserialize(&r2);
  ASSERT_TRUE(back2.ok());
  EXPECT_EQ(back2->entries[0].payload, (std::vector<uint8_t>{0xDE, 0xAD}));
  EXPECT_TRUE(back2->entries[1].payload.empty());
}

TEST(ProtocolTest, CodecRejectsGarbageAndTruncation) {
  std::mt19937_64 rng(2024);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<uint8_t> junk(rng() % 64);
    for (auto& b : junk) b = static_cast<uint8_t>(rng());
    {
      ByteReader r(junk);
      auto res = EvalRequest::Deserialize(&r);
      (void)res;  // must not crash; error or (lucky) parse both fine
    }
    {
      ByteReader r(junk);
      auto res = EvalResponse::Deserialize(&r);
      (void)res;
    }
    {
      ByteReader r(junk);
      auto res = FetchResponse::Deserialize(&r);
      (void)res;
    }
  }
  // Absurd length prefixes must be rejected, not allocated.
  ByteWriter w;
  w.PutVarint64(1ull << 40);  // claimed entry count
  ByteReader r(w.span());
  EXPECT_FALSE(EvalResponse::Deserialize(&r).ok());
}

TEST(ProtocolTest, FetchModeValidation) {
  ByteWriter w;
  w.PutU8(9);  // invalid mode
  w.PutVarint64(0);
  ByteReader r(w.span());
  EXPECT_FALSE(FetchRequest::Deserialize(&r).ok());
}

TEST(QueryStatsTest, VisitedFraction) {
  QueryStats s;
  EXPECT_EQ(s.VisitedFraction(), 0.0);
  s.total_server_nodes = 100;
  s.nodes_visited = 25;
  EXPECT_DOUBLE_EQ(s.VisitedFraction(), 0.25);
}

TEST(TransportCountersTest, Add) {
  TransportCounters a{10, 20, 1, 2};
  TransportCounters b{1, 2, 3, 4};
  a.Add(b);
  EXPECT_EQ(a.bytes_up, 11u);
  EXPECT_EQ(a.bytes_down, 22u);
  EXPECT_EQ(a.messages_up, 4);
  EXPECT_EQ(a.messages_down, 6);
}

// --------------------------------------------------------- storage model

TEST(StorageModelTest, AnalyticFormulas) {
  // Power-of-two p makes the bit counts exact: log2(16) = 4.
  EXPECT_EQ(PlaintextModelBytes(8, 16), 4u);           // 8*4 = 32 bits
  EXPECT_EQ(FpRingModelBytes(8, 16), 8u * 15 * 4 / 8); // n(p-1)log p
  // Z model: n^2 (d+1) log p bits = 10*10*3*4 = 1200 bits = 150 bytes.
  EXPECT_EQ(ZRingModelBytes(10, 16, 2), 150u);
}

TEST(StorageModelTest, ModelsAreMonotone) {
  EXPECT_LT(PlaintextModelBytes(10, 11), PlaintextModelBytes(100, 11));
  EXPECT_LT(FpRingModelBytes(10, 11), FpRingModelBytes(10, 101));
  EXPECT_LT(ZRingModelBytes(10, 11, 2), ZRingModelBytes(20, 11, 2));
  EXPECT_LT(ZRingModelBytes(10, 11, 2), ZRingModelBytes(10, 11, 4));
}

TEST(StorageModelTest, MeasuredReportsAreConsistent) {
  XmlGeneratorOptions gen;
  gen.num_nodes = 60;
  gen.tag_alphabet = 6;
  gen.seed = 55;
  XmlNode doc = GenerateXmlTree(gen);
  DeterministicPrf seed = DeterministicPrf::FromString("sm");

  FpDeployment fp = MakeFpDeployment(doc, seed).value();
  StorageReport r = MeasureStorage(fp.ring, doc, fp.store());
  EXPECT_EQ(r.n_nodes, 60u);
  EXPECT_GT(r.plaintext_xml_bytes, 0u);
  EXPECT_GT(r.server_measured_bytes, r.plaintext_model_bytes);
  EXPECT_GT(r.blowup_measured, 0.0);

  ZDeployment z = MakeZDeployment(doc, seed).value();
  StorageReport zr = MeasureStorage(z.ring, doc, z.store(), fp.ring.p());
  EXPECT_EQ(zr.ring_degree, 2u);
  EXPECT_GT(zr.max_coeff_bits, 0u);
  // Encrypted always bigger than the plaintext document.
  EXPECT_GT(zr.server_measured_bytes, zr.plaintext_xml_bytes);
}

TEST(StorageModelTest, HeaderAndRowFormat) {
  StorageReport r;
  r.n_nodes = 5;
  r.p = 5;
  r.ring_degree = 4;
  r.plaintext_xml_bytes = 100;
  r.server_measured_bytes = 500;
  r.server_model_bytes = 450;
  r.blowup_measured = 5.0;
  std::string header = StorageReportHeader();
  std::string row = StorageReportRow(r, "test");
  EXPECT_NE(header.find("measured"), std::string::npos);
  EXPECT_NE(row.find("test"), std::string::npos);
  EXPECT_NE(row.find("500"), std::string::npos);
}

}  // namespace
}  // namespace polysse
