// End-to-end tests of the polysse::Engine facade and the transport-
// abstracted query stack:
//  * every verify mode × {2-party, additive k-server, Shamir t-of-n} runs
//    through ServerEndpoints with answers identical to the pre-redesign
//    2-party path;
//  * batched RunQueries issues strictly fewer EvalRequests than running
//    the same queries sequentially (asserted via server Stats);
//  * a FaultInjectingEndpoint cheating server is rejected end-to-end by
//    kVerified;
//  * Shamir deployments fail over dead servers and refuse cleanly below
//    the threshold;
//  * Save/Open round-trips two-party AND multi-server (additive, Shamir)
//    deployments through the persistence layer;
//  * the pooled fan-out executor returns answers bit-identical to inline
//    sequential dispatch.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "core/engine.h"
#include "testing/deploy_helpers.h"
#include "testing/query_helpers.h"
#include "xml/xml_generator.h"

namespace polysse {
namespace {

using testing::FpDeployment;
using testing::ZDeployment;
using testing::MakeFpDeployment;
using testing::MakeZDeployment;
using testing::TestSession;

using testing::Sorted;
using testing::SortedMatchPaths;

XmlNode MakeDoc(uint64_t seed, size_t num_nodes = 80, size_t alphabet = 8) {
  XmlGeneratorOptions gen;
  gen.num_nodes = num_nodes;
  gen.tag_alphabet = alphabet;
  gen.max_fanout = 4;
  gen.seed = seed;
  return GenerateXmlTree(gen);
}

constexpr VerifyMode kAllModes[] = {VerifyMode::kOptimistic,
                                    VerifyMode::kVerified,
                                    VerifyMode::kTrustedConstOnly};

/// Pre-redesign oracle: a 2-party QuerySession wired straight over a
/// ServerStore through one loopback endpoint (the historical
/// serialize-every-message behavior, bit for bit).
template <typename Ring, typename Deployment>
std::vector<LookupResult> LegacyAnswers(Deployment& dep,
                                        const std::vector<std::string>& tags,
                                        VerifyMode mode) {
  TestSession<Ring> session(&dep.client, &dep.server);
  std::vector<LookupResult> out;
  for (const std::string& tag : tags)
    out.push_back(session.Lookup(tag, mode).value());
  return out;
}

template <typename EnginePtr>
void ExpectSameAnswers(EnginePtr& engine,
                       const std::vector<std::string>& tags, VerifyMode mode,
                       const std::vector<LookupResult>& oracle,
                       const char* label) {
  for (size_t i = 0; i < tags.size(); ++i) {
    auto r = engine->Lookup(tags[i], mode);
    ASSERT_TRUE(r.ok()) << label << " //" << tags[i] << ": "
                        << r.status().ToString();
    EXPECT_EQ(SortedMatchPaths(r->matches), SortedMatchPaths(oracle[i].matches))
        << label << " //" << tags[i] << " mode " << static_cast<int>(mode);
    EXPECT_EQ(SortedMatchPaths(r->possible),
              SortedMatchPaths(oracle[i].possible))
        << label << " //" << tags[i] << " mode " << static_cast<int>(mode);
  }
}

TEST(EngineTest, FpAllSchemesMatchPreRedesignAnswers) {
  XmlNode doc = MakeDoc(71);
  DeterministicPrf seed = DeterministicPrf::FromString("engine-fp");
  FpDeployment legacy = MakeFpDeployment(doc, seed).value();
  const std::vector<std::string> tags = doc.DistinctTags();

  struct Case {
    const char* label;
    FpEngine::Deploy deploy;
  };
  std::vector<Case> cases;
  cases.push_back({"2party-loopback", {}});
  Case additive{"additive-3", {}};
  additive.deploy.scheme = ShareScheme::kAdditive;
  additive.deploy.num_servers = 3;
  cases.push_back(additive);
  Case shamir{"shamir-3of5", {}};
  shamir.deploy.scheme = ShareScheme::kShamir;
  shamir.deploy.num_servers = 5;
  shamir.deploy.threshold = 3;
  cases.push_back(shamir);

  for (const Case& c : cases) {
    auto engine = FpEngine::Outsource(doc, seed, c.deploy);
    ASSERT_TRUE(engine.ok()) << c.label << ": " << engine.status().ToString();
    for (VerifyMode mode : kAllModes) {
      auto oracle = LegacyAnswers<FpCyclotomicRing>(legacy, tags, mode);
      ExpectSameAnswers(*engine, tags, mode, oracle, c.label);
    }
  }
}

TEST(EngineTest, ZBothSchemesMatchPreRedesignAnswers) {
  XmlNode doc = MakeDoc(72, 40, 5);
  DeterministicPrf seed = DeterministicPrf::FromString("engine-z");
  ZDeployment legacy = MakeZDeployment(doc, seed).value();
  const std::vector<std::string> tags = doc.DistinctTags();

  for (int k : {1, 3}) {
    ZEngine::Deploy deploy;
    deploy.scheme = k == 1 ? ShareScheme::kTwoParty : ShareScheme::kAdditive;
    deploy.num_servers = k;
    auto engine = ZEngine::Outsource(doc, seed, deploy);
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    for (VerifyMode mode : kAllModes) {
      auto oracle = LegacyAnswers<ZQuotientRing>(legacy, tags, mode);
      ExpectSameAnswers(*engine, tags, mode, oracle,
                        k == 1 ? "z-2party" : "z-additive-3");
    }
  }
}

TEST(EngineTest, ShamirRequiresFpRing) {
  XmlNode doc = MakeDoc(73, 20, 4);
  DeterministicPrf seed = DeterministicPrf::FromString("engine-z-shamir");
  ZEngine::Deploy deploy;
  deploy.scheme = ShareScheme::kShamir;
  deploy.num_servers = 3;
  deploy.threshold = 2;
  auto engine = ZEngine::Outsource(doc, seed, deploy);
  ASSERT_FALSE(engine.ok());
  EXPECT_EQ(engine.status().code(), StatusCode::kUnimplemented);
}

TEST(EngineTest, TwoPartyLoopbackPreservesWireCosts) {
  // The facade's default transport is the historical serialize-everything
  // path: byte counters must equal the legacy session's exactly.
  XmlNode doc = MakeDoc(74);
  DeterministicPrf seed = DeterministicPrf::FromString("engine-bytes");
  FpDeployment legacy = MakeFpDeployment(doc, seed).value();
  TestSession<FpCyclotomicRing> session(&legacy.client, &legacy.server);
  auto engine = FpEngine::Outsource(doc, seed).value();

  for (const std::string& tag : doc.DistinctTags()) {
    auto l = session.Lookup(tag, VerifyMode::kVerified).value();
    auto e = engine->Lookup(tag, VerifyMode::kVerified).value();
    EXPECT_EQ(l.stats.transport.bytes_up, e.stats.transport.bytes_up) << tag;
    EXPECT_EQ(l.stats.transport.bytes_down, e.stats.transport.bytes_down)
        << tag;
    EXPECT_EQ(l.stats.rounds, e.stats.rounds) << tag;
    EXPECT_EQ(l.stats.server_evals, e.stats.server_evals) << tag;
  }
}

TEST(EngineTest, BatchedRunQueriesIssuesFewerEvalRequests) {
  XmlNode doc = MakeDoc(75, 300, 20);
  DeterministicPrf seed = DeterministicPrf::FromString("engine-batch");
  auto engine = FpEngine::Outsource(doc, seed).value();

  std::vector<std::string> tags = doc.DistinctTags();
  ASSERT_GE(tags.size(), 8u);
  std::vector<Query> queries;
  for (size_t i = 0; i < 16; ++i)
    queries.push_back({tags[i % tags.size()], VerifyMode::kVerified});

  // Sequential: 16 independent pruned walks.
  const auto before_seq = engine->store().stats();
  std::vector<LookupResult> sequential;
  for (const Query& q : queries)
    sequential.push_back(engine->Lookup(q.tag, q.mode).value());
  const size_t seq_requests =
      engine->store().stats().eval_requests - before_seq.eval_requests;

  // Batched: one shared walk answering all 16 at once.
  const auto before_batch = engine->store().stats();
  auto batched = engine->RunQueries(queries).value();
  const size_t batch_requests =
      engine->store().stats().eval_requests - before_batch.eval_requests;

  EXPECT_LT(batch_requests, seq_requests)
      << "batching must coalesce BFS rounds into shared EvalRequests";
  ASSERT_EQ(batched.per_tag.size(), queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(SortedMatchPaths(batched.per_tag[i].matches),
              SortedMatchPaths(sequential[i].matches))
        << "//" << queries[i].tag;
  }
}

TEST(EngineTest, BatchedQueriesHonorPerQueryModes) {
  XmlNode doc = MakeDoc(76, 120, 10);
  DeterministicPrf seed = DeterministicPrf::FromString("engine-modes");
  auto engine = FpEngine::Outsource(doc, seed).value();
  std::vector<std::string> tags = doc.DistinctTags();

  std::vector<Query> queries;
  for (size_t i = 0; i < tags.size(); ++i)
    queries.push_back({tags[i], kAllModes[i % 3]});
  auto batched = engine->RunQueries(queries).value();
  for (size_t i = 0; i < queries.size(); ++i) {
    auto solo = engine->Lookup(queries[i].tag, queries[i].mode).value();
    EXPECT_EQ(SortedMatchPaths(batched.per_tag[i].matches),
              SortedMatchPaths(solo.matches))
        << "//" << queries[i].tag;
    EXPECT_EQ(SortedMatchPaths(batched.per_tag[i].possible),
              SortedMatchPaths(solo.possible))
        << "//" << queries[i].tag;
  }
}

TEST(EngineTest, VerifiedModeRejectsCheatingServerThroughEndpoints) {
  XmlNode doc = MakeDoc(77);
  DeterministicPrf seed = DeterministicPrf::FromString("engine-cheat");
  auto engine = FpEngine::Outsource(doc, seed).value();
  const std::string tag = doc.DistinctTags()[1];
  auto honest = engine->Lookup(tag, VerifyMode::kVerified).value();
  ASSERT_FALSE(honest.matches.empty());
  const int32_t victim = honest.matches[0].node_id;
  const uint64_t e = engine->client().tag_map().Value(tag).value();

  // The cheating server rewrites the victim's fetched share with
  // c*(x - e) added: every evaluation at e the pruning saw stays zero, but
  // the Eq. 3 coefficient checks must catch the forgery.
  const FpCyclotomicRing& ring = engine->ring();
  FaultConfig cheat;
  cheat.tamper_fetch = [&ring, victim, e](FetchResponse& resp) {
    for (FetchEntry& entry : resp.entries) {
      if (entry.node_id != victim) continue;
      ByteReader r(entry.payload);
      FpPoly poly = ring.Deserialize(&r).value();
      poly = ring.Add(poly, ring.XMinus(e).value().ScalarMul(7));
      ByteWriter w;
      ring.Serialize(poly, &w);
      entry.payload = w.Take();
    }
  };
  engine->InjectFaults(0, cheat);

  auto optimistic = engine->Lookup(tag, VerifyMode::kOptimistic);
  ASSERT_TRUE(optimistic.ok());  // never fetches, so it cannot notice
  auto verified = engine->Lookup(tag, VerifyMode::kVerified);
  ASSERT_FALSE(verified.ok());
  EXPECT_EQ(verified.status().code(), StatusCode::kVerificationFailed);
}

TEST(EngineTest, ShamirFailsOverDeadServersAndRefusesBelowThreshold) {
  XmlNode doc = MakeDoc(78);
  DeterministicPrf seed = DeterministicPrf::FromString("engine-failover");
  FpEngine::Deploy deploy;
  deploy.scheme = ShareScheme::kShamir;
  deploy.num_servers = 5;
  deploy.threshold = 3;
  auto engine = FpEngine::Outsource(doc, seed, deploy).value();
  const std::string tag = doc.DistinctTags()[2];
  auto healthy = engine->Lookup(tag, VerifyMode::kVerified).value();

  // Kill two servers: exactly t remain; answers stay correct and the
  // session reports the mid-query failovers.
  FaultConfig down;
  down.fail_after_calls = 0;
  engine->InjectFaults(0, down);
  engine->InjectFaults(1, down);
  auto degraded = engine->Lookup(tag, VerifyMode::kVerified).value();
  EXPECT_EQ(SortedMatchPaths(degraded.matches),
            SortedMatchPaths(healthy.matches));
  EXPECT_GE(degraded.stats.server_failovers, 2u);

  // A third death leaves t-1: clean refusal, not a wrong answer.
  engine->InjectFaults(2, down);
  auto starved = engine->Lookup(tag, VerifyMode::kVerified);
  ASSERT_FALSE(starved.ok());
  EXPECT_EQ(starved.status().code(), StatusCode::kUnavailable);
}

TEST(EngineTest, ShamirTrustedConstOnlyAndXPathWork) {
  XmlNode doc = MakeDoc(79, 60, 6);
  DeterministicPrf seed = DeterministicPrf::FromString("engine-shamir-x");
  FpEngine::Deploy deploy;
  deploy.scheme = ShareScheme::kShamir;
  deploy.num_servers = 4;
  deploy.threshold = 2;
  auto engine = FpEngine::Outsource(doc, seed, deploy).value();
  auto legacy = MakeFpDeployment(doc, seed).value();
  TestSession<FpCyclotomicRing> session(&legacy.client, &legacy.server);

  std::vector<std::string> tags = doc.DistinctTags();
  const std::string xpath = "//" + tags[0] + "//" + tags[1 % tags.size()];
  auto oracle = session
                    .EvaluateXPath(XPathQuery::Parse(xpath).value(),
                                   XPathStrategy::kAllAtOnce,
                                   VerifyMode::kVerified)
                    .value();
  auto r = engine->RunXPath(xpath);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(SortedMatchPaths(r->matches), SortedMatchPaths(oracle.matches));
}

TEST(EngineTest, SaveOpenRoundTrip) {
  XmlNode doc = MakeDoc(80, 50, 6);
  DeterministicPrf seed = DeterministicPrf::FromString("engine-save");
  auto engine = FpEngine::Outsource(doc, seed).value();
  const std::string tag = doc.DistinctTags()[1];
  auto before = engine->Lookup(tag, VerifyMode::kVerified).value();

  const std::string store_path = ::testing::TempDir() + "engine_store.bin";
  const std::string key_path = ::testing::TempDir() + "engine_client.key";
  ASSERT_TRUE(engine->Save(store_path, key_path).ok());

  auto reopened = FpEngine::Open(store_path, key_path);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  auto after = (*reopened)->Lookup(tag, VerifyMode::kVerified).value();
  EXPECT_EQ(SortedMatchPaths(after.matches),
            SortedMatchPaths(before.matches));
  EXPECT_EQ(after.stats.transport.bytes_down,
            before.stats.transport.bytes_down);
  std::remove(store_path.c_str());
  std::remove(key_path.c_str());
}

TEST(EngineTest, MultiServerSaveOpenRoundTripPerScheme) {
  // Save writes one store file per server plus a key file carrying the
  // deployment shape; Open rebuilds the full k-server group and answers
  // must match the live engine's for every scheme.
  XmlNode doc = MakeDoc(81, 60, 7);
  DeterministicPrf seed = DeterministicPrf::FromString("engine-save-multi");

  struct Case {
    const char* label;
    ShareScheme scheme;
    int num_servers;
    int threshold;
  };
  for (const Case& c : {Case{"additive-3", ShareScheme::kAdditive, 3, 0},
                        Case{"shamir-3of5", ShareScheme::kShamir, 5, 3}}) {
    FpEngine::Deploy deploy;
    deploy.scheme = c.scheme;
    deploy.num_servers = c.num_servers;
    deploy.threshold = c.threshold;
    auto engine = FpEngine::Outsource(doc, seed, deploy).value();
    const std::string tag = doc.DistinctTags()[1];
    auto before = engine->Lookup(tag, VerifyMode::kVerified).value();

    const std::string store_path =
        ::testing::TempDir() + "engine_multi_" + c.label + ".bin";
    const std::string key_path =
        ::testing::TempDir() + "engine_multi_" + c.label + ".key";
    ASSERT_TRUE(engine->Save(store_path, key_path).ok()) << c.label;
    // One share file per server, none at the two-party path.
    for (int s = 0; s < c.num_servers; ++s) {
      EXPECT_TRUE(
          ReadFileBytes(FpEngine::MultiServerStorePath(store_path, s)).ok())
          << c.label << " server " << s;
    }
    EXPECT_FALSE(ReadFileBytes(store_path).ok()) << c.label;

    auto reopened = FpEngine::Open(store_path, key_path);
    ASSERT_TRUE(reopened.ok()) << c.label << ": "
                               << reopened.status().ToString();
    EXPECT_EQ((*reopened)->scheme(), c.scheme);
    EXPECT_EQ((*reopened)->num_servers(), static_cast<size_t>(c.num_servers));
    for (VerifyMode mode : kAllModes) {
      auto live = engine->Lookup(tag, mode).value();
      auto persisted = (*reopened)->Lookup(tag, mode).value();
      EXPECT_EQ(SortedMatchPaths(persisted.matches),
                SortedMatchPaths(live.matches))
          << c.label << " mode " << static_cast<int>(mode);
    }
    EXPECT_EQ(SortedMatchPaths((*reopened)
                                   ->Lookup(tag, VerifyMode::kVerified)
                                   .value()
                                   .matches),
              SortedMatchPaths(before.matches));
    // A reopened Shamir deployment still fails over dead servers.
    if (c.scheme == ShareScheme::kShamir) {
      FaultConfig down;
      down.fail_after_calls = 0;
      (*reopened)->InjectFaults(0, down);
      auto degraded = (*reopened)->Lookup(tag, VerifyMode::kVerified).value();
      EXPECT_EQ(SortedMatchPaths(degraded.matches),
                SortedMatchPaths(before.matches));
    }
    for (int s = 0; s < c.num_servers; ++s)
      std::remove(FpEngine::MultiServerStorePath(store_path, s).c_str());
    std::remove(key_path.c_str());
  }
}

TEST(EngineTest, ZAdditiveSaveOpenRoundTrip) {
  XmlNode doc = MakeDoc(82, 30, 5);
  DeterministicPrf seed = DeterministicPrf::FromString("engine-save-z");
  ZEngine::Deploy deploy;
  deploy.scheme = ShareScheme::kAdditive;
  deploy.num_servers = 2;
  auto engine = ZEngine::Outsource(doc, seed, deploy).value();
  const std::string tag = doc.DistinctTags()[0];
  auto before = engine->Lookup(tag, VerifyMode::kVerified).value();

  const std::string store_path = ::testing::TempDir() + "engine_z_multi.bin";
  const std::string key_path = ::testing::TempDir() + "engine_z_multi.key";
  ASSERT_TRUE(engine->Save(store_path, key_path).ok());
  auto reopened = ZEngine::Open(store_path, key_path);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  auto after = (*reopened)->Lookup(tag, VerifyMode::kVerified).value();
  EXPECT_EQ(SortedMatchPaths(after.matches), SortedMatchPaths(before.matches));
  for (int s = 0; s < 2; ++s)
    std::remove(ZEngine::MultiServerStorePath(store_path, s).c_str());
  std::remove(key_path.c_str());
}

}  // namespace
}  // namespace polysse
