// End-to-end tests of the three sharing schemes through a one-document
// polysse::Collection and the transport-abstracted query stack:
//  * every verify mode × {2-party, additive k-server, Shamir t-of-n} runs
//    through ServerEndpoints with answers identical to the pre-redesign
//    2-party path;
//  * a batched SearchMany issues strictly fewer EvalRequests than running
//    the same queries sequentially (asserted via server Stats);
//  * a FaultInjectingEndpoint cheating server is rejected end-to-end by
//    kVerified;
//  * Shamir deployments fail over dead servers, forget them when each
//    query returns, and refuse cleanly below the threshold;
//  * Save/Open round-trips two-party AND multi-server (additive, Shamir)
//    deployments through the persistence layer.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "testing/deploy_helpers.h"
#include "testing/query_helpers.h"
#include "xml/xml_generator.h"

namespace polysse {
namespace {

using testing::FpDeployment;
using testing::MakeFpDeployment;
using testing::MakeZDeployment;
using testing::OneDocFpCollection;
using testing::OneDocZCollection;
using testing::TestSession;
using testing::ZDeployment;

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

template <typename CollectionPtr>
void ExpectSameAnswers(CollectionPtr& col,
                       const std::vector<std::string>& tags, VerifyMode mode,
                       const std::vector<LookupResult>& oracle,
                       const char* label) {
  for (size_t i = 0; i < tags.size(); ++i) {
    auto r = col->SearchDoc(0, tags[i], mode);
    ASSERT_TRUE(r.ok()) << label << " //" << tags[i] << ": "
                        << r.status().ToString();
    EXPECT_EQ(SortedMatchPaths(r->matches), SortedMatchPaths(oracle[i].matches))
        << label << " //" << tags[i] << " mode " << static_cast<int>(mode);
    EXPECT_EQ(SortedMatchPaths(r->possible),
              SortedMatchPaths(oracle[i].possible))
        << label << " //" << tags[i] << " mode " << static_cast<int>(mode);
  }
}

TEST(SchemeTest, FpAllSchemesMatchPreRedesignAnswers) {
  XmlNode doc = MakeDoc(71);
  DeterministicPrf seed = DeterministicPrf::FromString("engine-fp");
  FpDeployment legacy = MakeFpDeployment(doc, seed).value();
  const std::vector<std::string> tags = doc.DistinctTags();

  struct Case {
    const char* label;
    DeployShape deploy;
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
    auto col = OneDocFpCollection(doc, seed, c.deploy);
    ASSERT_TRUE(col.ok()) << c.label << ": " << col.status().ToString();
    for (VerifyMode mode : kAllModes) {
      auto oracle = LegacyAnswers<FpCyclotomicRing>(legacy, tags, mode);
      ExpectSameAnswers(*col, tags, mode, oracle, c.label);
    }
  }
}

TEST(SchemeTest, ZBothSchemesMatchPreRedesignAnswers) {
  XmlNode doc = MakeDoc(72, 40, 5);
  DeterministicPrf seed = DeterministicPrf::FromString("engine-z");
  ZDeployment legacy = MakeZDeployment(doc, seed).value();
  const std::vector<std::string> tags = doc.DistinctTags();

  for (int k : {1, 3}) {
    DeployShape deploy;
    deploy.scheme = k == 1 ? ShareScheme::kTwoParty : ShareScheme::kAdditive;
    deploy.num_servers = k;
    auto col = OneDocZCollection(doc, seed, deploy);
    ASSERT_TRUE(col.ok()) << col.status().ToString();
    for (VerifyMode mode : kAllModes) {
      auto oracle = LegacyAnswers<ZQuotientRing>(legacy, tags, mode);
      ExpectSameAnswers(*col, tags, mode, oracle,
                        k == 1 ? "z-2party" : "z-additive-3");
    }
  }
}

TEST(SchemeTest, ShamirRequiresFpRing) {
  XmlNode doc = MakeDoc(73, 20, 4);
  DeterministicPrf seed = DeterministicPrf::FromString("engine-z-shamir");
  DeployShape deploy;
  deploy.scheme = ShareScheme::kShamir;
  deploy.num_servers = 3;
  deploy.threshold = 2;
  auto col = OneDocZCollection(doc, seed, deploy);
  ASSERT_FALSE(col.ok());
  EXPECT_EQ(col.status().code(), StatusCode::kUnimplemented);
}

TEST(SchemeTest, TwoPartyLoopbackPreservesWireCosts) {
  // The collection's default transport is the historical
  // serialize-everything path: byte counters must equal the legacy
  // session's exactly.
  XmlNode doc = MakeDoc(74);
  DeterministicPrf seed = DeterministicPrf::FromString("engine-bytes");
  FpDeployment legacy = MakeFpDeployment(doc, seed).value();
  TestSession<FpCyclotomicRing> session(&legacy.client, &legacy.server);
  auto col = OneDocFpCollection(doc, seed).value();

  for (const std::string& tag : doc.DistinctTags()) {
    auto l = session.Lookup(tag, VerifyMode::kVerified).value();
    auto c = col->SearchDoc(0, tag, VerifyMode::kVerified).value();
    EXPECT_EQ(l.stats.transport.bytes_up, c.stats.transport.bytes_up) << tag;
    EXPECT_EQ(l.stats.transport.bytes_down, c.stats.transport.bytes_down)
        << tag;
    EXPECT_EQ(l.stats.rounds, c.stats.rounds) << tag;
    EXPECT_EQ(l.stats.server_evals, c.stats.server_evals) << tag;
  }
}

TEST(SchemeTest, BatchedSearchManyIssuesFewerEvalRequests) {
  XmlNode doc = MakeDoc(75, 300, 20);
  DeterministicPrf seed = DeterministicPrf::FromString("engine-batch");
  auto col = OneDocFpCollection(doc, seed).value();
  const ServerStore<FpCyclotomicRing>& store = *col->doc_store(0, 0).value();

  std::vector<std::string> tags = doc.DistinctTags();
  ASSERT_GE(tags.size(), 8u);
  std::vector<Query> queries;
  for (size_t i = 0; i < 16; ++i)
    queries.push_back({tags[i % tags.size()], VerifyMode::kVerified});

  // Sequential: 16 independent pruned walks.
  const auto before_seq = store.stats();
  std::vector<LookupResult> sequential;
  for (const Query& q : queries)
    sequential.push_back(col->SearchDoc(0, q.tag, q.mode).value());
  const size_t seq_requests =
      store.stats().eval_requests - before_seq.eval_requests;

  // Batched: one shared walk answering all 16 at once.
  const auto before_batch = store.stats();
  auto batched = col->SearchMany(queries).value();
  const size_t batch_requests =
      store.stats().eval_requests - before_batch.eval_requests;

  EXPECT_LT(batch_requests, seq_requests)
      << "batching must coalesce BFS rounds into shared EvalRequests";
  ASSERT_EQ(batched.size(), queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(SortedMatchPaths(batched[i].per_doc[0].matches),
              SortedMatchPaths(sequential[i].matches))
        << "//" << queries[i].tag;
  }
}

TEST(SchemeTest, BatchedQueriesHonorPerQueryModes) {
  XmlNode doc = MakeDoc(76, 120, 10);
  DeterministicPrf seed = DeterministicPrf::FromString("engine-modes");
  auto col = OneDocFpCollection(doc, seed).value();
  std::vector<std::string> tags = doc.DistinctTags();

  std::vector<Query> queries;
  for (size_t i = 0; i < tags.size(); ++i)
    queries.push_back({tags[i], kAllModes[i % 3]});
  auto batched = col->SearchMany(queries).value();
  for (size_t i = 0; i < queries.size(); ++i) {
    auto solo = col->SearchDoc(0, queries[i].tag, queries[i].mode).value();
    EXPECT_EQ(SortedMatchPaths(batched[i].per_doc[0].matches),
              SortedMatchPaths(solo.matches))
        << "//" << queries[i].tag;
    EXPECT_EQ(SortedMatchPaths(batched[i].per_doc[0].possible),
              SortedMatchPaths(solo.possible))
        << "//" << queries[i].tag;
  }
}

TEST(SchemeTest, VerifiedModeRejectsCheatingServerThroughEndpoints) {
  XmlNode doc = MakeDoc(77);
  DeterministicPrf seed = DeterministicPrf::FromString("engine-cheat");
  auto col = OneDocFpCollection(doc, seed).value();
  const std::string tag = doc.DistinctTags()[1];
  auto honest = col->SearchDoc(0, tag, VerifyMode::kVerified).value();
  ASSERT_FALSE(honest.matches.empty());
  // The first document sits at base 0: local and wire node ids agree.
  const int32_t victim = honest.matches[0].node_id;
  const uint64_t e = col->client().tag_map().Value(tag).value();

  // The cheating server rewrites the victim's fetched share with
  // c*(x - e) added: every evaluation at e the pruning saw stays zero, but
  // the Eq. 3 coefficient checks must catch the forgery.
  const FpCyclotomicRing& ring = col->ring();
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
  col->InjectFaults(0, cheat);

  auto optimistic = col->SearchDoc(0, tag, VerifyMode::kOptimistic);
  ASSERT_TRUE(optimistic.ok());  // never fetches, so it cannot notice
  auto verified = col->SearchDoc(0, tag, VerifyMode::kVerified);
  ASSERT_FALSE(verified.ok());
  EXPECT_EQ(verified.status().code(), StatusCode::kVerificationFailed);
}

TEST(SchemeTest, ShamirFailsOverDeadServersAndRefusesBelowThreshold) {
  XmlNode doc = MakeDoc(78);
  DeterministicPrf seed = DeterministicPrf::FromString("engine-failover");
  DeployShape deploy;
  deploy.scheme = ShareScheme::kShamir;
  deploy.num_servers = 5;
  deploy.threshold = 3;
  auto col = OneDocFpCollection(doc, seed, deploy).value();
  const std::string tag = doc.DistinctTags()[2];
  auto healthy = col->SearchDoc(0, tag, VerifyMode::kVerified).value();

  // Kill two servers: exactly t remain; answers stay correct and the
  // walk reports the mid-query failovers.
  FaultConfig down;
  down.fail_after_calls = 0;
  col->InjectFaults(0, down);
  col->InjectFaults(1, down);
  auto degraded = col->SearchDoc(0, tag, VerifyMode::kVerified).value();
  EXPECT_EQ(SortedMatchPaths(degraded.matches),
            SortedMatchPaths(healthy.matches));
  EXPECT_GE(degraded.stats.server_failovers, 2u);

  // A third death leaves t-1: clean refusal, not a wrong answer.
  col->InjectFaults(2, down);
  auto starved = col->SearchDoc(0, tag, VerifyMode::kVerified);
  ASSERT_FALSE(starved.ok());
  EXPECT_EQ(starved.status().code(), StatusCode::kUnavailable);
}

TEST(SchemeTest, ShamirFailoverIsPerQuery) {
  // A walk forgets the servers it found dead when it returns: every query
  // probes the whole group afresh, so each one fails over the same two
  // dead servers (and a server that came back would be used again).
  XmlNode doc = MakeDoc(83);
  DeterministicPrf seed = DeterministicPrf::FromString("scheme-per-query");
  DeployShape deploy;
  deploy.scheme = ShareScheme::kShamir;
  deploy.num_servers = 5;
  deploy.threshold = 3;
  auto col = OneDocFpCollection(doc, seed, deploy).value();
  const std::string tag = doc.DistinctTags()[1];
  auto healthy = col->Search(tag).value();
  ASSERT_FALSE(healthy.per_doc[0].matches.empty());
  EXPECT_EQ(healthy.stats.server_failovers, 0u);

  FaultConfig down;
  down.fail_after_calls = 0;
  col->InjectFaults(0, down);
  col->InjectFaults(1, down);
  for (int i = 0; i < 3; ++i) {
    auto r = col->Search(tag);
    ASSERT_TRUE(r.ok()) << "search " << i << ": " << r.status().ToString();
    EXPECT_EQ(SortedMatchPaths(r->per_doc[0].matches),
              SortedMatchPaths(healthy.per_doc[0].matches))
        << "search " << i;
    EXPECT_EQ(r->stats.server_failovers, 2u) << "search " << i;
  }
}

TEST(SchemeTest, ShamirTrustedConstOnlyAndXPathWork) {
  XmlNode doc = MakeDoc(79, 60, 6);
  DeterministicPrf seed = DeterministicPrf::FromString("engine-shamir-x");
  DeployShape deploy;
  deploy.scheme = ShareScheme::kShamir;
  deploy.num_servers = 4;
  deploy.threshold = 2;
  auto col = OneDocFpCollection(doc, seed, deploy).value();
  auto legacy = MakeFpDeployment(doc, seed).value();
  TestSession<FpCyclotomicRing> session(&legacy.client, &legacy.server);

  std::vector<std::string> tags = doc.DistinctTags();
  const std::string xpath = "//" + tags[0] + "//" + tags[1 % tags.size()];
  auto oracle = session
                    .EvaluateXPath(XPathQuery::Parse(xpath).value(),
                                   XPathStrategy::kAllAtOnce,
                                   VerifyMode::kVerified)
                    .value();
  auto r = col->SearchXPath(xpath);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(SortedMatchPaths(r->per_doc[0].matches),
            SortedMatchPaths(oracle.matches));
}

TEST(SchemeTest, SaveOpenRoundTrip) {
  XmlNode doc = MakeDoc(80, 50, 6);
  DeterministicPrf seed = DeterministicPrf::FromString("engine-save");
  auto col = OneDocFpCollection(doc, seed).value();
  const std::string tag = doc.DistinctTags()[1];
  auto before = col->SearchDoc(0, tag, VerifyMode::kVerified).value();

  const std::string store_path = ::testing::TempDir() + "scheme_store.bin";
  const std::string key_path = ::testing::TempDir() + "scheme_client.key";
  ASSERT_TRUE(col->Save(store_path, key_path).ok());

  auto reopened = FpCollection::Open(store_path, key_path);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  auto after = (*reopened)->SearchDoc(0, tag, VerifyMode::kVerified).value();
  EXPECT_EQ(SortedMatchPaths(after.matches),
            SortedMatchPaths(before.matches));
  EXPECT_EQ(after.stats.transport.bytes_down,
            before.stats.transport.bytes_down);
  std::remove(store_path.c_str());
  std::remove(key_path.c_str());
}

TEST(SchemeTest, MultiServerSaveOpenRoundTripPerScheme) {
  // Save writes one store file per server plus a key file carrying the
  // deployment shape; Open rebuilds the full k-server group and answers
  // must match the live collection's for every scheme.
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
    DeployShape deploy;
    deploy.scheme = c.scheme;
    deploy.num_servers = c.num_servers;
    deploy.threshold = c.threshold;
    auto col = OneDocFpCollection(doc, seed, deploy).value();
    const std::string tag = doc.DistinctTags()[1];
    auto before = col->SearchDoc(0, tag, VerifyMode::kVerified).value();

    const std::string store_path =
        ::testing::TempDir() + "scheme_multi_" + c.label + ".bin";
    const std::string key_path =
        ::testing::TempDir() + "scheme_multi_" + c.label + ".key";
    ASSERT_TRUE(col->Save(store_path, key_path).ok()) << c.label;
    // One share file per server, none at the two-party path.
    for (int s = 0; s < c.num_servers; ++s) {
      EXPECT_TRUE(
          ReadFileBytes(FpCollection::MultiServerStorePath(store_path, s))
              .ok())
          << c.label << " server " << s;
    }
    EXPECT_FALSE(ReadFileBytes(store_path).ok()) << c.label;

    auto reopened = FpCollection::Open(store_path, key_path);
    ASSERT_TRUE(reopened.ok()) << c.label << ": "
                               << reopened.status().ToString();
    EXPECT_EQ((*reopened)->scheme(), c.scheme);
    EXPECT_EQ((*reopened)->num_servers(), static_cast<size_t>(c.num_servers));
    for (VerifyMode mode : kAllModes) {
      auto live = col->SearchDoc(0, tag, mode).value();
      auto persisted = (*reopened)->SearchDoc(0, tag, mode).value();
      EXPECT_EQ(SortedMatchPaths(persisted.matches),
                SortedMatchPaths(live.matches))
          << c.label << " mode " << static_cast<int>(mode);
    }
    EXPECT_EQ(SortedMatchPaths((*reopened)
                                   ->SearchDoc(0, tag, VerifyMode::kVerified)
                                   .value()
                                   .matches),
              SortedMatchPaths(before.matches));
    // A reopened Shamir deployment still fails over dead servers.
    if (c.scheme == ShareScheme::kShamir) {
      FaultConfig down;
      down.fail_after_calls = 0;
      (*reopened)->InjectFaults(0, down);
      auto degraded =
          (*reopened)->SearchDoc(0, tag, VerifyMode::kVerified).value();
      EXPECT_EQ(SortedMatchPaths(degraded.matches),
                SortedMatchPaths(before.matches));
    }
    for (int s = 0; s < c.num_servers; ++s)
      std::remove(FpCollection::MultiServerStorePath(store_path, s).c_str());
    std::remove(key_path.c_str());
  }
}

TEST(SchemeTest, ZAdditiveSaveOpenRoundTrip) {
  XmlNode doc = MakeDoc(82, 30, 5);
  DeterministicPrf seed = DeterministicPrf::FromString("engine-save-z");
  DeployShape deploy;
  deploy.scheme = ShareScheme::kAdditive;
  deploy.num_servers = 2;
  auto col = OneDocZCollection(doc, seed, deploy).value();
  const std::string tag = doc.DistinctTags()[0];
  auto before = col->SearchDoc(0, tag, VerifyMode::kVerified).value();

  const std::string store_path = ::testing::TempDir() + "scheme_z_multi.bin";
  const std::string key_path = ::testing::TempDir() + "scheme_z_multi.key";
  ASSERT_TRUE(col->Save(store_path, key_path).ok());
  auto reopened = ZCollection::Open(store_path, key_path);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  auto after = (*reopened)->SearchDoc(0, tag, VerifyMode::kVerified).value();
  EXPECT_EQ(SortedMatchPaths(after.matches), SortedMatchPaths(before.matches));
  for (int s = 0; s < 2; ++s)
    std::remove(ZCollection::MultiServerStorePath(store_path, s).c_str());
  std::remove(key_path.c_str());
}

}  // namespace
}  // namespace polysse
