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
//    deployments through the persistence layer;
//  * every QueryStats counter of a batched walk is pinned per ring, scheme,
//    verify mode and transport.
#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "net/socket_endpoint.h"
#include "net/socket_server.h"
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
/// one-document server through one loopback endpoint (the historical
/// serialize-every-message behavior, bit for bit).
template <typename Ring, typename Deployment>
std::vector<LookupResult> LegacyAnswers(Deployment& dep,
                                        const std::vector<std::string>& tags,
                                        VerifyMode mode) {
  TestSession<Ring> session(&dep.client, dep.server.get());
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
  TestSession<FpCyclotomicRing> session(&legacy.client, legacy.server.get());
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
  const FpStoreRegistry& server = *col->registry(0);

  std::vector<std::string> tags = doc.DistinctTags();
  ASSERT_GE(tags.size(), 8u);
  std::vector<Query> queries;
  for (size_t i = 0; i < 16; ++i)
    queries.push_back({tags[i % tags.size()], VerifyMode::kVerified});

  // Sequential: 16 independent pruned walks.
  const auto before_seq = server.stats();
  std::vector<LookupResult> sequential;
  for (const Query& q : queries)
    sequential.push_back(col->SearchDoc(0, q.tag, q.mode).value());
  const size_t seq_requests =
      server.stats().eval_requests - before_seq.eval_requests;

  // Batched: one shared walk answering all 16 at once.
  const auto before_batch = server.stats();
  auto batched = col->SearchMany(queries).value();
  const size_t batch_requests =
      server.stats().eval_requests - before_batch.eval_requests;

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
  TestSession<FpCyclotomicRing> session(&legacy.client, legacy.server.get());

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

/// Every QueryStats counter of one walk as a line that names its case.
std::string CostLine(const std::string& label, const QueryStats& st) {
  std::ostringstream out;
  out << label << ": rounds=" << st.rounds
      << " fetch_rounds=" << st.fetch_rounds
      << " visited=" << st.nodes_visited << "/" << st.total_server_nodes
      << " server_evals=" << st.server_evals
      << " client_evals=" << st.client_evals
      << " derivations=" << st.client_share_derivations
      << " zeros=" << st.zero_candidates
      << " reconstructions=" << st.reconstructions
      << " polys=" << st.polys_fetched_full << " consts=" << st.consts_fetched
      << " trusted_fallbacks=" << st.trusted_fallbacks
      << " false_positives=" << st.false_positives_removed
      << " failovers=" << st.server_failovers
      << " up=" << st.transport.bytes_up << "B/" << st.transport.messages_up
      << " down=" << st.transport.bytes_down << "B/"
      << st.transport.messages_down;
  return out.str();
}

/// Appends the CostLine of an optimistic, a verified and a trusted
/// LookupMany over all of `doc`'s tags, each on a fresh session of
/// `client` against `eps` under `deploy`'s scheme.
template <typename Ring>
void AppendWalkCosts(const std::string& label, const XmlNode& doc,
                     const ClientContext<Ring>& client,
                     const DeployShape& deploy,
                     const std::vector<ServerEndpoint*>& eps,
                     std::vector<std::string>* out) {
  EndpointGroup group =
      deploy.scheme == ShareScheme::kShamir
          ? EndpointGroup::Shamir(eps, deploy.threshold)
          : (deploy.scheme == ShareScheme::kAdditive
                 ? EndpointGroup::Additive(eps)
                 : EndpointGroup::TwoParty(eps[0]));
  const char* names[] = {"optimistic", "verified", "trusted"};
  for (VerifyMode mode : kAllModes) {
    ClientContext<Ring> own = client;
    QuerySession<Ring> session(&own, group);
    auto r = session.LookupMany(doc.DistinctTags(), mode);
    ASSERT_TRUE(r.ok()) << label << ": " << r.status().ToString();
    out->push_back(
        CostLine(label + " " + names[static_cast<int>(mode)], r->stats));
  }
}

/// The walk's costs per case. They were recorded while the walk still had
/// separate F_p and Z steps, and hold unchanged with one body for both
/// rings; a change that moves a counter on purpose re-records its rows.
constexpr const char* kPinnedWalkCosts[] = {
    "fp-2party optimistic: rounds=12 fetch_rounds=0 visited=80/80 "
    "server_evals=640 client_evals=640 derivations=80 "
    "zeros=235 reconstructions=0 polys=0 consts=0 "
    "trusted_fallbacks=0 false_positives=0 failovers=0 "
    "up=200B/12 down=1051B/12",
    "fp-2party verified: rounds=12 fetch_rounds=1 visited=80/80 "
    "server_evals=640 client_evals=640 derivations=80 "
    "zeros=235 reconstructions=235 polys=80 consts=0 "
    "trusted_fallbacks=0 false_positives=0 failovers=0 "
    "up=282B/13 down=2084B/13",
    "fp-2party trusted: rounds=12 fetch_rounds=2 visited=80/80 "
    "server_evals=640 client_evals=640 derivations=80 "
    "zeros=235 reconstructions=235 polys=27 consts=68 "
    "trusted_fallbacks=92 false_positives=0 failovers=0 "
    "up=299B/14 down=1604B/14",
    "fp-additive-3 optimistic: rounds=12 fetch_rounds=0 visited=80/80 "
    "server_evals=1920 client_evals=640 derivations=80 "
    "zeros=235 reconstructions=0 polys=0 consts=0 "
    "trusted_fallbacks=0 false_positives=0 failovers=0 "
    "up=600B/36 down=3153B/36",
    "fp-additive-3 verified: rounds=12 fetch_rounds=1 visited=80/80 "
    "server_evals=1920 client_evals=640 derivations=80 "
    "zeros=235 reconstructions=235 polys=80 consts=0 "
    "trusted_fallbacks=0 false_positives=0 failovers=0 "
    "up=846B/39 down=6262B/39",
    "fp-additive-3 trusted: rounds=12 fetch_rounds=2 visited=80/80 "
    "server_evals=1920 client_evals=640 derivations=80 "
    "zeros=235 reconstructions=235 polys=27 consts=68 "
    "trusted_fallbacks=92 false_positives=0 failovers=0 "
    "up=897B/42 down=4820B/42",
    "fp-shamir-2of3 optimistic: rounds=12 fetch_rounds=0 visited=80/80 "
    "server_evals=1280 client_evals=0 derivations=0 "
    "zeros=235 reconstructions=0 polys=0 consts=0 "
    "trusted_fallbacks=0 false_positives=0 failovers=0 "
    "up=400B/24 down=2102B/24",
    "fp-shamir-2of3 verified: rounds=12 fetch_rounds=1 visited=80/80 "
    "server_evals=1280 client_evals=0 derivations=0 "
    "zeros=235 reconstructions=235 polys=80 consts=0 "
    "trusted_fallbacks=0 false_positives=0 failovers=0 "
    "up=564B/26 down=4168B/26",
    "fp-shamir-2of3 trusted: rounds=12 fetch_rounds=2 visited=80/80 "
    "server_evals=1280 client_evals=0 derivations=0 "
    "zeros=235 reconstructions=235 polys=27 consts=68 "
    "trusted_fallbacks=92 false_positives=0 failovers=0 "
    "up=598B/28 down=3210B/28",
    "z-2party optimistic: rounds=8 fetch_rounds=0 visited=40/40 "
    "server_evals=200 client_evals=200 derivations=40 "
    "zeros=94 reconstructions=0 polys=0 consts=0 "
    "trusted_fallbacks=0 false_positives=0 failovers=0 "
    "up=136B/8 down=924B/8",
    "z-2party verified: rounds=8 fetch_rounds=1 visited=40/40 "
    "server_evals=200 client_evals=200 derivations=40 "
    "zeros=94 reconstructions=94 polys=40 consts=0 "
    "trusted_fallbacks=0 false_positives=0 failovers=0 "
    "up=178B/9 down=3814B/9",
    "z-2party trusted: rounds=8 fetch_rounds=2 visited=40/40 "
    "server_evals=200 client_evals=200 derivations=40 "
    "zeros=94 reconstructions=94 polys=40 consts=16 "
    "trusted_fallbacks=78 false_positives=0 failovers=0 "
    "up=196B/10 down=4391B/10",
    "z-additive-3 optimistic: rounds=8 fetch_rounds=0 visited=40/40 "
    "server_evals=600 client_evals=200 derivations=40 "
    "zeros=94 reconstructions=0 polys=0 consts=0 "
    "trusted_fallbacks=0 false_positives=0 failovers=0 "
    "up=408B/24 down=2761B/24",
    "z-additive-3 verified: rounds=8 fetch_rounds=1 visited=40/40 "
    "server_evals=600 client_evals=200 derivations=40 "
    "zeros=94 reconstructions=94 polys=40 consts=0 "
    "trusted_fallbacks=0 false_positives=0 failovers=0 "
    "up=534B/27 down=11395B/27",
    "z-additive-3 trusted: rounds=8 fetch_rounds=2 visited=40/40 "
    "server_evals=600 client_evals=200 derivations=40 "
    "zeros=94 reconstructions=94 polys=40 consts=16 "
    "trusted_fallbacks=78 false_positives=0 failovers=0 "
    "up=588B/30 down=13140B/30",
    "fp-2party-tcp optimistic: rounds=12 fetch_rounds=0 visited=80/80 "
    "server_evals=640 client_evals=640 derivations=80 "
    "zeros=235 reconstructions=0 polys=0 consts=0 "
    "trusted_fallbacks=0 false_positives=0 failovers=0 "
    "up=308B/12 down=1159B/12",
    "fp-2party-tcp verified: rounds=12 fetch_rounds=11 visited=80/80 "
    "server_evals=640 client_evals=640 derivations=80 "
    "zeros=235 reconstructions=235 polys=80 consts=0 "
    "trusted_fallbacks=0 false_positives=0 failovers=0 "
    "up=509B/23 down=2301B/23",
    "fp-2party-tcp trusted: rounds=12 fetch_rounds=18 visited=80/80 "
    "server_evals=640 client_evals=640 derivations=80 "
    "zeros=235 reconstructions=235 polys=27 consts=68 "
    "trusted_fallbacks=92 false_positives=0 failovers=0 "
    "up=601B/30 down=1890B/30",
    "fp-shamir-2of3-tcp optimistic: rounds=12 fetch_rounds=0 visited=80/80 "
    "server_evals=1280 client_evals=0 derivations=0 "
    "zeros=235 reconstructions=0 polys=0 consts=0 "
    "trusted_fallbacks=0 false_positives=0 failovers=0 "
    "up=616B/24 down=2318B/24",
    "fp-shamir-2of3-tcp verified: rounds=12 fetch_rounds=11 visited=80/80 "
    "server_evals=1280 client_evals=0 derivations=0 "
    "zeros=235 reconstructions=235 polys=80 consts=0 "
    "trusted_fallbacks=0 false_positives=0 failovers=0 "
    "up=1018B/46 down=4602B/46",
    "fp-shamir-2of3-tcp trusted: rounds=12 fetch_rounds=18 visited=80/80 "
    "server_evals=1280 client_evals=0 derivations=0 "
    "zeros=235 reconstructions=235 polys=27 consts=68 "
    "trusted_fallbacks=92 false_positives=0 failovers=0 "
    "up=1202B/60 down=3782B/60",
};

TEST(SchemeTest, WalkCostsArePinned) {
  XmlNode fp_doc = MakeDoc(86, 80, 8);
  XmlNode z_doc = MakeDoc(87, 40, 5);
  DeterministicPrf seed = DeterministicPrf::FromString("scheme-walk-costs");
  struct Case {
    const char* label;
    bool z_ring;
    ShareScheme scheme;
    int num_servers;
    int threshold;
    bool tcp;
  };
  const Case cases[] = {
      {"fp-2party", false, ShareScheme::kTwoParty, 1, 0, false},
      {"fp-additive-3", false, ShareScheme::kAdditive, 3, 0, false},
      {"fp-shamir-2of3", false, ShareScheme::kShamir, 3, 2, false},
      {"z-2party", true, ShareScheme::kTwoParty, 1, 0, false},
      {"z-additive-3", true, ShareScheme::kAdditive, 3, 0, false},
      {"fp-2party-tcp", false, ShareScheme::kTwoParty, 1, 0, true},
      {"fp-shamir-2of3-tcp", false, ShareScheme::kShamir, 3, 2, true},
  };
  std::vector<std::string> got;
  for (const Case& c : cases) {
    DeployShape deploy;
    deploy.scheme = c.scheme;
    deploy.num_servers = c.num_servers;
    deploy.threshold = c.threshold;
    std::unique_ptr<FpCollection> fp;
    std::unique_ptr<ZCollection> z;
    if (c.z_ring) {
      z = OneDocZCollection(z_doc, seed, deploy).value();
    } else {
      fp = OneDocFpCollection(fp_doc, seed, deploy).value();
    }
    std::vector<std::unique_ptr<LoopbackEndpoint>> loopbacks;
    std::vector<std::unique_ptr<SocketServer>> servers;
    std::vector<std::unique_ptr<SocketEndpoint>> sockets;
    std::vector<ServerEndpoint*> eps;
    for (int s = 0; s < c.num_servers; ++s) {
      ServerHandler* handler = c.z_ring ? z->handler(s) : fp->handler(s);
      if (!c.tcp) {
        loopbacks.push_back(std::make_unique<LoopbackEndpoint>(handler));
        eps.push_back(loopbacks.back().get());
        continue;
      }
      auto srv = SocketServer::Listen(handler, 0);
      ASSERT_TRUE(srv.ok()) << srv.status().ToString();
      auto ep = SocketEndpoint::Connect("127.0.0.1", (*srv)->port());
      ASSERT_TRUE(ep.ok()) << ep.status().ToString();
      servers.push_back(std::move(*srv));
      sockets.push_back(std::move(*ep));
      eps.push_back(sockets.back().get());
    }
    if (c.z_ring) {
      AppendWalkCosts(c.label, z_doc, z->client(), deploy, eps, &got);
    } else {
      AppendWalkCosts(c.label, fp_doc, fp->client(), deploy, eps, &got);
    }
  }
  const std::vector<std::string> pinned(std::begin(kPinnedWalkCosts),
                                        std::end(kPinnedWalkCosts));
  ASSERT_EQ(got.size(), pinned.size());
  for (size_t i = 0; i < got.size(); ++i) EXPECT_EQ(got[i], pinned[i]);
}

}  // namespace
}  // namespace polysse
