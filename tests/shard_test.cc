// End-to-end tests of sharded collections: ShardMap invariants, and
// scatter-gather answers bit-identical to one unsharded Collection over the
// same documents AND equal to a plaintext walk of each document, across
// every share scheme and verify mode, before AND after online shard splits
// and merges — including ones that fail partway; per-shard stats roll-ups;
// the hot-query cache and Bloom pre-filter at four shards; dead-shard
// handling; Save/Open and Connect (over real TCP) round trips; a
// Connect()ed collection walking its shards concurrently on the executor
// it was given; and node-id space reclamation under a remove-heavy churn
// loop.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "baseline/plaintext_search.h"
#include "core/collection.h"
#include "core/shard_map.h"
#include "net/socket_endpoint.h"
#include "testing/query_helpers.h"
#include "xml/xml_generator.h"
#include "xml/xml_parser.h"

namespace polysse {
namespace {

using testing::Sorted;
using testing::SortedMatchPaths;

XmlNode MakeDoc(uint64_t seed, size_t num_nodes = 30, size_t alphabet = 6) {
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

/// Bit-identical: same documents, same localized node ids, same paths,
/// same possible sets — what "sharding is invisible to answers" means.
void ExpectSameAnswers(const CollectionResult& want,
                       const CollectionResult& got, const std::string& label) {
  ASSERT_EQ(want.per_doc.size(), got.per_doc.size()) << label;
  for (const auto& [id, r] : want.per_doc) {
    auto it = got.per_doc.find(id);
    ASSERT_NE(it, got.per_doc.end()) << label << " doc " << id;
    EXPECT_EQ(r.matches, it->second.matches) << label << " doc " << id;
    EXPECT_EQ(r.possible, it->second.possible) << label << " doc " << id;
  }
}

/// The reference that shares no code with Collection: a plaintext walk of
/// each document. Verified and trusted answers equal it exactly; optimistic
/// confirmed matches are a subset of it. `docs` holds (DocId, XmlNode)
/// pairs — every document the collection currently holds.
template <typename Docs>
void ExpectMatchesPlaintext(const Docs& docs, const std::string& tag,
                            VerifyMode mode, const CollectionResult& got,
                            const std::string& label) {
  for (const auto& [id, doc] : docs) {
    const std::vector<std::string> want =
        Sorted(PlaintextLookup(doc, tag).match_paths);
    auto it = got.per_doc.find(id);
    const std::vector<std::string> paths =
        it == got.per_doc.end() ? std::vector<std::string>{}
                                : SortedMatchPaths(it->second.matches);
    if (mode != VerifyMode::kOptimistic) {
      EXPECT_EQ(paths, want) << label << " doc " << id;
      continue;
    }
    for (const std::string& p : paths)
      EXPECT_TRUE(std::binary_search(want.begin(), want.end(), p))
          << label << " doc " << id << " spurious optimistic match " << p;
  }
}

template <typename Docs>
std::vector<std::string> AllTags(const Docs& docs) {
  std::vector<std::string> tags;
  for (const auto& [id, doc] : docs)
    for (const std::string& t : doc.DistinctTags())
      if (std::find(tags.begin(), tags.end(), t) == tags.end())
        tags.push_back(t);
  return tags;
}

// ------------------------------------------------------------ ShardMap --

TEST(ShardMapTest, InvariantsEnforcedOnEveryMutation) {
  ShardMap map;
  ASSERT_TRUE(map.empty());
  ASSERT_TRUE(map.AddShard(0, 0, 100).ok());
  ASSERT_TRUE(map.AddShard(1, 100, 100).ok());

  // Duplicate id and overlapping range are both rejected.
  EXPECT_EQ(map.AddShard(0, 300, 100).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(map.AddShard(2, 50, 100).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(map.AddShard(2, 150, 10).code(), StatusCode::kInvalidArgument);
  // Beyond the int32 id space.
  EXPECT_FALSE(map.AddShard(2, INT32_MAX - 10, 100).ok());
  EXPECT_EQ(map.size(), 2u);

  // Allocation advances next and respects the span.
  EXPECT_EQ(map.Allocate(0, 60).value(), 0);
  EXPECT_EQ(map.Allocate(0, 40).value(), 60);
  EXPECT_FALSE(map.Allocate(0, 1).ok());  // full
  EXPECT_EQ(map.Allocate(1, 10).value(), 100);
  EXPECT_FALSE(map.Allocate(99, 1).ok());  // no such shard

  // PickForAdd prefers the most free space; ties go to the lowest id.
  EXPECT_EQ(map.PickForAdd(10).value(), 1u);
  ASSERT_TRUE(map.SetNext(0, 10).ok());  // both now have 90 free
  EXPECT_EQ(map.PickForAdd(10).value(), 0u);
  EXPECT_FALSE(map.PickForAdd(1000).ok());  // fits nowhere

  // OwnerOfNode routes by containment.
  EXPECT_EQ(map.OwnerOfNode(0)->shard_id, 0u);
  EXPECT_EQ(map.OwnerOfNode(199)->shard_id, 1u);
  EXPECT_EQ(map.OwnerOfNode(200), nullptr);

  // FreeRangeBase finds the first gap, then the high-water mark, and a
  // removed shard's range becomes the gap.
  EXPECT_EQ(map.FreeRangeBase(100).value(), 200);
  ASSERT_TRUE(map.RemoveShard(0).ok());
  EXPECT_EQ(map.FreeRangeBase(100).value(), 0);
  EXPECT_EQ(map.FreeRangeBase(150).value(), 200);
  EXPECT_EQ(map.RemoveShard(0).code(), StatusCode::kNotFound);
}

TEST(ShardMapTest, FromRangesValidatesPersistedTables) {
  auto ok = ShardMap::FromRanges({{1, 100, 100, 40}, {0, 0, 100, 0}});
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_EQ(ok->Find(1)->next, 40);
  // shards() comes back sorted by base regardless of input order.
  EXPECT_EQ(ok->shards().front().shard_id, 0u);

  EXPECT_FALSE(ShardMap::FromRanges({{0, 0, 100, 0}, {0, 200, 100, 0}}).ok());
  EXPECT_FALSE(ShardMap::FromRanges({{0, 0, 100, 0}, {1, 50, 100, 0}}).ok());
  EXPECT_FALSE(ShardMap::FromRanges({{0, 0, 100, 101}}).ok());  // next > span
  EXPECT_FALSE(ShardMap::FromRanges({{0, 0, 100, -1}}).ok());
}

// ------------------------------------------- scatter-gather vs oracle --

TEST(ShardTest, ScatterGatherOverFourShardsMatchesUnshardedBitIdentical) {
  // Same seed, same documents, same add order: the unsharded Collection is
  // the oracle, and every mode's answer (including optimistic "possible"
  // sets, which depend on the actual share polynomials) must be identical.
  DeterministicPrf seed = DeterministicPrf::FromString("shard-oracle");
  std::vector<std::pair<DocId, XmlNode>> docs;
  for (uint64_t d = 0; d < 8; ++d)
    docs.emplace_back(d + 1, MakeDoc(700 + d, 20 + 3 * d, 5));

  auto oracle = FpCollection::Create(seed).value();
  DeployShape deploy;
  deploy.num_shards = 4;
  auto col = FpCollection::Create(seed, deploy).value();
  for (const auto& [id, doc] : docs) {
    ASSERT_TRUE(oracle->Add(id, doc).ok()) << id;
    ASSERT_TRUE(col->Add(id, doc).ok()) << id;
  }
  EXPECT_EQ(col->num_docs(), 8u);
  EXPECT_EQ(col->num_shards(), 4u);
  // Balanced routing put documents on every shard.
  std::map<ShardId, int> spread;
  for (const auto& [id, doc] : docs) ++spread[col->shard_of(id).value()];
  EXPECT_EQ(spread.size(), 4u);

  const std::vector<std::string> tags = AllTags(docs);
  for (const std::string& tag : tags) {
    for (VerifyMode mode : kAllModes) {
      auto want = oracle->Search(tag, mode);
      ASSERT_TRUE(want.ok()) << want.status().ToString();
      auto got = col->Search(tag, mode);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      const std::string label =
          "//" + tag + " mode " + std::to_string(static_cast<int>(mode));
      ExpectSameAnswers(*want, *got, label);
      ExpectMatchesPlaintext(docs, tag, mode, *got, label);
    }
  }

  // Batched form: one shared-frontier session per shard answers them all.
  std::vector<Query> queries;
  for (const std::string& tag : tags)
    queries.push_back({tag, VerifyMode::kVerified});
  auto batched = col->SearchMany(queries).value();
  auto want_batched = oracle->SearchMany(queries).value();
  ASSERT_EQ(batched.size(), queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    ExpectSameAnswers(want_batched[i], batched[i],
                      "batched //" + queries[i].tag);
    ExpectMatchesPlaintext(docs, queries[i].tag, VerifyMode::kVerified,
                           batched[i], "batched //" + queries[i].tag);
  }
}

TEST(ShardTest, SplitAndMergeKeepAnswersBitIdentical) {
  DeterministicPrf seed = DeterministicPrf::FromString("shard-splitmerge");
  std::vector<std::pair<DocId, XmlNode>> docs;
  for (uint64_t d = 0; d < 8; ++d)
    docs.emplace_back(d + 1, MakeDoc(720 + d, 18 + 2 * d, 5));

  auto oracle = FpCollection::Create(seed).value();
  DeployShape deploy;
  deploy.num_shards = 4;
  deploy.worker_threads = 4;  // exercise the pooled fan-out path too
  auto col = FpCollection::Create(seed, deploy).value();
  for (const auto& [id, doc] : docs) {
    ASSERT_TRUE(oracle->Add(id, doc).ok());
    ASSERT_TRUE(col->Add(id, doc).ok());
  }

  const std::vector<std::string> tags = AllTags(docs);
  std::map<DocId, XmlNode> live(docs.begin(), docs.end());
  auto check_all = [&](const std::string& label) {
    for (const std::string& tag : tags) {
      for (VerifyMode mode : kAllModes) {
        auto want = oracle->Search(tag, mode).value();
        auto got = col->Search(tag, mode);
        ASSERT_TRUE(got.ok()) << label << ": " << got.status().ToString();
        ExpectSameAnswers(want, *got, label + " //" + tag);
        ExpectMatchesPlaintext(live, tag, mode, *got, label + " //" + tag);
      }
    }
  };
  check_all("before");

  // Online split: half of shard 0's documents move to brand-new shard 7.
  std::vector<DocId> on_zero;
  for (const auto& [id, doc] : docs)
    if (col->shard_of(id).value() == 0u) on_zero.push_back(id);
  ASSERT_GE(on_zero.size(), 2u);
  ASSERT_TRUE(col->SplitShard(0, 7).ok());
  EXPECT_EQ(col->num_shards(), 5u);
  size_t moved = 0;
  for (DocId id : on_zero)
    if (col->shard_of(id).value() == 7u) ++moved;
  EXPECT_EQ(moved, on_zero.size() / 2);
  check_all("after split");

  // Splitting an unknown shard or reusing a live id fails cleanly.
  EXPECT_EQ(col->SplitShard(99, 8).code(), StatusCode::kNotFound);
  EXPECT_EQ(col->SplitShard(0, 7).code(), StatusCode::kInvalidArgument);

  // Online merge: shard 7 drains back into 0 and retires; answers hold.
  ASSERT_TRUE(col->MergeShards(0, 7).ok());
  EXPECT_EQ(col->num_shards(), 4u);
  for (DocId id : on_zero) EXPECT_EQ(col->shard_of(id).value(), 0u);
  check_all("after merge");
  EXPECT_EQ(col->MergeShards(0, 0).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(col->MergeShards(0, 7).code(), StatusCode::kNotFound);

  // Mutations after the reshape keep working: remove + re-add + search.
  ASSERT_TRUE(col->Remove(docs[0].first).ok());
  ASSERT_TRUE(oracle->Remove(docs[0].first).ok());
  ASSERT_TRUE(col->Add(40, docs[0].second).ok());
  ASSERT_TRUE(oracle->Add(40, docs[0].second).ok());
  live.erase(docs[0].first);
  live.emplace(40, docs[0].second);
  check_all("after churn");
}

TEST(ShardTest, MultiServerSchemesSurviveSplitAndMerge) {
  // Additive 3-of-3 and Shamir 2-of-4 groups: a move must export/re-add
  // every server's tree, or answers would decode to garbage.
  struct Case {
    const char* label;
    DeployShape deploy;
  };
  std::vector<Case> cases;
  Case additive{"additive", {}};
  additive.deploy.scheme = ShareScheme::kAdditive;
  additive.deploy.num_servers = 3;
  additive.deploy.num_shards = 2;
  cases.push_back(additive);
  Case shamir{"shamir", {}};
  shamir.deploy.scheme = ShareScheme::kShamir;
  shamir.deploy.num_servers = 4;
  shamir.deploy.threshold = 2;
  shamir.deploy.num_shards = 2;
  cases.push_back(shamir);

  for (const Case& c : cases) {
    DeterministicPrf seed = DeterministicPrf::FromString("shard-ms");
    FpCollection::Deploy flat;
    flat.scheme = c.deploy.scheme;
    flat.num_servers = c.deploy.num_servers;
    flat.threshold = c.deploy.threshold;
    auto oracle = FpCollection::Create(seed, flat).value();
    auto col = FpCollection::Create(seed, c.deploy).value();
    std::vector<std::pair<DocId, XmlNode>> docs;
    for (uint64_t d = 0; d < 4; ++d)
      docs.emplace_back(d + 1, MakeDoc(740 + d, 16, 5));
    for (const auto& [id, doc] : docs) {
      ASSERT_TRUE(oracle->Add(id, doc).ok()) << c.label;
      ASSERT_TRUE(col->Add(id, doc).ok()) << c.label;
    }

    const std::string tag = docs[0].second.DistinctTags().front();
    ExpectSameAnswers(oracle->Search(tag).value(), col->Search(tag).value(),
                      std::string(c.label) + " before");
    ASSERT_TRUE(col->SplitShard(0, 5).ok()) << c.label;
    ExpectSameAnswers(oracle->Search(tag).value(), col->Search(tag).value(),
                      std::string(c.label) + " after split");
    ASSERT_TRUE(col->MergeShards(1, 5).ok()) << c.label;
    ExpectSameAnswers(oracle->Search(tag).value(), col->Search(tag).value(),
                      std::string(c.label) + " after merge");
  }
}

// ------------------------------------------------------ stats roll-up --

TEST(ShardTest, RollupSumsTrafficAndTakesDeepestShardsRounds) {
  DeterministicPrf seed = DeterministicPrf::FromString("shard-stats");
  DeployShape deploy;
  deploy.num_shards = 4;
  auto col = FpCollection::Create(seed, deploy).value();
  for (uint64_t d = 0; d < 8; ++d)
    ASSERT_TRUE(col->Add(d + 1, MakeDoc(760 + d, 24, 5)).ok());

  auto r = col->Search("tag0").value();
  ASSERT_EQ(r.per_shard.size(), 4u);
  for (size_t i = 1; i < r.per_shard.size(); ++i)
    EXPECT_LT(r.per_shard[i - 1].shard_id, r.per_shard[i].shard_id);

  size_t sum_up = 0, sum_visited = 0, max_rounds = 0;
  for (const ShardQueryStats& s : r.per_shard) {
    sum_up += s.stats.transport.messages_up;
    sum_visited += s.stats.nodes_visited;
    max_rounds = std::max(max_rounds, s.stats.rounds);
    EXPECT_GT(s.stats.nodes_visited, 0u) << "shard " << s.shard_id;
  }
  // Shards walk concurrently: the roll-up's latency proxy is the deepest
  // shard's rounds, while traffic genuinely sums.
  EXPECT_EQ(r.stats.rounds, max_rounds);
  EXPECT_EQ(r.stats.transport.messages_up, sum_up);
  EXPECT_EQ(r.stats.nodes_visited, sum_visited);
  EXPECT_EQ(r.stats.total_server_nodes, col->total_nodes());
}

// ----------------------------------------------------------- liveness --

TEST(ShardTest, DeadShardFailsLoudlyOrIsSkippedOnRequest) {
  DeterministicPrf seed = DeterministicPrf::FromString("shard-dead");
  DeployShape deploy;
  deploy.num_shards = 3;
  auto col = FpCollection::Create(seed, deploy).value();
  std::map<DocId, XmlNode> docs;
  for (uint64_t d = 0; d < 6; ++d) docs.emplace(d + 1, MakeDoc(780 + d, 16, 5));
  for (const auto& [id, doc] : docs) ASSERT_TRUE(col->Add(id, doc).ok());

  ASSERT_TRUE(col->ProbeShard(1).value());
  FaultConfig dead;
  dead.fail_after_calls = 0;
  ASSERT_NE(col->InjectFaults(1, 0, std::move(dead)), nullptr);
  EXPECT_FALSE(col->ProbeShard(1).value());
  EXPECT_EQ(col->ProbeShard(9).status().code(), StatusCode::kNotFound);

  // Default: no partial answers presented as complete — the search fails.
  auto strict = col->Search("tag0");
  ASSERT_FALSE(strict.ok());
  EXPECT_EQ(strict.status().code(), StatusCode::kUnavailable);

  // Opt-in skip: the dead shard is recorded and its documents are absent;
  // the live shards still answer.
  ShardSearchOptions skip;
  skip.skip_dead_shards = true;
  auto partial = col->Search("tag0", VerifyMode::kVerified, skip);
  ASSERT_TRUE(partial.ok()) << partial.status().ToString();
  EXPECT_EQ(partial->skipped_shards, std::vector<ShardId>{1});
  for (const auto& [id, r] : partial->per_doc)
    EXPECT_NE(col->shard_of(id).value(), 1u) << "doc " << id;
  ASSERT_FALSE(partial->per_doc.empty());

  // A move touching the dead shard fails without corrupting the layout.
  std::vector<DocId> on_dead;
  for (const auto& [id, doc] : docs)
    if (col->shard_of(id).value() == 1u) on_dead.push_back(id);
  ASSERT_FALSE(on_dead.empty());
  EXPECT_FALSE(col->MergeShards(0, 1).ok());
  EXPECT_EQ(col->num_shards(), 3u);
  EXPECT_EQ(col->shard_of(on_dead[0]).value(), 1u);
}

TEST(ShardTest, ShamirShardNeedsOnlyThresholdAliveServers) {
  DeterministicPrf seed = DeterministicPrf::FromString("shard-shamir-alive");
  DeployShape deploy;
  deploy.scheme = ShareScheme::kShamir;
  deploy.num_servers = 4;
  deploy.threshold = 2;
  deploy.num_shards = 2;
  auto col = FpCollection::Create(seed, deploy).value();
  for (uint64_t d = 0; d < 4; ++d)
    ASSERT_TRUE(col->Add(d + 1, MakeDoc(790 + d, 16, 5)).ok());

  // Two of four servers die: the shard still probes alive (t = 2) and the
  // session fails over during the walk.
  FaultConfig dead;
  dead.fail_after_calls = 0;
  ASSERT_NE(col->InjectFaults(0, 0, dead), nullptr);
  ASSERT_NE(col->InjectFaults(0, 1, dead), nullptr);
  EXPECT_TRUE(col->ProbeShard(0).value());
  auto r = col->Search("tag0");
  ASSERT_TRUE(r.ok()) << r.status().ToString();

  // A third death drops below threshold: probe says dead, skip mode skips.
  ASSERT_NE(col->InjectFaults(0, 2, dead), nullptr);
  EXPECT_FALSE(col->ProbeShard(0).value());
  ShardSearchOptions skip;
  skip.skip_dead_shards = true;
  auto partial = col->Search("tag0", VerifyMode::kVerified, skip);
  ASSERT_TRUE(partial.ok());
  EXPECT_EQ(partial->skipped_shards, std::vector<ShardId>{0});
}

// -------------------------------------------------------- persistence --

TEST(ShardTest, SaveOpenRoundTripsShardedLayout) {
  DeterministicPrf seed = DeterministicPrf::FromString("shard-persist");
  DeployShape deploy;
  deploy.scheme = ShareScheme::kAdditive;
  deploy.num_servers = 2;
  deploy.num_shards = 3;
  auto col = FpCollection::Create(seed, deploy).value();
  std::map<DocId, XmlNode> docs;
  for (uint64_t d = 0; d < 6; ++d) docs.emplace(d + 1, MakeDoc(800 + d, 18, 5));
  for (const auto& [id, doc] : docs) ASSERT_TRUE(col->Add(id, doc).ok());
  // A split before saving: the persisted table must carry the reshaped
  // layout, not the creation-time one.
  ASSERT_TRUE(col->SplitShard(0, 6).ok());

  const std::string store = "/tmp/polysse_shard_rt.bin";
  const std::string key = "/tmp/polysse_shard_rt.key";
  ASSERT_TRUE(col->Save(store, key).ok());

  auto back = FpCollection::Open(store, key);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ((*back)->num_shards(), col->num_shards());
  EXPECT_EQ((*back)->num_docs(), col->num_docs());
  for (const auto& [id, doc] : docs)
    EXPECT_EQ((*back)->shard_of(id).value(), col->shard_of(id).value());
  for (const auto& [id, doc] : docs) {
    const std::string tag = doc.DistinctTags().front();
    auto want = col->Search(tag).value();
    auto got = (*back)->Search(tag).value();
    ASSERT_EQ(got.per_doc.size(), want.per_doc.size()) << "//" << tag;
    for (const auto& [did, r] : want.per_doc)
      EXPECT_EQ(r.matches, got.per_doc.at(did).matches)
          << "//" << tag << " doc " << did;
  }

  // The reopened collection keeps growing and reshaping.
  ASSERT_TRUE((*back)->Add(50, MakeDoc(810, 14, 5)).ok());
  ASSERT_TRUE((*back)->MergeShards(0, 6).ok());
  EXPECT_TRUE((*back)->Search("tag0").ok());

  // Sharded layouts persist one file per (shard, server).
  EXPECT_TRUE(ReadFileBytes(store + ".g6.s1").ok());

  // An unsharded collection keeps the historical layout — one store file
  // per server and an empty shard table — and reopens as shard 0 through
  // the same loader.
  auto flat = FpCollection::Create(seed).value();
  ASSERT_TRUE(flat->Add(1, docs.at(1)).ok());
  ASSERT_TRUE(flat->Save("/tmp/polysse_flat.bin", "/tmp/polysse_flat.key")
                  .ok());
  auto flat_key_bytes = ReadFileBytes("/tmp/polysse_flat.key").value();
  ByteReader flat_key_reader(flat_key_bytes);
  EXPECT_TRUE(
      ClientSecretFile::Deserialize(&flat_key_reader).value().shards.empty());
  EXPECT_FALSE(ReadFileBytes("/tmp/polysse_flat.bin.g0.s0").ok());
  auto reopened =
      FpCollection::Open("/tmp/polysse_flat.bin", "/tmp/polysse_flat.key");
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->num_shards(), 1u);
  EXPECT_EQ((*reopened)->shard_of(1).value(), 0u);
  const std::string tag = docs.at(1).DistinctTags().front();
  ExpectSameAnswers(flat->Search(tag).value(),
                    (*reopened)->Search(tag).value(), "reopened flat");
}

TEST(ShardTest, ConnectedCollectionScattersOverRealTcpAndSplitsOnline) {
  // Authoring side: build, save, serve every (shard, server) store on its
  // own TCP port. Client side: key file + positional endpoints, then an
  // ONLINE split whose new group is a remote server the client never held
  // stores for — every moved tree travels export -> add over the wire.
  DeterministicPrf seed = DeterministicPrf::FromString("shard-tcp");
  DeployShape deploy;
  deploy.num_shards = 2;
  auto authoring = FpCollection::Create(seed, deploy).value();
  std::map<DocId, XmlNode> docs;
  for (uint64_t d = 0; d < 4; ++d) docs.emplace(d + 1, MakeDoc(820 + d, 18, 5));
  for (const auto& [id, doc] : docs) ASSERT_TRUE(authoring->Add(id, doc).ok());
  const std::string key_path = "/tmp/polysse_shard_tcp.key";
  ASSERT_TRUE(authoring->SaveKey(key_path).ok());

  std::vector<std::unique_ptr<SocketServer>> servers;
  std::vector<std::unique_ptr<SocketEndpoint>> owned_eps;
  std::vector<ServerEndpoint*> eps;
  for (ShardId shard : {ShardId{0}, ShardId{1}}) {
    auto srv = SocketServer::Listen(authoring->handler(shard, 0), 0);
    ASSERT_TRUE(srv.ok()) << srv.status().ToString();
    auto ep = SocketEndpoint::Connect("127.0.0.1", (*srv)->port());
    ASSERT_TRUE(ep.ok()) << ep.status().ToString();
    servers.push_back(std::move(*srv));
    owned_eps.push_back(std::move(*ep));
    eps.push_back(owned_eps.back().get());
  }

  auto key_bytes = ReadFileBytes(key_path).value();
  ByteReader key_reader(key_bytes);
  auto key = ClientSecretFile::Deserialize(&key_reader).value();
  ASSERT_EQ(key.shards.size(), 2u);
  auto col = FpCollection::Connect(key, eps);
  ASSERT_TRUE(col.ok()) << col.status().ToString();
  // Wrong endpoint count is a layout error, not a crash later.
  EXPECT_FALSE(FpCollection::Connect(key, {eps[0]}).ok());

  const std::string tag = docs.at(1).DistinctTags().front();
  auto want = authoring->Search(tag).value();
  auto got = (*col)->Search(tag).value();
  ASSERT_EQ(got.per_doc.size(), want.per_doc.size());
  for (const auto& [id, r] : want.per_doc)
    EXPECT_EQ(r.matches, got.per_doc.at(id).matches) << "doc " << id;

  // Probe over real TCP answers through the shard facade too.
  EXPECT_TRUE((*col)->ProbeShard(0).value());

  // Owned-split on a connected collection is refused up front...
  EXPECT_EQ((*col)->SplitShard(0, 5).code(), StatusCode::kFailedPrecondition);

  // ...but a split onto a caller-provided remote group works online. The
  // new server is an empty registry living "elsewhere".
  ServerStoreRegistry<FpCyclotomicRing> fresh(authoring->ring());
  auto fresh_srv = SocketServer::Listen(&fresh, 0);
  ASSERT_TRUE(fresh_srv.ok());
  auto fresh_ep = SocketEndpoint::Connect("127.0.0.1", (*fresh_srv)->port());
  ASSERT_TRUE(fresh_ep.ok());
  ASSERT_TRUE((*col)->SplitShard(0, 5, {fresh_ep->get()}).ok());
  EXPECT_GT(fresh.num_docs(), 0u);

  auto after = (*col)->Search(tag).value();
  ASSERT_EQ(after.per_doc.size(), want.per_doc.size());
  for (const auto& [id, r] : want.per_doc)
    EXPECT_EQ(r.matches, after.per_doc.at(id).matches) << "doc " << id;

  // The updated key round-trips the connected client's new layout.
  ASSERT_TRUE((*col)->SaveKey(key_path).ok());
  auto key_bytes2 = ReadFileBytes(key_path).value();
  ByteReader key_reader2(key_bytes2);
  auto key2 = ClientSecretFile::Deserialize(&key_reader2).value();
  ASSERT_EQ(key2.shards.size(), 3u);
  std::vector<ServerEndpoint*> eps2 = {eps[0], eps[1], fresh_ep->get()};
  auto col2 = FpCollection::Connect(key2, eps2);
  ASSERT_TRUE(col2.ok()) << col2.status().ToString();
  auto again = (*col2)->Search(tag).value();
  for (const auto& [id, r] : want.per_doc)
    EXPECT_EQ(r.matches, again.per_doc.at(id).matches) << "doc " << id;
}

/// Where the shards of one collection meet: each shard's first Eval waits
/// here until every shard has sent one, or until the deadline — so all of
/// them arrive only when the walks run at the same time.
struct ShardMeeting {
  explicit ShardMeeting(size_t shards) : expected(shards) {}

  void Arrive() {
    std::unique_lock<std::mutex> lock(mu);
    ++arrived;
    cv.notify_all();
    if (!cv.wait_for(lock, std::chrono::seconds(10),
                     [&] { return arrived >= expected || missed; }))
      missed = true;
  }

  std::mutex mu;
  std::condition_variable cv;
  const size_t expected;
  size_t arrived = 0;
  bool missed = false;  ///< a wait ran out: the shards never overlapped
};

/// A shard's endpoint whose first Eval waits at the meeting.
class MeetingEndpoint final : public ServerEndpoint {
 public:
  MeetingEndpoint(ServerEndpoint* inner, ShardMeeting* meeting)
      : inner_(inner), meeting_(meeting) {}

  Result<EvalResponse> Eval(const EvalRequest& req) override {
    if (!arrived_.exchange(true)) meeting_->Arrive();
    return inner_->Eval(req);
  }
  Result<FetchResponse> Fetch(const FetchRequest& req) override {
    return inner_->Fetch(req);
  }
  Result<PingResponse> Ping(const PingRequest& req) override {
    return inner_->Ping(req);
  }
  TransportCounters counters() const override { return inner_->counters(); }

 private:
  ServerEndpoint* inner_;
  ShardMeeting* meeting_;
  std::atomic<bool> arrived_{false};
};

TEST(ShardTest, ConnectedCollectionWalksShardsConcurrently) {
  // A networked client: the key file plus one loopback endpoint per shard,
  // and an external pool. The scatter must run on that pool — every
  // shard's first Eval is held until all four shards have sent theirs.
  DeterministicPrf seed = DeterministicPrf::FromString("shard-overlap");
  DeployShape deploy;
  deploy.num_shards = 4;
  auto authoring = FpCollection::Create(seed, deploy).value();
  std::map<DocId, XmlNode> docs;
  for (uint64_t d = 0; d < 8; ++d) docs.emplace(d + 1, MakeDoc(840 + d, 20, 5));
  for (const auto& [id, doc] : docs) ASSERT_TRUE(authoring->Add(id, doc).ok());
  std::map<ShardId, int> spread;
  for (const auto& [id, doc] : docs) ++spread[authoring->shard_of(id).value()];
  ASSERT_EQ(spread.size(), 4u);  // every shard has a walk to run

  const std::string key_path = "/tmp/polysse_shard_overlap.key";
  ASSERT_TRUE(authoring->SaveKey(key_path).ok());
  auto key_bytes = ReadFileBytes(key_path).value();
  ByteReader key_reader(key_bytes);
  auto key = ClientSecretFile::Deserialize(&key_reader).value();

  ShardMeeting meeting(4);
  std::vector<std::unique_ptr<LoopbackEndpoint>> wires;
  std::vector<std::unique_ptr<MeetingEndpoint>> held;
  std::vector<ServerEndpoint*> plain, meeting_eps;
  for (ShardId shard : {ShardId{0}, ShardId{1}, ShardId{2}, ShardId{3}}) {
    wires.push_back(
        std::make_unique<LoopbackEndpoint>(authoring->handler(shard, 0)));
    held.push_back(
        std::make_unique<MeetingEndpoint>(wires.back().get(), &meeting));
    plain.push_back(wires.back().get());
    meeting_eps.push_back(held.back().get());
  }
  ThreadPool pool(4);
  auto concurrent = FpCollection::Connect(key, meeting_eps, &pool);
  ASSERT_TRUE(concurrent.ok()) << concurrent.status().ToString();
  auto sequential = FpCollection::Connect(key, plain);
  ASSERT_TRUE(sequential.ok()) << sequential.status().ToString();

  const std::vector<std::string> tags = AllTags(docs);
  for (const std::string& tag : tags) {
    for (VerifyMode mode : kAllModes) {
      auto got = (*concurrent)->Search(tag, mode);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      auto want = (*sequential)->Search(tag, mode);
      ASSERT_TRUE(want.ok()) << want.status().ToString();
      const std::string label =
          "//" + tag + " mode " + std::to_string(static_cast<int>(mode));
      ExpectSameAnswers(*want, *got, label);
      ExpectMatchesPlaintext(docs, tag, mode, *got, label);
    }
  }
  std::lock_guard<std::mutex> lock(meeting.mu);
  EXPECT_EQ(meeting.arrived, 4u);
  EXPECT_FALSE(meeting.missed)
      << "the shard walks ran one after another, not on the pool";
}

// -------------------------------------------------- id-space reclamation --

TEST(ShardTest, ChurnThenMergeReclaimsNodeIdSpaceAndBytes) {
  // Remove-heavy lifetime: without compaction the id space only ever
  // grows. Merge + compaction must hand ranges back — the registry's
  // id-space end and the shard map's high-water mark both shrink, and a
  // later split reuses the reclaimed range instead of extending.
  DeterministicPrf seed = DeterministicPrf::FromString("shard-churn");
  DeployShape deploy;
  deploy.num_shards = 2;
  deploy.shard_span = 1 << 12;
  auto col = FpCollection::Create(seed, deploy).value();

  std::map<DocId, XmlNode> docs;
  DocId next_id = 1;
  for (int round = 0; round < 3; ++round) {
    for (int d = 0; d < 4; ++d) {
      XmlNode doc = MakeDoc(840 + 10 * round + d, 16, 5);
      ASSERT_TRUE(col->Add(next_id, doc).ok());
      docs.emplace(next_id, std::move(doc));
      ++next_id;
    }
    // Remove the round's first and last documents: with balanced routing
    // that punches holes into BOTH shards' id ranges.
    for (DocId id : {next_id - 4, next_id - 1}) {
      ASSERT_TRUE(col->Remove(id).ok());
      docs.erase(id);
    }
  }
  ASSERT_EQ(col->num_docs(), 6u);

  auto high_water = [&] {
    int64_t end = 0;
    for (const ShardRange& s : col->shard_map().shards())
      end = std::max(end, s.base + s.next);
    return end;
  };
  auto persisted = [&] {
    size_t sum = 0;
    for (ShardId s : {ShardId{0}, ShardId{1}})
      if (col->registry(s, 0) != nullptr)
        sum += col->registry(s, 0)->PersistedBytes();
    return sum;
  };
  const int64_t leaked_end = high_water();
  const size_t leaked_bytes = persisted();
  const int64_t registry_end_before = col->registry(0)->IdSpaceEnd();

  // Compaction alone packs shard 0 against its base.
  ASSERT_TRUE(col->CompactShard(0).ok());
  int64_t shard0_nodes = 0;
  for (DocId id : col->doc_ids())
    if (col->shard_of(id).value() == 0u)
      shard0_nodes += static_cast<int64_t>(
          col->registry(0)->store(id).value()->size());
  EXPECT_EQ(col->registry(0)->IdSpaceEnd(), shard0_nodes);
  EXPECT_LT(col->registry(0)->IdSpaceEnd(), registry_end_before);

  // Merge: shard 1 drains into 0 and its whole range is reclaimed.
  ASSERT_TRUE(col->MergeShards(0, 1).ok());
  EXPECT_EQ(col->num_shards(), 1u);
  EXPECT_LT(high_water(), leaked_end);
  EXPECT_EQ(col->registry(0)->num_docs(), col->num_docs());
  EXPECT_LE(persisted(), leaked_bytes);

  // Post-reclamation answers still match a from-scratch oracle built by
  // replaying the surviving documents.
  auto oracle = FpCollection::Create(
                    DeterministicPrf::FromString("shard-churn-oracle"))
                    .value();
  for (const auto& [id, doc] : docs) ASSERT_TRUE(oracle->Add(id, doc).ok());
  for (const auto& [id, doc] : docs) {
    const std::string tag = doc.DistinctTags().front();
    auto want = oracle->Search(tag).value();
    auto got = col->Search(tag).value();
    ASSERT_TRUE(want.per_doc.count(id)) << "doc " << id;
    ASSERT_TRUE(got.per_doc.count(id)) << "doc " << id;
    EXPECT_EQ(SortedMatchPaths(got.per_doc.at(id).matches),
              SortedMatchPaths(want.per_doc.at(id).matches))
        << "doc " << id;
  }

  // A fresh split reuses shard 1's retired range: the new base sits inside
  // the old footprint, not past it.
  ASSERT_TRUE(col->SplitShard(0, 3).ok());
  EXPECT_EQ(col->shard_map().Find(3)->base, deploy.shard_span);
  EXPECT_LE(high_water(), leaked_end);
}

// ---------------------------------------------------- failed reshapes --

/// Two shards of four 30-node documents over a 3-tag alphabet, plus the
/// unsharded oracle holding the same documents.
struct ReshapeFixture {
  std::map<DocId, XmlNode> docs;
  std::unique_ptr<FpCollection> oracle;
  std::unique_ptr<FpCollection> col;

  explicit ReshapeFixture(const std::string& label) {
    DeterministicPrf seed = DeterministicPrf::FromString(label);
    for (uint64_t d = 0; d < 8; ++d)
      docs.emplace(d + 1, MakeDoc(860 + d, 30, 3));
    oracle = FpCollection::Create(seed).value();
    DeployShape deploy;
    deploy.num_shards = 2;
    col = FpCollection::Create(seed, deploy).value();
    for (const auto& [id, doc] : docs) {
      EXPECT_TRUE(oracle->Add(id, doc).ok());
      EXPECT_TRUE(col->Add(id, doc).ok());
    }
  }

  void ExpectAnswersHold(const std::string& label) {
    for (const std::string tag : {"tag0", "tag1", "tag2"}) {
      for (VerifyMode mode : kAllModes) {
        auto got = col->Search(tag, mode);
        ASSERT_TRUE(got.ok()) << label << " //" << tag << ": "
                              << got.status().ToString();
        ExpectSameAnswers(oracle->Search(tag, mode).value(), *got,
                          label + " //" + tag);
        ExpectMatchesPlaintext(docs, tag, mode, *got, label + " //" + tag);
      }
    }
  }
};

TEST(ShardTest, SplitFailingPartwayLeavesCollectionSearchable) {
  ReshapeFixture f("shard-split-fails");
  // Shard 0's server answers two more calls: the first moving document is
  // exported and retired, the second export fails. The moved document now
  // sits at a higher base than documents left behind.
  FaultInjectingEndpoint* fault = f.col->InjectFaults(0, 0, {});
  ASSERT_NE(fault, nullptr);
  fault->config().fail_after_calls = fault->calls() + 2;
  EXPECT_EQ(f.col->SplitShard(0, 5).code(), StatusCode::kUnavailable);
  fault->config().fail_after_calls = SIZE_MAX;
  EXPECT_EQ(f.col->num_shards(), 3u);
  f.ExpectAnswersHold("after failed split");

  // The half-done layout stays reshapeable: shard 5 drains back into 0.
  ASSERT_TRUE(f.col->MergeShards(0, 5).ok());
  f.ExpectAnswersHold("after merging the split back");
}

TEST(ShardTest, MergeFailingPartwayLeavesCollectionSearchable) {
  ReshapeFixture f("shard-merge-fails");
  // Shard 0 drains into shard 1's higher range; its server fails on the
  // second document's export.
  FaultInjectingEndpoint* fault = f.col->InjectFaults(0, 0, {});
  ASSERT_NE(fault, nullptr);
  fault->config().fail_after_calls = fault->calls() + 2;
  EXPECT_EQ(f.col->MergeShards(1, 0).code(), StatusCode::kUnavailable);
  fault->config().fail_after_calls = SIZE_MAX;
  EXPECT_EQ(f.col->num_shards(), 2u);
  f.ExpectAnswersHold("after failed merge");

  // Retrying once the server is back finishes the merge.
  ASSERT_TRUE(f.col->MergeShards(1, 0).ok());
  EXPECT_EQ(f.col->num_shards(), 1u);
  f.ExpectAnswersHold("after retried merge");
}

// ------------------------------------------- cache + Bloom at 4 shards --

TEST(ShardTest, CacheAndBloomPrefilterAtFourShardsMatchColdAnswers) {
  DeterministicPrf seed = DeterministicPrf::FromString("shard-cache-bloom");
  std::map<DocId, XmlNode> docs;
  for (uint64_t d = 0; d < 8; ++d) docs.emplace(d + 1, MakeDoc(880 + d, 8, 8));
  DeployShape deploy;
  deploy.num_shards = 4;
  auto cold = FpCollection::Create(seed, deploy).value();
  auto hot = FpCollection::Create(seed, deploy).value();
  hot->EnableBloomPrefilter();
  hot->SetQueryCacheCapacity(64);
  for (const auto& [id, doc] : docs) {
    ASSERT_TRUE(cold->Add(id, doc).ok());
    ASSERT_TRUE(hot->Add(id, doc).ok());
  }

  // First query per (tag, mode) walks, filtered; the repeat is a cache hit
  // that touches no server of any shard. Both equal the cold answer.
  size_t filtered = 0;
  for (const std::string& tag : AllTags(docs)) {
    for (VerifyMode mode : kAllModes) {
      const std::string label =
          "//" + tag + " mode " + std::to_string(static_cast<int>(mode));
      auto want = cold->Search(tag, mode).value();
      auto got = hot->Search(tag, mode).value();
      filtered += hot->last_prefilter_skipped();
      ExpectSameAnswers(want, got, label);
      const TransportCounters before = hot->transport_totals();
      auto again = hot->Search(tag, mode).value();
      const TransportCounters after = hot->transport_totals();
      EXPECT_EQ(after.messages_up, before.messages_up) << label;
      EXPECT_EQ(after.messages_down, before.messages_down) << label;
      EXPECT_EQ(after.bytes_up, before.bytes_up) << label;
      ExpectSameAnswers(want, again, label + " (cached)");
    }
  }
  EXPECT_GT(filtered, 0u) << "the pre-filter never ruled a document out";
  const std::vector<Query> batch = {{"tag0", VerifyMode::kVerified},
                                    {"tag3", VerifyMode::kTrustedConstOnly}};
  auto want_batch = cold->SearchMany(batch).value();
  auto got_batch = hot->SearchMany(batch).value();
  for (size_t i = 0; i < batch.size(); ++i)
    ExpectSameAnswers(want_batch[i], got_batch[i], "batch " + batch[i].tag);

  // Every mutation, fault injection and reshape retires cached answers: a
  // reshape moves bases and stats even though localized matches stay put.
  const std::string tag = docs.at(1).DistinctTags().front();
  auto expect_miss = [&](const std::string& label) {
    const TransportCounters before = hot->transport_totals();
    auto got = hot->Search(tag);
    ASSERT_TRUE(got.ok()) << label << ": " << got.status().ToString();
    EXPECT_GT(hot->transport_totals().messages_up, before.messages_up)
        << label << " served a stale cached answer";
    ExpectSameAnswers(cold->Search(tag).value(), *got, label);
  };
  auto warm = [&] { ASSERT_TRUE(hot->Search(tag).ok()); };
  const XmlNode extra = MakeDoc(899, 8, 8);
  warm();
  ASSERT_TRUE(cold->Add(50, extra).ok());
  ASSERT_TRUE(hot->Add(50, extra).ok());
  expect_miss("Add");
  warm();
  ASSERT_TRUE(cold->Remove(50).ok());
  ASSERT_TRUE(hot->Remove(50).ok());
  expect_miss("Remove");
  warm();
  ASSERT_NE(hot->InjectFaults(0, 0, {}), nullptr);
  expect_miss("InjectFaults");
  warm();
  ASSERT_TRUE(hot->SplitShard(0, 9).ok());
  expect_miss("SplitShard");
  warm();
  ASSERT_TRUE(hot->MergeShards(0, 9).ok());
  expect_miss("MergeShards");
  warm();
  ASSERT_TRUE(hot->CompactShard(1).ok());
  expect_miss("CompactShard");
}

// ------------------------------------------------------------- Z ring --

TEST(ShardTest, ZRingShardedCollectionWorks) {
  DeterministicPrf seed = DeterministicPrf::FromString("shard-z");
  auto parse = [](const std::string& s) { return ParseXml(s).value(); };
  DeployShape deploy;
  deploy.num_shards = 2;
  auto col = ZCollection::Create(seed, deploy).value();
  auto oracle = ZCollection::Create(seed).value();
  std::map<DocId, XmlNode> docs = {
      {1, parse("<r><a/><b/></r>")},
      {2, parse("<r><a/><a/><c/></r>")},
      {3, parse("<s><b/><c/></s>")},
      {4, parse("<t><a/></t>")}};
  for (const auto& [id, doc] : docs) {
    ASSERT_TRUE(col->Add(id, doc).ok());
    ASSERT_TRUE(oracle->Add(id, doc).ok());
  }
  ExpectSameAnswers(oracle->Search("a").value(), col->Search("a").value(),
                    "z //a");
  ASSERT_TRUE(col->SplitShard(0, 2).ok());
  ExpectSameAnswers(oracle->Search("a").value(), col->Search("a").value(),
                    "z //a after split");
  ASSERT_TRUE(col->MergeShards(1, 2).ok());
  ExpectSameAnswers(oracle->Search("a").value(), col->Search("a").value(),
                    "z //a after merge");
}

}  // namespace
}  // namespace polysse
