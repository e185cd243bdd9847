// End-to-end tests of the polysse::Collection facade:
//  * cross-document Search/SearchXPath answers match per-document oracles,
//    under every verify mode and every share scheme;
//  * the shared frontier costs strictly fewer wire messages (and no more
//    rounds) than walking the documents sequentially;
//  * Add/Remove against a live deployment leave the other documents'
//    answers bit-identical, and never re-outsource them;
//  * Save/Open round-trips multi-document additive and Shamir collections,
//    an empty Z collection reopens and grows like a never-saved one, and a
//    bare single-tree store file is refused;
//  * clean failures: duplicate ids, missing ids, exhausted tag capacity;
//    servers lying about the tree's shape are Corruption in every scheme.
#include <gtest/gtest.h>

#include <cstdio>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "core/collection.h"
#include "index/secure_collection.h"
#include "testing/deploy_helpers.h"
#include "testing/query_helpers.h"
#include "xml/xml_generator.h"
#include "xml/xml_parser.h"

namespace polysse {
namespace {

using testing::MakeFpDeployment;
using testing::OneDocFpCollection;
using testing::SortedMatchPaths;
using testing::TestSession;

XmlNode MakeDoc(uint64_t seed, size_t num_nodes = 40, size_t alphabet = 6) {
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

/// Plaintext oracle: every element of `doc` whose tag is `tag`, as paths.
std::vector<std::string> PlaintextMatches(const XmlNode& doc,
                                          const std::string& tag) {
  std::vector<std::string> out;
  doc.Preorder([&](const XmlNode& n, const std::vector<int>& path) {
    if (n.name() == tag) out.push_back(PathToString(path));
  });
  std::sort(out.begin(), out.end());
  return out;
}

TEST(CollectionTest, CrossDocumentSearchMatchesPlaintextPerDoc) {
  DeterministicPrf seed = DeterministicPrf::FromString("col-basic");
  std::map<DocId, XmlNode> docs = {
      {7, MakeDoc(901)}, {13, MakeDoc(902, 30, 5)}, {2, MakeDoc(903, 50, 7)}};

  for (ShareScheme scheme :
       {ShareScheme::kTwoParty, ShareScheme::kAdditive, ShareScheme::kShamir}) {
    FpCollection::Deploy deploy;
    deploy.scheme = scheme;
    deploy.num_servers = scheme == ShareScheme::kTwoParty ? 1 : 3;
    deploy.threshold = scheme == ShareScheme::kShamir ? 2 : 0;
    auto col = FpCollection::Create(seed, deploy);
    ASSERT_TRUE(col.ok()) << col.status().ToString();
    for (const auto& [id, doc] : docs)
      ASSERT_TRUE((*col)->Add(id, doc).ok()) << id;
    EXPECT_EQ((*col)->num_docs(), 3u);

    // Collect every tag appearing anywhere in the collection.
    std::vector<std::string> all_tags;
    for (const auto& [id, doc] : docs)
      for (const std::string& t : doc.DistinctTags())
        if (std::find(all_tags.begin(), all_tags.end(), t) == all_tags.end())
          all_tags.push_back(t);

    for (const std::string& tag : all_tags) {
      for (VerifyMode mode : kAllModes) {
        auto r = (*col)->Search(tag, mode);
        ASSERT_TRUE(r.ok()) << tag << ": " << r.status().ToString();
        for (const auto& [id, doc] : docs) {
          std::vector<std::string> expected = PlaintextMatches(doc, tag);
          auto it = r->per_doc.find(id);
          std::vector<std::string> got =
              it == r->per_doc.end()
                  ? std::vector<std::string>{}
                  : SortedMatchPaths(it->second.matches);
          if (mode == VerifyMode::kOptimistic) {
            // Optimistic answers may under-report as "possible"; definite
            // matches must still be a subset of the truth.
            for (const std::string& path : got)
              EXPECT_TRUE(std::find(expected.begin(), expected.end(), path) !=
                          expected.end())
                  << "//" << tag << " doc " << id;
          } else {
            EXPECT_EQ(got, expected)
                << "//" << tag << " doc " << id << " mode "
                << static_cast<int>(mode);
          }
        }
      }
    }
  }
}

TEST(CollectionTest, SearchDocMatchesCollectionPartition) {
  DeterministicPrf seed = DeterministicPrf::FromString("col-perdoc");
  auto col = FpCollection::Create(seed).value();
  XmlNode a = MakeDoc(911), b = MakeDoc(912, 30, 5);
  ASSERT_TRUE(col->Add(1, a).ok());
  ASSERT_TRUE(col->Add(2, b).ok());
  for (const std::string& tag : a.DistinctTags()) {
    auto whole = col->Search(tag).value();
    auto solo = col->SearchDoc(1, tag).value();
    std::vector<std::string> from_whole =
        whole.per_doc.count(1)
            ? SortedMatchPaths(whole.per_doc.at(1).matches)
            : std::vector<std::string>{};
    EXPECT_EQ(SortedMatchPaths(solo.matches), from_whole) << tag;
  }
}

TEST(CollectionTest, SharedFrontierBeatsSequentialWalks) {
  DeterministicPrf seed = DeterministicPrf::FromString("col-frontier");
  auto col = FpCollection::Create(seed).value();
  constexpr int kDocs = 8;
  for (int d = 0; d < kDocs; ++d)
    ASSERT_TRUE(col->Add(static_cast<DocId>(d), MakeDoc(920 + d)).ok());
  const std::string tag = "tag0";  // generator tags are tag0..tagN

  // Sequential: one pruned walk per document.
  size_t seq_rounds = 0, seq_messages = 0;
  for (int d = 0; d < kDocs; ++d) {
    auto r = col->SearchDoc(static_cast<DocId>(d), tag).value();
    seq_rounds += r.stats.rounds;
    seq_messages += r.stats.transport.messages_up;
  }

  // Collection-wide: ONE walk whose frontier spans all documents.
  auto shared = col->Search(tag).value();
  EXPECT_LT(shared.stats.rounds, seq_rounds)
      << "shared frontier must coalesce per-document rounds";
  EXPECT_LT(shared.stats.transport.messages_up, seq_messages);
  // Rounds of the shared walk track the DEEPEST document, not the sum.
  size_t max_rounds = 0;
  for (int d = 0; d < kDocs; ++d) {
    auto r = col->SearchDoc(static_cast<DocId>(d), tag).value();
    max_rounds = std::max(max_rounds, r.stats.rounds);
  }
  // The shared walk needs at most a couple of extra rounds beyond the
  // deepest doc (verification fetches don't add rounds).
  EXPECT_LE(shared.stats.rounds, max_rounds + 1);
}

TEST(CollectionTest, AddAndRemoveLeaveOtherDocumentsBitIdentical) {
  DeterministicPrf seed = DeterministicPrf::FromString("col-stable");
  auto col = FpCollection::Create(seed).value();
  XmlNode a = MakeDoc(931), b = MakeDoc(932, 30, 5), c = MakeDoc(933, 20, 4);
  ASSERT_TRUE(col->Add(1, a).ok());
  ASSERT_TRUE(col->Add(2, b).ok());

  auto snapshot = [&](DocId id, const XmlNode& doc) {
    std::map<std::string, std::vector<std::string>> out;
    for (const std::string& tag : doc.DistinctTags())
      out[tag] = SortedMatchPaths(col->SearchDoc(id, tag).value().matches);
    return out;
  };
  auto before_a = snapshot(1, a);
  auto before_b = snapshot(2, b);

  // Live add: docs 1 and 2 must answer identically afterwards.
  ASSERT_TRUE(col->Add(3, c).ok());
  EXPECT_EQ(snapshot(1, a), before_a);
  EXPECT_EQ(snapshot(2, b), before_b);

  // Live remove: the removed doc vanishes, the others stay identical.
  ASSERT_TRUE(col->Remove(2).ok());
  EXPECT_EQ(snapshot(1, a), before_a);
  auto r = col->Search(b.DistinctTags().front()).value();
  EXPECT_EQ(r.per_doc.count(2), 0u);
  EXPECT_FALSE(col->contains(2));

  // Node-id ranges are never reused: re-adding under the same id works and
  // the doc's fresh share namespace differs from the retired one.
  ASSERT_TRUE(col->Add(2, b).ok());
  EXPECT_EQ(snapshot(2, b), before_b);
  EXPECT_EQ(snapshot(1, a), before_a);
}

TEST(CollectionTest, AddDoesNotReOutsourceExistingDocuments) {
  DeterministicPrf seed = DeterministicPrf::FromString("col-incremental");
  auto col = FpCollection::Create(seed).value();
  ASSERT_TRUE(col->Add(0, MakeDoc(941)).ok());
  // Snapshot server 0's share tree for doc 0 (stable pointer).
  const ServerStore<FpCyclotomicRing>* store0 = col->doc_store(0, 0).value();
  const auto root_before = store0->tree().nodes[0].poly;
  const size_t size_before = store0->size();

  for (int d = 1; d <= 20; ++d)
    ASSERT_TRUE(col->Add(static_cast<DocId>(d), MakeDoc(941 + d, 15, 4)).ok());

  // Doc 0's registered store object is untouched — not re-split, not
  // re-registered.
  EXPECT_EQ(col->doc_store(0, 0).value(), store0);
  EXPECT_EQ(store0->size(), size_before);
  EXPECT_TRUE(col->ring().Equal(store0->tree().nodes[0].poly, root_before));
}

TEST(CollectionTest, BatchedSearchManySharesOneWalk) {
  DeterministicPrf seed = DeterministicPrf::FromString("col-batch");
  auto col = FpCollection::Create(seed).value();
  XmlNode a = MakeDoc(951), b = MakeDoc(952, 30, 5);
  ASSERT_TRUE(col->Add(1, a).ok());
  ASSERT_TRUE(col->Add(2, b).ok());

  std::vector<Query> queries;
  for (const std::string& tag : a.DistinctTags())
    queries.push_back({tag, VerifyMode::kVerified});
  auto batched = col->SearchMany(queries).value();
  ASSERT_EQ(batched.size(), queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    auto solo = col->Search(queries[i].tag).value();
    for (DocId id : {DocId{1}, DocId{2}}) {
      std::vector<std::string> b_paths =
          batched[i].per_doc.count(id)
              ? SortedMatchPaths(batched[i].per_doc.at(id).matches)
              : std::vector<std::string>{};
      std::vector<std::string> s_paths =
          solo.per_doc.count(id)
              ? SortedMatchPaths(solo.per_doc.at(id).matches)
              : std::vector<std::string>{};
      EXPECT_EQ(b_paths, s_paths) << queries[i].tag << " doc " << id;
    }
  }
}

TEST(CollectionTest, CrossDocumentXPath) {
  DeterministicPrf seed = DeterministicPrf::FromString("col-xpath");
  auto col = FpCollection::Create(seed).value();
  auto parse = [](const std::string& s) { return ParseXml(s).value(); };
  ASSERT_TRUE(
      col->Add(1, parse("<lib><shelf><book/><pen/></shelf></lib>")).ok());
  ASSERT_TRUE(
      col->Add(2, parse("<lib><box><book/></box><book/></lib>")).ok());
  ASSERT_TRUE(col->Add(3, parse("<lib><pen/></lib>")).ok());

  auto r = col->SearchXPath("//shelf/book").value();
  ASSERT_EQ(r.per_doc.size(), 1u);
  EXPECT_EQ(SortedMatchPaths(r.per_doc.at(1).matches),
            (std::vector<std::string>{"0/0"}));

  auto all_books = col->SearchXPath("//book").value();
  ASSERT_EQ(all_books.per_doc.size(), 2u);
  EXPECT_EQ(all_books.per_doc.at(1).matches.size(), 1u);
  EXPECT_EQ(all_books.per_doc.at(2).matches.size(), 2u);
}

TEST(CollectionTest, CleanFailures) {
  DeterministicPrf seed = DeterministicPrf::FromString("col-fail");
  auto col = FpCollection::Create(seed).value();

  // Empty collection: queries answer empty, not crash.
  auto empty = col->Search("anything");
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->per_doc.empty());

  ASSERT_TRUE(col->Add(1, MakeDoc(961)).ok());
  EXPECT_EQ(col->Add(1, MakeDoc(962)).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(col->Remove(99).code(), StatusCode::kNotFound);

  // Tag capacity exhaustion: a tiny explicit field fills up; the failing
  // Add leaves the collection fully usable.
  FpOutsourceOptions tiny;
  tiny.p = 5;  // values {1..3}
  auto small = FpCollection::Create(seed, {}, tiny).value();
  ASSERT_TRUE(
      small->Add(1, ParseXml("<a><b/><c/></a>").value()).ok());
  Status s = small->Add(2, ParseXml("<d><e/><f/></d>").value());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << s.ToString();
  EXPECT_EQ(small->num_docs(), 1u);
  auto still = small->Search("b");
  ASSERT_TRUE(still.ok());
  EXPECT_EQ(still->per_doc.at(1).matches.size(), 1u);
}

TEST(CollectionTest, SaveOpenRoundTripsMultiDocSchemes) {
  DeterministicPrf seed = DeterministicPrf::FromString("col-persist");
  std::map<DocId, XmlNode> docs = {{5, MakeDoc(971)},
                                   {9, MakeDoc(972, 30, 5)},
                                   {11, MakeDoc(973, 20, 4)}};

  struct Case {
    const char* label;
    FpCollection::Deploy deploy;
  };
  std::vector<Case> cases;
  cases.push_back({"2party", {}});
  Case additive{"additive-3", {}};
  additive.deploy.scheme = ShareScheme::kAdditive;
  additive.deploy.num_servers = 3;
  cases.push_back(additive);
  Case shamir{"shamir-2of4", {}};
  shamir.deploy.scheme = ShareScheme::kShamir;
  shamir.deploy.num_servers = 4;
  shamir.deploy.threshold = 2;
  cases.push_back(shamir);

  for (const Case& c : cases) {
    auto col = FpCollection::Create(seed, c.deploy).value();
    for (const auto& [id, doc] : docs) ASSERT_TRUE(col->Add(id, doc).ok());

    const std::string store = std::string("/tmp/polysse_col_") + c.label;
    const std::string key = store + ".key";
    ASSERT_TRUE(col->Save(store, key).ok()) << c.label;

    auto back = FpCollection::Open(store, key);
    ASSERT_TRUE(back.ok()) << c.label << ": " << back.status().ToString();
    EXPECT_EQ((*back)->num_docs(), 3u);
    EXPECT_EQ((*back)->doc_ids(), col->doc_ids());
    for (const auto& [id, doc] : docs) {
      for (const std::string& tag : doc.DistinctTags()) {
        auto expect = col->Search(tag).value();
        auto got = (*back)->Search(tag).value();
        ASSERT_EQ(got.per_doc.count(id), expect.per_doc.count(id))
            << c.label << " doc " << id << " //" << tag;
        if (expect.per_doc.count(id)) {
          EXPECT_EQ(SortedMatchPaths(got.per_doc.at(id).matches),
                    SortedMatchPaths(expect.per_doc.at(id).matches))
              << c.label << " doc " << id << " //" << tag;
        }
      }
    }

    // The reopened collection keeps growing: Add must keep working with
    // fresh node-id ranges.
    XmlNode extra = MakeDoc(974, 15, 4);
    ASSERT_TRUE((*back)->Add(21, extra).ok()) << c.label;
    auto extra_r = (*back)->SearchDoc(21, extra.DistinctTags().front());
    ASSERT_TRUE(extra_r.ok());
  }
}

TEST(CollectionTest, BareSingleTreeStoreFileIsRefused) {
  // Store files are "PSSC" collection containers. A bare "PSSE" share
  // tree in a store's place is Corruption, both to the registry loader and
  // to Open, never a collection with a synthesized document.
  XmlNode doc = MakeDoc(981);
  DeterministicPrf seed = DeterministicPrf::FromString("col-bare-store");
  auto one = OneDocFpCollection(doc, seed).value();
  const std::string store = "/tmp/polysse_bare_store.bin";
  const std::string key = "/tmp/polysse_bare_store.key";
  ASSERT_TRUE(one->Save(store, key).ok());
  ASSERT_TRUE(FpCollection::Open(store, key).ok());

  ByteWriter bare;
  SaveServerStore(*one->doc_store(0, 0).value(), &bare);
  auto registry = LoadStoreRegistry<FpCyclotomicRing>(bare.span());
  ASSERT_FALSE(registry.ok());
  EXPECT_EQ(registry.status().code(), StatusCode::kCorruption);

  ASSERT_TRUE(WriteFileBytes(store, bare.span()).ok());
  auto col = FpCollection::Open(store, key);
  ASSERT_FALSE(col.ok());
  EXPECT_EQ(col.status().code(), StatusCode::kCorruption)
      << col.status().ToString();
}

TEST(CollectionTest, RootSharePrefixNeverReusedAfterRemove) {
  // The FIRST document a collection ever adds takes the root PRF
  // namespace (prefix ""). After a remove/re-add cycle a fresh document
  // must NOT inherit it — a reused namespace would reuse share masks
  // across different plaintexts.
  XmlNode doc = MakeDoc(991);
  DeterministicPrf seed = DeterministicPrf::FromString("col-prefix");
  auto col = FpCollection::Create(seed).value();
  ASSERT_TRUE(col->Add(0, doc).ok());
  EXPECT_EQ(col->share_prefix(0).value(), "");

  ASSERT_TRUE(col->Remove(0).ok());
  ASSERT_TRUE(col->Add(0, doc).ok());
  EXPECT_NE(col->share_prefix(0).value(), "");
  auto r = col->SearchDoc(0, doc.DistinctTags().front());
  ASSERT_TRUE(r.ok()) << r.status().ToString();
}

TEST(CollectionTest, ZRingCollectionWorks) {
  DeterministicPrf seed = DeterministicPrf::FromString("col-z");
  auto col = ZCollection::Create(seed).value();
  auto parse = [](const std::string& s) { return ParseXml(s).value(); };
  ASSERT_TRUE(col->Add(1, parse("<r><a/><b/></r>")).ok());
  ASSERT_TRUE(col->Add(2, parse("<r><a/><a/><c/></r>")).ok());
  auto r = col->Search("a").value();
  ASSERT_EQ(r.per_doc.size(), 2u);
  EXPECT_EQ(r.per_doc.at(1).matches.size(), 1u);
  EXPECT_EQ(r.per_doc.at(2).matches.size(), 2u);

  ASSERT_TRUE(col->Save("/tmp/polysse_colz.bin", "/tmp/polysse_colz.key")
                  .ok());
  auto back = ZCollection::Open("/tmp/polysse_colz.bin",
                                "/tmp/polysse_colz.key");
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  auto again = (*back)->Search("a").value();
  EXPECT_EQ(again.per_doc.at(2).matches.size(), 2u);
}

TEST(CollectionTest, EmptyZCollectionReopensAndGrows) {
  // A Z collection saved before its first Add reopens with the tag-value
  // range Create chose: the still-empty map in the key file carries it.
  // The reopened collection then maps, shares and answers exactly like
  // one that was never saved.
  DeterministicPrf seed = DeterministicPrf::FromString("col-z-empty");
  XmlNode doc = MakeDoc(996, 30, 5);
  const std::string store = "/tmp/polysse_colz_empty.bin";
  ASSERT_TRUE(
      ZCollection::Create(seed).value()->Save(store, store + ".key").ok());
  auto back = ZCollection::Open(store, store + ".key");
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  Status added = (*back)->Add(1, doc);
  ASSERT_TRUE(added.ok()) << added.ToString();

  auto fresh = ZCollection::Create(seed).value();
  ASSERT_TRUE(fresh->Add(1, doc).ok());
  EXPECT_EQ((*back)->client().tag_map().Entries(),
            fresh->client().tag_map().Entries());
  for (const std::string& tag : doc.DistinctTags()) {
    for (VerifyMode mode : kAllModes) {
      auto got = (*back)->Search(tag, mode);
      auto want = fresh->Search(tag, mode);
      ASSERT_TRUE(got.ok() && want.ok()) << "//" << tag;
      ASSERT_EQ(got->per_doc.count(1), want->per_doc.count(1)) << "//" << tag;
      if (want->per_doc.count(1) == 0) continue;
      EXPECT_EQ(SortedMatchPaths(got->per_doc.at(1).matches),
                SortedMatchPaths(want->per_doc.at(1).matches))
          << "//" << tag << " mode " << static_cast<int>(mode);
      EXPECT_EQ(SortedMatchPaths(got->per_doc.at(1).possible),
                SortedMatchPaths(want->per_doc.at(1).possible))
          << "//" << tag << " mode " << static_cast<int>(mode);
    }
  }
  // Same client secret state, byte for byte.
  ASSERT_TRUE((*back)->SaveKey(store + ".back.key").ok());
  ASSERT_TRUE(fresh->SaveKey(store + ".fresh.key").ok());
  EXPECT_EQ(ReadFileBytes(store + ".back.key").value(),
            ReadFileBytes(store + ".fresh.key").value());
}

TEST(CollectionTest, SecureCollectionServiceDecryptsPerDocument) {
  DeterministicPrf seed = DeterministicPrf::FromString("col-content");
  auto svc = SecureCollectionService::Create(seed).value();
  auto parse = [](const std::string& s) { return ParseXml(s).value(); };
  ASSERT_TRUE(svc->Add(1, parse("<mail><subject>hello</subject>"
                                "<body>first body</body></mail>"))
                  .ok());
  ASSERT_TRUE(svc->Add(2, parse("<mail><subject>again</subject>"
                                "<body>second body</body></mail>"))
                  .ok());

  auto bodies = svc->Query("//body").value();
  ASSERT_EQ(bodies.size(), 2u);
  EXPECT_EQ(bodies.at(1)[0].text, "first body");
  EXPECT_EQ(bodies.at(2)[0].text, "second body");
  EXPECT_GT(svc->last_payload_bytes(), 0u);

  ASSERT_TRUE(svc->Remove(1).ok());
  auto after = svc->Lookup("body").value();
  ASSERT_EQ(after.size(), 1u);
  EXPECT_EQ(after.at(2)[0].text, "second body");
}

/// Bit-identical answers: same docs, same node ids, same paths, same
/// possible sets (both sides are SortMatches-ordered already).
void ExpectSameAnswers(const CollectionResult& want,
                       const CollectionResult& got) {
  ASSERT_EQ(want.per_doc.size(), got.per_doc.size());
  for (const auto& [id, r] : want.per_doc) {
    auto it = got.per_doc.find(id);
    ASSERT_NE(it, got.per_doc.end()) << "doc " << id;
    EXPECT_EQ(r.matches, it->second.matches) << "doc " << id;
    EXPECT_EQ(r.possible, it->second.possible) << "doc " << id;
  }
}

TEST(CollectionTest, QueryCacheRepeatIsFreeAndInvalidatesOnMutation) {
  std::map<DocId, XmlNode> docs = {{1, MakeDoc(921)}, {2, MakeDoc(922, 30, 5)}};
  XmlNode extra = MakeDoc(923, 20, 5);
  for (ShareScheme scheme :
       {ShareScheme::kTwoParty, ShareScheme::kAdditive, ShareScheme::kShamir}) {
    DeterministicPrf seed = DeterministicPrf::FromString("col-cache");
    FpCollection::Deploy deploy;
    deploy.scheme = scheme;
    deploy.num_servers = scheme == ShareScheme::kTwoParty ? 1 : 3;
    deploy.threshold = scheme == ShareScheme::kShamir ? 2 : 0;
    auto col = FpCollection::Create(seed, deploy).value();
    for (const auto& [id, doc] : docs) ASSERT_TRUE(col->Add(id, doc).ok());
    col->SetQueryCacheCapacity(4);

    const std::string tag = docs.at(1).DistinctTags()[0];
    auto cold = col->Search(tag).value();
    TransportCounters before = col->transport_totals();
    auto warm = col->Search(tag).value();
    TransportCounters after = col->transport_totals();
    EXPECT_EQ(after.messages_up, before.messages_up)
        << "cache hit must not touch the wire";
    EXPECT_EQ(after.messages_down, before.messages_down);
    ExpectSameAnswers(cold, warm);

    // Add invalidates: the re-query hits the wire again and equals what a
    // cold session over the mutated collection answers.
    ASSERT_TRUE(col->Add(3, extra).ok());
    before = col->transport_totals();
    auto fresh = col->Search(tag).value();
    EXPECT_GT(col->transport_totals().messages_up, before.messages_up);
    auto ref = FpCollection::Create(seed, deploy).value();
    for (const auto& [id, doc] : docs) ASSERT_TRUE(ref->Add(id, doc).ok());
    ASSERT_TRUE(ref->Add(3, extra).ok());
    ExpectSameAnswers(ref->Search(tag).value(), fresh);

    // Remove invalidates too.
    ASSERT_TRUE(col->Remove(1).ok());
    auto post = col->Search(tag).value();
    EXPECT_EQ(post.per_doc.count(1), 0u);
    ASSERT_TRUE(ref->Remove(1).ok());
    ExpectSameAnswers(ref->Search(tag).value(), post);
  }
}

TEST(CollectionTest, CachedSearchManyAndXPathAreZeroMessage) {
  DeterministicPrf seed = DeterministicPrf::FromString("col-cache-many");
  auto col = FpCollection::Create(seed).value();
  XmlNode a = MakeDoc(931), b = MakeDoc(932, 30, 5);
  ASSERT_TRUE(col->Add(1, a).ok());
  ASSERT_TRUE(col->Add(2, b).ok());
  col->SetQueryCacheCapacity(8);

  std::vector<Query> queries = {
      {a.DistinctTags()[0], VerifyMode::kVerified},
      {b.DistinctTags()[0], VerifyMode::kTrustedConstOnly}};
  auto cold = col->SearchMany(queries).value();
  const std::string xpath = "//" + a.DistinctTags()[0];
  auto x_cold = col->SearchXPath(xpath).value();

  TransportCounters before = col->transport_totals();
  auto warm = col->SearchMany(queries).value();
  auto x_warm = col->SearchXPath(xpath).value();
  TransportCounters after = col->transport_totals();
  EXPECT_EQ(after.messages_up, before.messages_up);
  EXPECT_EQ(after.messages_down, before.messages_down);
  ASSERT_EQ(warm.size(), cold.size());
  for (size_t i = 0; i < cold.size(); ++i) ExpectSameAnswers(cold[i], warm[i]);
  ExpectSameAnswers(x_cold, x_warm);

  // A different verify mode is a different cache entry, not a stale hit.
  before = col->transport_totals();
  auto other = col->Search(queries[0].tag, VerifyMode::kTrustedConstOnly);
  ASSERT_TRUE(other.ok());
  EXPECT_GT(col->transport_totals().messages_up, before.messages_up);

  // Eviction past capacity keeps the cache bounded.
  col->SetQueryCacheCapacity(1);
  EXPECT_LE(col->query_cache_entries(), 1u);
}

TEST(CollectionTest, EmptyBatchWithCacheOnIsEmpty) {
  // An empty batch has nothing to walk, cache or send: it answers with no
  // entries, stores no cache entry and leaves the wire untouched.
  DeterministicPrf seed = DeterministicPrf::FromString("col-empty-batch");
  auto col = FpCollection::Create(seed).value();
  ASSERT_TRUE(col->Add(1, MakeDoc(941)).ok());
  col->SetQueryCacheCapacity(4);

  const TransportCounters before = col->transport_totals();
  auto out = col->SearchMany({});
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_TRUE(out->empty());
  EXPECT_EQ(col->query_cache_entries(), 0u);
  const TransportCounters after = col->transport_totals();
  EXPECT_EQ(after.messages_up, before.messages_up);
  EXPECT_EQ(after.messages_down, before.messages_down);
  EXPECT_EQ(after.bytes_up, before.bytes_up);
  EXPECT_EQ(after.bytes_down, before.bytes_down);
}

TEST(CollectionTest, BloomPrefilterSkipsNonMatchingDocsKeepsAnswers) {
  auto parse = [](const std::string& s) { return ParseXml(s).value(); };
  XmlNode d0 = parse("<t><e/><a/></t>");   // added before the knob: no filter
  XmlNode d1 = parse("<r><a/><b/><a/></r>");
  XmlNode d2 = parse("<s><c/><d/></s>");

  DeterministicPrf seed = DeterministicPrf::FromString("col-bloom");
  auto plain = FpCollection::Create(seed).value();
  auto pre = FpCollection::Create(seed).value();
  ASSERT_TRUE(plain->Add(10, d0).ok());
  ASSERT_TRUE(pre->Add(10, d0).ok());
  pre->EnableBloomPrefilter();
  for (auto& [id, doc] : std::map<DocId, XmlNode>{{11, d1}, {12, d2}}) {
    ASSERT_TRUE(plain->Add(id, doc).ok());
    ASSERT_TRUE(pre->Add(id, doc).ok());
  }

  // "a" lives in d0 and d1; d2's filter rejects it and d2 is skipped.
  std::vector<Query> q_a = {{"a", VerifyMode::kVerified}};
  auto want = plain->SearchMany(q_a).value();
  auto got = pre->SearchMany(q_a).value();
  ASSERT_EQ(got.size(), 1u);
  ExpectSameAnswers(want[0], got[0]);
  EXPECT_EQ(pre->last_prefilter_skipped(), 1u);

  // A tag in no filtered document: both are skipped; unfiltered d0 is
  // still walked (it predates the knob, so it can never be ruled out).
  std::vector<Query> q_e = {{"e", VerifyMode::kVerified}};
  auto only_d0 = pre->SearchMany(q_e).value();
  EXPECT_EQ(pre->last_prefilter_skipped(), 2u);
  ASSERT_EQ(only_d0.size(), 1u);
  ExpectSameAnswers(plain->SearchMany(q_e).value()[0], only_d0[0]);

  // A document stays in the frontier if ANY query of the batch may match.
  std::vector<Query> q_ac = {{"a", VerifyMode::kVerified},
                             {"c", VerifyMode::kVerified}};
  auto both = pre->SearchMany(q_ac).value();
  EXPECT_EQ(pre->last_prefilter_skipped(), 0u);
  auto both_want = plain->SearchMany(q_ac).value();
  ASSERT_EQ(both.size(), both_want.size());
  for (size_t i = 0; i < both.size(); ++i)
    ExpectSameAnswers(both_want[i], both[i]);

  // Removal drops the filter with the document.
  ASSERT_TRUE(pre->Remove(12).ok());
  auto after = pre->SearchMany(q_a).value();
  EXPECT_EQ(pre->last_prefilter_skipped(), 0u);
  ASSERT_EQ(after.size(), 1u);
  EXPECT_EQ(after[0].per_doc.count(12), 0u);
}

TEST(CollectionTest, VerifiedLookupsBatchFetchesIntoFewRounds) {
  DeterministicPrf seed = DeterministicPrf::FromString("col-rounds");
  std::map<DocId, XmlNode> docs;
  for (uint64_t i = 0; i < 8; ++i) docs.emplace(i, MakeDoc(940 + i, 30, 5));
  for (ShareScheme scheme :
       {ShareScheme::kTwoParty, ShareScheme::kAdditive, ShareScheme::kShamir}) {
    FpCollection::Deploy deploy;
    deploy.scheme = scheme;
    deploy.num_servers = scheme == ShareScheme::kTwoParty ? 1 : 3;
    deploy.threshold = scheme == ShareScheme::kShamir ? 2 : 0;
    auto col = FpCollection::Create(seed, deploy).value();
    for (const auto& [id, doc] : docs) ASSERT_TRUE(col->Add(id, doc).ok());

    const std::string tag = docs.at(0).DistinctTags()[0];
    auto verified = col->Search(tag, VerifyMode::kVerified).value();
    ASSERT_GT(verified.stats.reconstructions, 0u);
    // All candidates' shares arrive in ONE planned round, not one
    // FetchRequest per node.
    EXPECT_LE(verified.stats.fetch_rounds, 1u)
        << "scheme " << static_cast<int>(scheme);

    auto trusted = col->Search(tag, VerifyMode::kTrustedConstOnly).value();
    // One planned const-only round, plus one planned full round that holds
    // every wrapped candidate (each counted in trusted_fallbacks).
    EXPECT_LE(trusted.stats.fetch_rounds,
              trusted.stats.trusted_fallbacks > 0 ? 2u : 1u)
        << "scheme " << static_cast<int>(scheme);

    auto optimistic = col->Search(tag, VerifyMode::kOptimistic).value();
    EXPECT_EQ(optimistic.stats.fetch_rounds, 0u);
  }
}

TEST(CollectionTest, TrustedFallbacksCountWrappedCandidates) {
  // The 60-node document of QueryFpTest.TrustedConstOnlySavesBandwidth, in
  // a 2-party collection at p = 11: a subtree of more than p - 2 = 9 nodes
  // wraps the ring, so its candidate is planned straight into the full
  // round and counted as a trusted fallback without a const-only request.
  XmlGeneratorOptions gen;
  gen.num_nodes = 60;
  gen.tag_alphabet = 6;
  gen.seed = 17;
  const XmlNode doc = GenerateXmlTree(gen);
  auto col =
      FpCollection::Create(DeterministicPrf::FromString("bw"), {}, {.p = 11})
          .value();
  ASSERT_TRUE(col->Add(0, doc).ok());
  constexpr size_t kMaxResidueDegree = 11 - 2;

  const std::vector<std::string> tags = doc.DistinctTags();
  ASSERT_EQ(tags.size(), 6u);
  for (const std::string& tag : tags) {
    // The zero candidates are the nodes whose subtree holds the tag.
    size_t wrapped = 0;
    std::function<bool(const XmlNode&)> holds = [&](const XmlNode& n) {
      bool any = n.name() == tag;
      for (const XmlNode& c : n.children()) any = holds(c) || any;
      if (any && n.SubtreeSize() > kMaxResidueDegree) ++wrapped;
      return any;
    };
    holds(doc);
    ASSERT_GT(wrapped, 0u) << tag;

    auto verified = col->Search(tag, VerifyMode::kVerified).value();
    auto trusted = col->Search(tag, VerifyMode::kTrustedConstOnly).value();
    EXPECT_EQ(trusted.stats.trusted_fallbacks, wrapped) << tag;
    EXPECT_EQ(trusted.stats.fetch_rounds, 2u) << tag;  // const-only + full
    ExpectSameAnswers(verified, trusted);
    ASSERT_EQ(trusted.per_doc.count(0), 1u) << tag;
    EXPECT_EQ(SortedMatchPaths(trusted.per_doc.at(0).matches),
              PlaintextMatches(doc, tag))
        << tag;
  }
}

TEST(CollectionTest, ShortFetchResponseFromLyingServerIsCorruption) {
  auto parse = [](const std::string& s) { return ParseXml(s).value(); };
  DeterministicPrf seed = DeterministicPrf::FromString("col-short-fetch");
  FpCollection::Deploy deploy;
  deploy.scheme = ShareScheme::kAdditive;
  deploy.num_servers = 3;
  auto col = FpCollection::Create(seed, deploy).value();
  ASSERT_TRUE(col->Add(1, parse("<r><a/><b/><a/></r>")).ok());

  FaultConfig fc;
  fc.tamper_fetch = [](FetchResponse& resp) {
    if (!resp.entries.empty()) resp.entries.pop_back();
  };
  ASSERT_NE(col->InjectFaults(0, std::move(fc)), nullptr);

  // Every required scheme (all-of-k additive) must fail loudly — a short
  // response can never be silently mis-indexed against the request.
  auto r = col->Search("a", VerifyMode::kVerified);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCorruption);
}

TEST(CollectionTest, ShamirFailsOverShortFetchResponse) {
  auto parse = [](const std::string& s) { return ParseXml(s).value(); };
  DeterministicPrf seed = DeterministicPrf::FromString("col-short-shamir");
  FpCollection::Deploy deploy;
  deploy.scheme = ShareScheme::kShamir;
  deploy.num_servers = 4;
  deploy.threshold = 2;
  auto col = FpCollection::Create(seed, deploy).value();
  XmlNode doc = parse("<r><a/><b/><a/></r>");
  ASSERT_TRUE(col->Add(1, doc).ok());

  FaultConfig fc;
  fc.tamper_fetch = [](FetchResponse& resp) {
    if (!resp.entries.empty()) resp.entries.pop_back();
  };
  ASSERT_NE(col->InjectFaults(0, std::move(fc)), nullptr);

  // t-of-n identifies the malformed responder, fails over past it, and
  // still answers correctly.
  auto r = col->Search("a", VerifyMode::kVerified);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(SortedMatchPaths(r->per_doc.at(1).matches),
            PlaintextMatches(doc, "a"));
  EXPECT_GE(r->stats.server_failovers, 1u);
}

TEST(CollectionTest, HostileTreeStructureIsCorruption) {
  // Doc 1 is ids 0..6 — r(0) { a(1) { b(2) a(3) } b(4) { a(5) } a(6) } —
  // and doc 2 is ids 7..8. Every server of the group tells the same lie,
  // so the servers agree and only the client's own checks of each answer
  // against the tree it is walking can catch it.
  auto parse = [](const std::string& s) { return ParseXml(s).value(); };
  using Tamper = std::function<void(EvalEntry&)>;
  const std::vector<std::pair<std::string, std::pair<int32_t, Tamper>>> lies = {
      {"child outside its document",
       {0, [](EvalEntry& e) { e.children.back() = 7; }}},
      {"same child twice",
       {0, [](EvalEntry& e) { e.children.push_back(e.children.back()); }}},
      {"child pointing back to an ancestor",
       {1, [](EvalEntry& e) { e.children.back() = 0; }}},
      {"root size disagreeing with the document table",
       {0, [](EvalEntry& e) { e.subtree_size += 2; }}},
      {"answer for a node not asked for",
       {0, [](EvalEntry& e) { e.node_id = 1; }}},
  };
  struct Shape {
    ShareScheme scheme;
    int servers;
    int threshold;
  };
  for (const Shape& shape : {Shape{ShareScheme::kTwoParty, 1, 0},
                             Shape{ShareScheme::kAdditive, 3, 0},
                             Shape{ShareScheme::kShamir, 3, 2}}) {
    for (const auto& [lie, target] : lies) {
      FpCollection::Deploy deploy;
      deploy.scheme = shape.scheme;
      deploy.num_servers = shape.servers;
      deploy.threshold = shape.threshold;
      auto col =
          FpCollection::Create(DeterministicPrf::FromString("col-hostile"),
                               deploy)
              .value();
      ASSERT_TRUE(
          col->Add(1, parse("<r><a><b/><a/></a><b><a/></b><a/></r>")).ok());
      ASSERT_TRUE(col->Add(2, parse("<s><a/></s>")).ok());
      const auto& [id, rewrite] = target;
      for (int s = 0; s < shape.servers; ++s) {
        FaultConfig fc;
        fc.tamper_eval = [id, rewrite](EvalResponse& resp) {
          for (EvalEntry& e : resp.entries)
            if (e.node_id == id) rewrite(e);
        };
        ASSERT_NE(col->InjectFaults(static_cast<size_t>(s), std::move(fc)),
                  nullptr);
      }
      for (VerifyMode mode : kAllModes) {
        auto r = col->Search("a", mode);
        ASSERT_FALSE(r.ok()) << lie << ", scheme "
                             << static_cast<int>(shape.scheme);
        EXPECT_EQ(r.status().code(), StatusCode::kCorruption)
            << lie << ", scheme " << static_cast<int>(shape.scheme) << ": "
            << r.status().ToString();
      }
    }
  }
}

TEST(CollectionTest, RegistryHandlesBatchSpanningDocsOutOfOrder) {
  DeterministicPrf seed = DeterministicPrf::FromString("col-reg-batch");
  auto col = FpCollection::Create(seed).value();
  // 18 documents of 3..13 nodes; removing the first and a middle one
  // leaves 16 with no document below the first base and a gap inside.
  for (DocId d = 0; d < 18; ++d) {
    XmlGeneratorOptions gen;
    gen.num_nodes = 3 + (5 * d) % 11;
    gen.max_fanout = 3;
    gen.tag_alphabet = 6;
    gen.seed = 40 + d;
    ASSERT_TRUE(col->Add(d, GenerateXmlTree(gen)).ok());
  }
  int32_t gap = -1;  // the first id of the middle document removed below
  for (const auto& doc : col->registry(0)->docs())
    if (doc.doc_id == 9) gap = doc.base;
  ASSERT_GT(gap, 0);
  ASSERT_TRUE(col->Remove(0).ok());
  ASSERT_TRUE(col->Remove(9).ok());
  FpStoreRegistry* registry = col->registry(0);
  ServerHandler* handler = col->handler(0);
  const std::vector<FpStoreRegistry::DocInfo> docs = registry->docs();
  ASSERT_EQ(docs.size(), 16u);
  ASSERT_GT(docs.front().base, 0);

  // Each document's own share tree, loaded from its exported bytes: the
  // expected answers come from the trees, not from a second server.
  std::vector<ServerStore<FpCyclotomicRing>> own;
  for (const auto& doc : docs) {
    auto exported = handler->HandleExportDoc({doc.doc_id});
    ASSERT_TRUE(exported.ok()) << exported.status().ToString();
    ByteReader in(exported->store_bytes);
    own.push_back(LoadServerStore<FpCyclotomicRing>(&in).value());
  }
  // Every id of every document plus some again, shuffled across documents.
  struct Owner {
    size_t doc;
    int32_t local;
  };
  std::vector<int32_t> ids;
  std::vector<Owner> owners;
  for (size_t k = 0; k < docs.size(); ++k) {
    for (size_t i = 0; i < docs[k].nodes; ++i) {
      for (int copy = 0; copy < (i % 4 == 0 ? 2 : 1); ++copy) {
        ids.push_back(docs[k].base + static_cast<int32_t>(i));
        owners.push_back({k, static_cast<int32_t>(i)});
      }
    }
  }
  ChaChaRng rng = ChaChaRng::FromString("registry shuffle");
  for (size_t i = ids.size(); i > 1; --i) {
    const size_t j = rng.NextBelow(i);
    std::swap(ids[i - 1], ids[j]);
    std::swap(owners[i - 1], owners[j]);
  }

  EvalRequest eval;
  eval.node_ids = ids;
  eval.points = {3, 5, 11};
  auto evals = handler->HandleEval(eval);
  ASSERT_TRUE(evals.ok()) << evals.status().ToString();
  ASSERT_EQ(evals->entries.size(), ids.size());
  for (const FetchMode mode : {FetchMode::kFull, FetchMode::kConstOnly}) {
    FetchRequest fetch;
    fetch.mode = mode;
    fetch.node_ids = ids;
    auto fetched = handler->HandleFetch(fetch);
    ASSERT_TRUE(fetched.ok()) << fetched.status().ToString();
    ASSERT_EQ(fetched->entries.size(), ids.size());
    for (size_t i = 0; i < ids.size(); ++i) {
      const FpCyclotomicRing& ring = own[owners[i].doc].ring();
      const FpPoly& poly =
          own[owners[i].doc].tree().nodes[owners[i].local].poly;
      ByteWriter want;
      if (mode == FetchMode::kFull) {
        ring.Serialize(poly, &want);
      } else {
        ring.SerializeScalar(ring.ConstTerm(poly), &want);
      }
      EXPECT_EQ(fetched->entries[i].node_id, ids[i]) << i;
      EXPECT_EQ(fetched->entries[i].payload, want.bytes()) << i;
    }
  }
  for (size_t i = 0; i < ids.size(); ++i) {
    const FpCyclotomicRing& ring = own[owners[i].doc].ring();
    const auto& want = own[owners[i].doc].tree().nodes[owners[i].local];
    const EvalEntry& got = evals->entries[i];
    const int32_t base = docs[owners[i].doc].base;
    EXPECT_EQ(got.node_id, owners[i].local + base) << i;
    ASSERT_EQ(got.values.size(), eval.points.size()) << i;
    for (size_t k = 0; k < eval.points.size(); ++k)
      EXPECT_EQ(got.values[k], ring.EvalAt(want.poly, eval.points[k]).value())
          << i;
    EXPECT_EQ(got.subtree_size, want.subtree_size) << i;
    ASSERT_EQ(got.children.size(), want.children.size()) << i;
    for (size_t c = 0; c < got.children.size(); ++c)
      EXPECT_EQ(got.children[c], want.children[c] + base) << i;
  }

  // An empty batch is a valid no-op, not an error, and an empty eval batch
  // answers without checking its points.
  auto empty_resp = handler->HandleFetch(FetchRequest{});
  ASSERT_TRUE(empty_resp.ok()) << empty_resp.status().ToString();
  EXPECT_TRUE(empty_resp->entries.empty());
  EvalRequest no_ids;
  no_ids.points = {0};
  auto empty_eval = handler->HandleEval(no_ids);
  ASSERT_TRUE(empty_eval.ok()) << empty_eval.status().ToString();
  EXPECT_TRUE(empty_eval->entries.empty());

  // Ids are checked before points: a bad id and a bad point in one
  // request refuse it with the id's message.
  EvalRequest both_bad;
  both_bad.node_ids = {ids[0], gap};
  both_bad.points = {3, 0};
  auto refused = handler->HandleEval(both_bad);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(refused.status().message(),
            "node id " + std::to_string(gap) + " out of range");

  // An id in the gap, below the first base or past the end fails cleanly,
  // anywhere in a batch.
  const int64_t end = registry->IdSpaceEnd();
  for (const int32_t bad : {gap, docs.front().base - 1,
                            static_cast<int32_t>(end)}) {
    const std::string want = "node id " + std::to_string(bad) + " out of range";
    FetchRequest fetch;
    fetch.node_ids = {ids[0], bad, ids[1]};
    auto fetched = handler->HandleFetch(fetch);
    ASSERT_FALSE(fetched.ok()) << bad;
    EXPECT_EQ(fetched.status().code(), StatusCode::kInvalidArgument) << bad;
    EXPECT_EQ(fetched.status().message(), want);
    EvalRequest bad_eval;
    bad_eval.node_ids = {bad};
    bad_eval.points = {3};
    auto evaluated = handler->HandleEval(bad_eval);
    ASSERT_FALSE(evaluated.ok()) << bad;
    EXPECT_EQ(evaluated.status().message(), want);
  }
}

}  // namespace
}  // namespace polysse
