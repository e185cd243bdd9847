// Tests for the §6 future-work extensions: encrypted payload store, hashed
// data-polynomial content index, Goh-style Bloom secure index.
#include <gtest/gtest.h>

#include <set>
#include <span>
#include <string>

#include "crypto/sha256.h"
#include "index/bloom_index.h"
#include "index/data_poly_index.h"
#include "index/payload_store.h"
#include "xml/xml_generator.h"
#include "xml/xml_parser.h"

namespace polysse {
namespace {

TEST(TokenizeTest, SplitsAndLowercases) {
  EXPECT_EQ(TokenizeWords("Hello, World! x2"),
            (std::vector<std::string>{"hello", "world", "x2"}));
  EXPECT_TRUE(TokenizeWords("").empty());
  EXPECT_TRUE(TokenizeWords("  ,.;  ").empty());
}

TEST(PayloadStoreTest, EncryptDecryptRoundTrip) {
  XmlNode doc = MakeMedicalRecordsDocument(5, 81);
  PayloadCodec codec(DeterministicPrf::FromString("payload"));
  PayloadStore store = codec.Encrypt(doc);
  EXPECT_EQ(store.size(), doc.SubtreeSize());

  size_t id = 0;
  doc.Preorder([&](const XmlNode& n, const std::vector<int>&) {
    const auto* entry = store.Get(id).value();
    EXPECT_EQ(codec.Decrypt(*entry).value(), n.text()) << "node " << id;
    if (!n.text().empty()) {
      // Ciphertext must differ from plaintext.
      std::string ct(entry->ciphertext.begin(), entry->ciphertext.end());
      EXPECT_NE(ct, n.text());
    }
    ++id;
  });
  EXPECT_FALSE(store.Get(store.size()).ok());
}

TEST(PayloadStoreTest, PerNodeKeysAreIndependent) {
  // Two nodes with identical text must produce different ciphertexts.
  auto doc = ParseXml("<r><a>same text</a><a>same text</a></r>").value();
  PayloadCodec codec(DeterministicPrf::FromString("iv"));
  PayloadStore store = codec.Encrypt(doc);
  EXPECT_NE(store.Get(1).value()->ciphertext, store.Get(2).value()->ciphertext);
}

TEST(PayloadStoreTest, WrongSeedDecryptsGarbage) {
  auto doc = ParseXml("<a>secret content</a>").value();
  PayloadCodec good(DeterministicPrf::FromString("good"));
  PayloadCodec bad(DeterministicPrf::FromString("bad"));
  PayloadStore store = good.Encrypt(doc);
  EXPECT_NE(bad.Decrypt(*store.Get(0).value()).value(), "secret content");
}

TEST(ContentSearchTest, FindsWordsAndVerifiesCandidates) {
  auto doc = ParseXml(
      "<library>"
      "<book>quantum mechanics primer</book>"
      "<book>classical mechanics</book>"
      "<shelf><book>quantum computing</book></shelf>"
      "</library>").value();
  auto service = ContentSearchService::Build(
      doc, DeterministicPrf::FromString("content"));
  ASSERT_TRUE(service.ok()) << service.status().ToString();

  auto quantum = service->Search("quantum").value();
  EXPECT_EQ(std::set<std::string>(quantum.match_paths.begin(),
                                  quantum.match_paths.end()),
            (std::set<std::string>{"0", "2/0"}));
  auto mechanics = service->Search("mechanics").value();
  EXPECT_EQ(mechanics.match_paths.size(), 2u);
  auto absent = service->Search("biology").value();
  EXPECT_TRUE(absent.match_paths.empty());
}

TEST(ContentSearchTest, PruningSkipsDeadBranches) {
  // Only one branch contains the needle word: the other branch's subtrees
  // must never be evaluated.
  auto doc = ParseXml(
      "<r>"
      "<a><b>needle here</b><c>x</c></a>"
      "<d><e>nothing</e><f>void</f><g><h>empty</h></g></d>"
      "</r>").value();
  auto service =
      ContentSearchService::Build(doc, DeterministicPrf::FromString("prune"));
  ASSERT_TRUE(service.ok());
  auto r = service->Search("needle").value();
  EXPECT_EQ(r.match_paths, (std::vector<std::string>{"0/0"}));
  // Evaluated: root, a, d (frontier), then a's children b, c. The d subtree
  // below d itself is pruned: e, f, g, h never touched.
  EXPECT_LE(r.stats.nodes_evaluated, 6u);
}

TEST(ContentSearchTest, CaseInsensitive) {
  auto doc = ParseXml("<a>The Quick Brown Fox</a>").value();
  auto service =
      ContentSearchService::Build(doc, DeterministicPrf::FromString("case"));
  ASSERT_TRUE(service.ok());
  EXPECT_EQ(service->Search("quick").value().match_paths.size(), 1u);
  EXPECT_EQ(service->Search("QUICK").value().match_paths.size(), 1u);
}

TEST(ContentSearchTest, MedicalCorpusAgainstPlainScan) {
  XmlNode doc = MakeMedicalRecordsDocument(15, 83);
  auto service =
      ContentSearchService::Build(doc, DeterministicPrf::FromString("med"));
  ASSERT_TRUE(service.ok());
  for (const char* word : {"alpha", "bravo", "kilo", "notaword"}) {
    std::set<std::string> expected;
    doc.Preorder([&](const XmlNode& n, const std::vector<int>& path) {
      for (const std::string& w : TokenizeWords(n.text())) {
        if (w == word) expected.insert(PathToString(path));
      }
    });
    auto r = service->Search(word).value();
    EXPECT_EQ(std::set<std::string>(r.match_paths.begin(),
                                    r.match_paths.end()),
              expected)
        << word;
  }
}

TEST(BloomIndexTest, CandidatesCoverAllTrueMatches) {
  XmlNode doc = MakeMedicalRecordsDocument(20, 85);
  BloomIndex index = BloomIndex::Build(doc, DeterministicPrf::FromString("bl"));
  for (const char* word : {"alpha", "echo", "lima"}) {
    auto r = index.Search(word, doc);
    // No false negatives, ever (Bloom property).
    std::set<std::string> cands(r.candidate_paths.begin(),
                                r.candidate_paths.end());
    doc.Preorder([&](const XmlNode& n, const std::vector<int>& path) {
      for (const std::string& w : TokenizeWords(n.text())) {
        if (w == word) {
          EXPECT_TRUE(cands.count(PathToString(path)))
              << word << " @ " << PathToString(path);
        }
      }
    });
    EXPECT_EQ(r.stats.nodes_tested, doc.SubtreeSize());
    EXPECT_EQ(r.stats.candidates,
              r.verified_paths.size() + r.stats.false_positives);
  }
}

TEST(BloomIndexTest, FalsePositiveRateShrinksWithFilterSize) {
  XmlNode doc = MakeMedicalRecordsDocument(40, 86);
  size_t fp_small = 0, fp_large = 0;
  BloomIndex::Options small_opt;
  small_opt.bits_per_node = 16;
  small_opt.num_hashes = 2;
  BloomIndex::Options large_opt;
  large_opt.bits_per_node = 1024;
  large_opt.num_hashes = 6;
  BloomIndex small =
      BloomIndex::Build(doc, DeterministicPrf::FromString("s"), small_opt);
  BloomIndex large =
      BloomIndex::Build(doc, DeterministicPrf::FromString("s"), large_opt);
  for (const char* w : {"alpha", "bravo", "carol", "delta", "echo", "fox",
                        "golf", "hotel", "india", "juliet"}) {
    fp_small += small.Search(w, doc).stats.false_positives;
    fp_large += large.Search(w, doc).stats.false_positives;
  }
  EXPECT_GT(fp_small, fp_large);
  EXPECT_EQ(fp_large, 0u);  // 1024 bits, tiny texts: FPs vanish
}

TEST(BloomIndexTest, AbsentWordMostlyFiltered) {
  XmlNode doc = MakeMedicalRecordsDocument(30, 87);
  BloomIndex index =
      BloomIndex::Build(doc, DeterministicPrf::FromString("abs"));
  auto r = index.Search("zzzmissing", doc);
  EXPECT_TRUE(r.verified_paths.empty());
  // With 256 bits / 4 hashes and <= 6 words per node, FP rate ~ (k*w/m)^k
  // is far below 1%; allow a little slack.
  EXPECT_LE(r.stats.false_positives, doc.SubtreeSize() / 20);
}

TEST(BloomIndexTest, StorageIsLinearInNodes) {
  XmlNode doc10 = MakeMedicalRecordsDocument(10, 88);
  XmlNode doc40 = MakeMedicalRecordsDocument(40, 88);
  BloomIndex::Options opt;
  BloomIndex i10 = BloomIndex::Build(doc10, DeterministicPrf::FromString("x"), opt);
  BloomIndex i40 = BloomIndex::Build(doc40, DeterministicPrf::FromString("x"), opt);
  double ratio = static_cast<double>(i40.PersistedBytes()) /
                 static_cast<double>(i10.PersistedBytes());
  double node_ratio = static_cast<double>(doc40.SubtreeSize()) /
                      static_cast<double>(doc10.SubtreeSize());
  EXPECT_NEAR(ratio, node_ratio, node_ratio * 0.3);
}

// Pins the exact trapdoor derivation: HMAC(seed, "bloom/<j>/<word>") over
// the message's own bytes. The original code sized the span as
// word.size() + 8 + len(j) — one past the real length — silently hashing
// the temporary string's NUL terminator into every trapdoor.
TEST(BloomIndexTest, TrapdoorHashesExactMessageBytes) {
  DeterministicPrf prf = DeterministicPrf::FromString("msg-pin");
  auto trapdoors = BloomWordTrapdoors(prf, 2, "diagnosis");
  ASSERT_EQ(trapdoors.size(), 2u);
  for (int j = 0; j < 2; ++j) {
    const std::string message = "bloom/" + std::to_string(j) + "/diagnosis";
    auto seed_span =
        std::span<const uint8_t>(prf.seed().data(), prf.seed().size());
    auto want = HmacSha256(
        seed_span,
        std::span<const uint8_t>(
            reinterpret_cast<const uint8_t*>(message.data()), message.size()));
    EXPECT_EQ(trapdoors[j], want) << "j=" << j;

    std::string with_nul = message;
    with_nul.push_back('\0');
    auto buggy = HmacSha256(
        seed_span,
        std::span<const uint8_t>(
            reinterpret_cast<const uint8_t*>(with_nul.data()),
            with_nul.size()));
    EXPECT_NE(trapdoors[j], buggy) << "j=" << j;
  }
}

TEST(DocBloomFilterTest, NoFalseNegativesAndMostAbsentWordsRejected) {
  DeterministicPrf seed = DeterministicPrf::FromString("docbloom");
  std::vector<std::string> words = {"alpha", "beta", "gamma", "delta"};
  DocBloomFilter::Options opt;
  DocBloomFilter filter = DocBloomFilter::Build(seed, "d1.0", words, opt);

  for (const std::string& w : words)
    EXPECT_TRUE(filter.MayContain(DocBloomFilter::QueryTrapdoors(seed, w, opt)))
        << w;

  size_t rejected = 0;
  for (int i = 0; i < 200; ++i) {
    std::string absent = "absent" + std::to_string(i);
    if (!filter.MayContain(
            DocBloomFilter::QueryTrapdoors(seed, absent, opt)))
      ++rejected;
  }
  // 16 of 512 bits set: the false-positive rate is far below 1 in 200.
  EXPECT_GE(rejected, 195u);
}

TEST(DocBloomFilterTest, SaltSeparatesDocumentsWithoutFalseNegatives) {
  DeterministicPrf seed = DeterministicPrf::FromString("docbloom-salt");
  DocBloomFilter::Options opt;
  DocBloomFilter f1 = DocBloomFilter::Build(seed, "d1.0", {"surgery"}, opt);
  DocBloomFilter f2 = DocBloomFilter::Build(seed, "d2.1", {"billing"}, opt);

  auto surgery = DocBloomFilter::QueryTrapdoors(seed, "surgery", opt);
  auto billing = DocBloomFilter::QueryTrapdoors(seed, "billing", opt);
  EXPECT_TRUE(f1.MayContain(surgery));
  EXPECT_TRUE(f2.MayContain(billing));
  // Different salts give the same word different bit positions, so one
  // document's content never leaks membership into another's filter.
  EXPECT_FALSE(f1.MayContain(billing));
  EXPECT_FALSE(f2.MayContain(surgery));
}

}  // namespace
}  // namespace polysse
