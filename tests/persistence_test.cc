// Tests for deployment persistence: store save/load round trips, header
// validation, random-corruption robustness (must error, never crash), and
// querying a reloaded deployment.
#include <gtest/gtest.h>

#include <cstdio>
#include <random>

#include "core/outsource.h"
#include "core/persistence.h"
#include "core/query_session.h"
#include "testing/deploy_helpers.h"
#include "xml/xml_generator.h"

namespace polysse {
namespace {

using testing::FpDeployment;
using testing::ZDeployment;
using testing::MakeFpDeployment;
using testing::MakeZDeployment;
using testing::OneDocFpCollection;
using testing::OneDocRegistry;
using testing::TestSession;

TEST(PersistenceTest, FpStoreRoundTrip) {
  XmlNode doc = MakeMedicalRecordsDocument(10, 91);
  DeterministicPrf seed = DeterministicPrf::FromString("persist-fp");
  FpDeployment dep = MakeFpDeployment(doc, seed).value();

  ByteWriter w;
  SaveServerStore(dep.store(), &w);
  EXPECT_EQ(PeekStoredRingKind(w.span()).value(),
            StoredRingKind::kFpCyclotomic);

  ByteReader r(w.span());
  auto loaded = LoadServerStore<FpCyclotomicRing>(&r);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(r.AtEnd());
  ASSERT_EQ(loaded->size(), dep.store().size());
  EXPECT_EQ(loaded->ring().p(), dep.ring.p());
  for (size_t i = 0; i < loaded->size(); ++i) {
    const auto& a = loaded->tree().nodes[i];
    const auto& b = dep.store().tree().nodes[i];
    EXPECT_TRUE(dep.ring.Equal(a.poly, b.poly)) << i;
    EXPECT_EQ(a.parent, b.parent) << i;
    EXPECT_EQ(a.children, b.children) << i;
    EXPECT_EQ(a.path, b.path) << i;
    EXPECT_EQ(a.subtree_size, b.subtree_size) << i;
  }
}

TEST(PersistenceTest, ZStoreRoundTrip) {
  XmlNode doc = MakeFig1Document();
  DeterministicPrf seed = DeterministicPrf::FromString("persist-z");
  ZDeployment dep = MakeZDeployment(doc, seed).value();

  ByteWriter w;
  SaveServerStore(dep.store(), &w);
  EXPECT_EQ(PeekStoredRingKind(w.span()).value(), StoredRingKind::kZQuotient);
  ByteReader r(w.span());
  auto loaded = LoadServerStore<ZQuotientRing>(&r);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->ring().modulus(), dep.ring.modulus());
  for (size_t i = 0; i < loaded->size(); ++i) {
    EXPECT_TRUE(dep.ring.Equal(loaded->tree().nodes[i].poly,
                               dep.store().tree().nodes[i].poly));
  }
}

TEST(PersistenceTest, QueriesWorkAgainstReloadedStore) {
  XmlNode doc = MakeMedicalRecordsDocument(8, 92);
  DeterministicPrf seed = DeterministicPrf::FromString("persist-q");
  FpDeployment dep = MakeFpDeployment(doc, seed).value();

  ByteWriter w;
  SaveServerStore(dep.store(), &w);
  ByteReader r(w.span());
  ServerStore<FpCyclotomicRing> reloaded =
      LoadServerStore<FpCyclotomicRing>(&r).value();
  auto server = OneDocRegistry(reloaded.ring(), reloaded.tree());

  auto client = ClientContext<FpCyclotomicRing>::SeedOnly(
      reloaded.ring(), dep.client.tag_map(), seed);
  TestSession<FpCyclotomicRing> session(&client, server.get());
  auto result = session.Lookup("patient", VerifyMode::kVerified).value();
  EXPECT_EQ(result.matches.size(), 8u);
}

TEST(PersistenceTest, WrongLoaderRejected) {
  XmlNode doc = MakeFig1Document();
  DeterministicPrf seed = DeterministicPrf::FromString("wrong");
  FpDeployment fp = MakeFpDeployment(doc, seed).value();
  ByteWriter w;
  SaveServerStore(fp.store(), &w);
  ByteReader r(w.span());
  EXPECT_FALSE(LoadServerStore<ZQuotientRing>(&r).ok());
}

TEST(PersistenceTest, HeaderValidation) {
  std::vector<uint8_t> garbage = {'X', 'X', 'X', 'X', 1, 1};
  EXPECT_FALSE(PeekStoredRingKind(garbage).ok());
  std::vector<uint8_t> short_input = {'P'};
  EXPECT_FALSE(PeekStoredRingKind(short_input).ok());
  std::vector<uint8_t> bad_version = {'P', 'S', 'S', 'E', 99, 1};
  EXPECT_FALSE(PeekStoredRingKind(bad_version).ok());
  std::vector<uint8_t> bad_kind = {'P', 'S', 'S', 'E', 1, 7};
  EXPECT_FALSE(PeekStoredRingKind(bad_kind).ok());
}

TEST(PersistenceTest, RandomCorruptionNeverCrashes) {
  XmlNode doc = MakeMedicalRecordsDocument(4, 93);
  DeterministicPrf seed = DeterministicPrf::FromString("fuzz");
  FpDeployment dep = MakeFpDeployment(doc, seed).value();
  ByteWriter w;
  SaveServerStore(dep.store(), &w);
  std::vector<uint8_t> bytes = w.Take();

  std::mt19937_64 rng(404);
  for (int trial = 0; trial < 300; ++trial) {
    std::vector<uint8_t> corrupt = bytes;
    // Flip 1-4 random bytes and/or truncate.
    int flips = 1 + static_cast<int>(rng() % 4);
    for (int f = 0; f < flips; ++f) {
      corrupt[rng() % corrupt.size()] ^= static_cast<uint8_t>(1 + rng() % 255);
    }
    if (rng() % 3 == 0) corrupt.resize(rng() % corrupt.size());
    ByteReader r(corrupt);
    // Must return, never crash.
    auto loaded = LoadServerStore<FpCyclotomicRing>(&r);
    if (loaded.ok()) {
      // A surviving load must at least be structurally sane.
      EXPECT_GE(loaded->size(), 1u);
    }
  }
}

/// A key with the F_p ring parameters every key file must carry.
ClientSecretFile FpKey() {
  ClientSecretFile key;
  key.ring_kind = static_cast<uint8_t>(StoredRingKind::kFpCyclotomic);
  key.fp_p = 11;
  return key;
}

TEST(PersistenceTest, ClientSecretFileRoundTrip) {
  ClientSecretFile key = FpKey();
  key.seed.fill(0xAB);
  key.tag_map = TagMap::FromExplicit(Fig1TagMapping()).value();
  key.z_coeff_bits = 192;
  ByteWriter w;
  key.Serialize(&w);
  ByteReader r(w.span());
  auto back = ClientSecretFile::Deserialize(&r);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->seed, key.seed);
  EXPECT_EQ(back->z_coeff_bits, 192u);
  EXPECT_EQ(back->tag_map.Value("client").value(), 2u);
}

TEST(PersistenceTest, V4KeyRoundTripsShardTable) {
  ClientSecretFile key = FpKey();
  key.seed.fill(0xC3);
  key.tag_map = TagMap::FromExplicit(Fig1TagMapping()).value();
  key.scheme = ShareScheme::kAdditive;
  key.num_servers = 3;
  key.docs.push_back({7, 0, 40, "d7.0"});
  key.docs.push_back({9, 1 << 20, 60, "d9.1"});
  key.next_epoch = 2;
  key.shards.push_back({0, 0, 1 << 20, 40});
  key.shards.push_back({4, 1 << 20, 1 << 20, 60});

  ByteWriter w;
  key.Serialize(&w);
  ByteReader r(w.span());
  auto back = ClientSecretFile::Deserialize(&r);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_TRUE(r.AtEnd());
  EXPECT_EQ(back->fp_p, 11u);
  ASSERT_EQ(back->shards.size(), 2u);
  EXPECT_EQ(back->shards[0].shard_id, 0u);
  EXPECT_EQ(back->shards[1].shard_id, 4u);
  EXPECT_EQ(back->shards[1].base, 1 << 20);
  EXPECT_EQ(back->shards[1].span, 1 << 20);
  EXPECT_EQ(back->shards[1].next, 60);
  ASSERT_EQ(back->docs.size(), 2u);
  EXPECT_EQ(back->docs[1].share_prefix, "d9.1");
}

TEST(PersistenceTest, KeysOtherThanV4AreRefused) {
  // v4 is the only key format: a file whose version byte says 1, 2 or 3
  // is Corruption, whatever follows it.
  ClientSecretFile key = FpKey();
  key.seed.fill(0x11);
  key.tag_map = TagMap::FromExplicit(Fig1TagMapping()).value();
  key.docs.push_back({3, 0, 25, "d3.0"});
  key.next_epoch = 1;
  ByteWriter w;
  key.Serialize(&w);
  const std::vector<uint8_t> v4 = w.Take();
  ASSERT_EQ(v4[4], 4);
  for (uint8_t version : {1, 2, 3}) {
    std::vector<uint8_t> old = v4;
    old[4] = version;
    ByteReader r(old);
    auto back = ClientSecretFile::Deserialize(&r);
    ASSERT_FALSE(back.ok()) << "v" << int{version};
    EXPECT_EQ(back.status().code(), StatusCode::kCorruption);
  }

  // A v4 key without ring parameters is refused the same way.
  key.ring_kind = 0;
  ByteWriter no_ring;
  key.Serialize(&no_ring);
  ByteReader r(no_ring.span());
  auto back = ClientSecretFile::Deserialize(&r);
  ASSERT_FALSE(back.ok());
  EXPECT_EQ(back.status().code(), StatusCode::kCorruption);
}

// --------------------------------- Collection::Open failure paths --------
// Broken deployments must come back as clean Status errors — a missing
// share file, servers whose stores diverged, a key naming no servers —
// never a crash or a silently wrong deployment.

XmlNode OpenFailDoc(uint64_t seed) {
  XmlGeneratorOptions gen;
  gen.num_nodes = 30;
  gen.tag_alphabet = 5;
  gen.seed = seed;
  return GenerateXmlTree(gen);
}

TEST(PersistenceTest, OpenFailsCleanlyOnMissingServerStoreFile) {
  DeterministicPrf seed = DeterministicPrf::FromString("open-missing");
  DeployShape deploy;
  deploy.scheme = ShareScheme::kAdditive;
  deploy.num_servers = 3;
  auto col = OneDocFpCollection(OpenFailDoc(601), seed, deploy).value();
  const std::string store = "/tmp/polysse_open_missing.bin";
  const std::string key = store + ".key";
  ASSERT_TRUE(col->Save(store, key).ok());

  // Server 1's share file vanishes (disk loss, wrong rsync, ...).
  ASSERT_EQ(
      std::remove(FpCollection::MultiServerStorePath(store, 1).c_str()), 0);
  auto reopened = FpCollection::Open(store, key);
  ASSERT_FALSE(reopened.ok());
  EXPECT_EQ(reopened.status().code(), StatusCode::kNotFound)
      << reopened.status().ToString();
}

TEST(PersistenceTest, OpenRejectsServerStoresDisagreeingOnRing) {
  DeterministicPrf seed = DeterministicPrf::FromString("open-ring");
  DeployShape deploy;
  deploy.scheme = ShareScheme::kAdditive;
  deploy.num_servers = 2;
  auto col = OneDocFpCollection(OpenFailDoc(602), seed, deploy).value();
  const std::string store = "/tmp/polysse_open_ring.bin";
  ASSERT_TRUE(col->Save(store, store + ".key").ok());

  // Overwrite server 1's file with a same-shape store from a DIFFERENT
  // field (p forced larger): the ring parameters cannot agree.
  auto other = FpCollection::Create(seed, deploy, {.p = 257}).value();
  ASSERT_TRUE(other->Add(0, OpenFailDoc(602)).ok());
  const std::string other_store = "/tmp/polysse_open_ring_other.bin";
  ASSERT_TRUE(other->Save(other_store, other_store + ".key").ok());
  auto bytes =
      ReadFileBytes(FpCollection::MultiServerStorePath(other_store, 1))
          .value();
  ASSERT_TRUE(
      WriteFileBytes(FpCollection::MultiServerStorePath(store, 1), bytes)
          .ok());

  auto reopened = FpCollection::Open(store, store + ".key");
  ASSERT_FALSE(reopened.ok());
  EXPECT_EQ(reopened.status().code(), StatusCode::kCorruption);
  EXPECT_NE(reopened.status().message().find("ring"), std::string::npos)
      << reopened.status().ToString();
}

TEST(PersistenceTest, OpenRejectsServerStoresDisagreeingOnSize) {
  DeterministicPrf seed = DeterministicPrf::FromString("open-size");
  DeployShape deploy;
  deploy.scheme = ShareScheme::kAdditive;
  deploy.num_servers = 2;
  auto col = OneDocFpCollection(OpenFailDoc(603), seed, deploy).value();
  const std::string store = "/tmp/polysse_open_size.bin";
  ASSERT_TRUE(col->Save(store, store + ".key").ok());

  // Server 1's file replaced by a store of a different document (same
  // ring, different node count).
  XmlGeneratorOptions gen;
  gen.num_nodes = 12;
  gen.tag_alphabet = 5;
  gen.seed = 604;
  auto other =
      FpCollection::Create(seed, deploy, {.p = col->ring().p()}).value();
  ASSERT_TRUE(other->Add(0, GenerateXmlTree(gen)).ok());
  const std::string other_store = "/tmp/polysse_open_size_other.bin";
  ASSERT_TRUE(other->Save(other_store, other_store + ".key").ok());
  auto bytes =
      ReadFileBytes(FpCollection::MultiServerStorePath(other_store, 1))
          .value();
  ASSERT_TRUE(
      WriteFileBytes(FpCollection::MultiServerStorePath(store, 1), bytes)
          .ok());

  auto reopened = FpCollection::Open(store, store + ".key");
  ASSERT_FALSE(reopened.ok());
  EXPECT_EQ(reopened.status().code(), StatusCode::kCorruption)
      << reopened.status().ToString();
}

TEST(PersistenceTest, OpenRejectsKeyNamingZeroServers) {
  // A key whose deployment section claims zero servers must be rejected
  // while decoding — never reach the store-loading loop.
  DeterministicPrf seed = DeterministicPrf::FromString("open-zero");
  auto col = OneDocFpCollection(OpenFailDoc(605), seed).value();
  const std::string store = "/tmp/polysse_open_zero.bin";
  const std::string key = "/tmp/polysse_open_zero.key";
  ASSERT_TRUE(col->Save(store, key).ok());
  ClientSecretFile zero = FpKey();
  zero.seed = seed.seed();
  zero.tag_map = col->client().tag_map();
  zero.fp_p = col->ring().p();
  zero.scheme = ShareScheme::kAdditive;
  zero.num_servers = 0;
  ByteWriter w;
  zero.Serialize(&w);
  ASSERT_TRUE(WriteFileBytes(key, w.span()).ok());

  auto reopened = FpCollection::Open(store, key);
  ASSERT_FALSE(reopened.ok());
  EXPECT_EQ(reopened.status().code(), StatusCode::kCorruption)
      << reopened.status().ToString();
}

TEST(PersistenceTest, FileIoRoundTrip) {
  std::vector<uint8_t> data = {1, 2, 3, 250, 0, 7};
  ASSERT_TRUE(WriteFileBytes("/tmp/polysse_test_io.bin", data).ok());
  auto back = ReadFileBytes("/tmp/polysse_test_io.bin");
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, data);
  EXPECT_EQ(ReadFileBytes("/tmp/definitely_missing_polysse").status().code(),
            StatusCode::kNotFound);
}

}  // namespace
}  // namespace polysse
