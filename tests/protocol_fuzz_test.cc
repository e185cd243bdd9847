// Fuzz-style robustness battery for the wire-protocol codecs: truncated,
// bit-flipped, length-corrupted and purely random buffers must come back
// from Deserialize as clean Status errors (or valid messages) — never UB,
// never a crash, never an absurd allocation. Runs under ASan/UBSan in CI
// like the arithmetic differential battery.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <span>
#include <string>
#include <vector>

#include "core/persistence.h"
#include "core/protocol.h"
#include "net/frame.h"
#include "poly/fp_poly.h"
#include "testing/deterministic_rng.h"
#include "util/bytes.h"

namespace polysse {
namespace {

using testing::DeterministicRng;

// ---------------------------------------------------- replayable seeds --
//
// Every randomized drill derives its RNG seed from a fixed base plus its
// case index, and stamps the seed into the test trace. A red CI run
// therefore names the exact seed, and the failure replays locally with
//
//   POLYSSE_FUZZ_SEED=<seed> ./protocol_fuzz_test --gtest_filter=<Test>
//
// The override only changes the random-buffer rounds; the truncation /
// bit-flip / length-bomb sweeps are exhaustive and seed-independent.

constexpr uint64_t kFuzzSeedBase = 0x5EEDB10C2004ull;

uint64_t FuzzCaseSeed(uint64_t case_index) {
  if (const char* env = std::getenv("POLYSSE_FUZZ_SEED")) {
    return std::strtoull(env, nullptr, 0);
  }
  return kFuzzSeedBase + 0x9e3779b97f4a7c15ull * case_index;
}

std::string SeedNote(uint64_t seed) {
  char buf[96];
  std::snprintf(buf, sizeof(buf),
                "rng seed 0x%llx — replay with POLYSSE_FUZZ_SEED=0x%llx",
                static_cast<unsigned long long>(seed),
                static_cast<unsigned long long>(seed));
  return buf;
}

// ------------------------------------------------------- seed messages --

std::vector<uint8_t> SeedEvalRequest() {
  EvalRequest req;
  req.points = {1, 7, 12345678901234ull};
  req.node_ids = {0, 5, 1 << 20};
  ByteWriter w;
  req.Serialize(&w);
  return w.Take();
}

std::vector<uint8_t> SeedEvalResponse() {
  EvalResponse resp;
  for (int i = 0; i < 3; ++i) {
    EvalEntry e;
    e.node_id = i;
    e.values = {0, 99, 1ull << 60};
    e.children = {i + 1, i + 2};
    e.subtree_size = 17;
    resp.entries.push_back(e);
  }
  ByteWriter w;
  resp.Serialize(&w);
  return w.Take();
}

std::vector<uint8_t> SeedFetchRequest() {
  FetchRequest req;
  req.mode = FetchMode::kConstOnly;
  req.node_ids = {3, 1, 4, 1, 5};
  ByteWriter w;
  req.Serialize(&w);
  return w.Take();
}

std::vector<uint8_t> SeedFetchResponse() {
  FetchResponse resp;
  for (int i = 0; i < 2; ++i) {
    FetchEntry e;
    e.node_id = i;
    e.payload = {0xDE, 0xAD, 0xBE, 0xEF, static_cast<uint8_t>(i)};
    resp.entries.push_back(e);
  }
  ByteWriter w;
  resp.Serialize(&w);
  return w.Take();
}

// ------------------------------------------------------------ the drill --

/// Feeds `bytes` to Deserialize; the only acceptable outcomes are a valid
/// message or a clean error. Also bounds the decoder's appetite: a decoded
/// message can never hold more elements than input bytes.
template <typename Msg>
void Drill(const std::vector<uint8_t>& bytes, size_t* ok_count) {
  ByteReader in(bytes);
  auto r = Msg::Deserialize(&in);
  if (r.ok()) {
    ++*ok_count;
    // Round-trip: a message the decoder accepted must re-encode.
    ByteWriter w;
    r->Serialize(&w);
  } else {
    EXPECT_NE(r.status().code(), StatusCode::kOk);
    EXPECT_FALSE(r.status().message().empty());
  }
}

template <typename Msg>
void FuzzMessage(const std::vector<uint8_t>& valid, uint64_t rng_seed) {
  SCOPED_TRACE(SeedNote(rng_seed));
  size_t ok = 0;

  // Every truncation of a valid encoding.
  for (size_t len = 0; len < valid.size(); ++len) {
    std::vector<uint8_t> cut(valid.begin(), valid.begin() + len);
    Drill<Msg>(cut, &ok);
  }

  // Every single-bit flip.
  for (size_t byte = 0; byte < valid.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::vector<uint8_t> flipped = valid;
      flipped[byte] ^= static_cast<uint8_t>(1u << bit);
      Drill<Msg>(flipped, &ok);
    }
  }

  // Length-field bombs: replace each prefix byte with a maxed varint that
  // claims ~2^63 elements. The decoder must reject before allocating.
  for (size_t pos = 0; pos < valid.size(); ++pos) {
    std::vector<uint8_t> bomb(valid.begin(), valid.begin() + pos);
    for (int i = 0; i < 9; ++i) bomb.push_back(0xFF);
    bomb.push_back(0x7F);
    bomb.insert(bomb.end(), valid.begin() + pos, valid.end());
    Drill<Msg>(bomb, &ok);
  }

  // Purely random buffers of assorted sizes.
  DeterministicRng rng(rng_seed);
  for (int round = 0; round < 500; ++round) {
    std::vector<uint8_t> junk(rng.UniformInt(0, 96));
    for (uint8_t& b : junk) b = static_cast<uint8_t>(rng());
    Drill<Msg>(junk, &ok);
  }

  // The unmodified encoding itself decodes (sanity that the drill loop
  // exercised the success path at least once).
  Drill<Msg>(valid, &ok);
  EXPECT_GE(ok, 1u);
}

TEST(ProtocolFuzzTest, EvalRequestSurvivesCorruptBuffers) {
  FuzzMessage<EvalRequest>(SeedEvalRequest(), FuzzCaseSeed(0));
}

TEST(ProtocolFuzzTest, EvalResponseSurvivesCorruptBuffers) {
  FuzzMessage<EvalResponse>(SeedEvalResponse(), FuzzCaseSeed(1));
}

TEST(ProtocolFuzzTest, FetchRequestSurvivesCorruptBuffers) {
  FuzzMessage<FetchRequest>(SeedFetchRequest(), FuzzCaseSeed(2));
}

// Batched verification fetches made degenerate id lists a normal part of
// the protocol: an empty plan and heavily duplicated ids must both encode,
// survive the corruption drill, and round-trip losslessly.
TEST(ProtocolFuzzTest, FetchRequestEmptyNodeIdsSurvivesCorruptBuffers) {
  FetchRequest req;
  req.mode = FetchMode::kFull;
  ByteWriter w;
  req.Serialize(&w);
  const std::vector<uint8_t> valid = w.Take();
  FuzzMessage<FetchRequest>(valid, FuzzCaseSeed(3));

  ByteReader in(valid);
  auto back = FetchRequest::Deserialize(&in);
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back->node_ids.empty());
  EXPECT_EQ(back->mode, FetchMode::kFull);
}

TEST(ProtocolFuzzTest, FetchRequestDuplicatedNodeIdsSurviveCorruptBuffers) {
  FetchRequest req;
  req.mode = FetchMode::kConstOnly;
  req.node_ids = {7, 7, 7, 2, 2, 7, 0, 7};
  ByteWriter w;
  req.Serialize(&w);
  const std::vector<uint8_t> valid = w.Take();
  FuzzMessage<FetchRequest>(valid, FuzzCaseSeed(4));

  ByteReader in(valid);
  auto back = FetchRequest::Deserialize(&in);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->node_ids, req.node_ids);  // duplicates preserved verbatim
}

TEST(ProtocolFuzzTest, FetchResponseSurvivesCorruptBuffers) {
  FuzzMessage<FetchResponse>(SeedFetchResponse(), FuzzCaseSeed(5));
}

TEST(ProtocolFuzzTest, AddDocRequestSurvivesCorruptBuffers) {
  AddDocRequest req;
  req.doc_id = 42;
  req.base = 1 << 20;
  req.store_bytes = {'P', 'S', 'S', 'E', 1, 1, 9, 9, 9};
  ByteWriter w;
  req.Serialize(&w);
  FuzzMessage<AddDocRequest>(w.Take(), FuzzCaseSeed(6));
}

TEST(ProtocolFuzzTest, RemoveDocRequestAndAckSurviveCorruptBuffers) {
  RemoveDocRequest req;
  req.doc_id = 7;
  ByteWriter w;
  req.Serialize(&w);
  FuzzMessage<RemoveDocRequest>(w.Take(), FuzzCaseSeed(7));

  AdminAck ack;
  ack.doc_count = 3;
  ack.node_count = 999;
  ByteWriter wa;
  ack.Serialize(&wa);
  FuzzMessage<AdminAck>(wa.Take(), FuzzCaseSeed(8));
}

// --------------------------- shard administration + health-probe drills --

TEST(ProtocolFuzzTest, ExportDocMessagesSurviveCorruptBuffers) {
  ExportDocRequest req;
  req.doc_id = 17;
  ByteWriter w;
  req.Serialize(&w);
  FuzzMessage<ExportDocRequest>(w.Take(), FuzzCaseSeed(9));

  ExportDocResponse resp;
  resp.base = 1 << 20;
  resp.store_bytes = {'P', 'S', 'S', 'E', 1, 1, 42, 42, 42, 42};
  ByteWriter wr;
  resp.Serialize(&wr);
  FuzzMessage<ExportDocResponse>(wr.Take(), FuzzCaseSeed(10));
}

TEST(ProtocolFuzzTest, RebaseDocRequestSurvivesCorruptBuffers) {
  RebaseDocRequest req;
  req.doc_id = 9;
  req.new_base = 123456;
  ByteWriter w;
  req.Serialize(&w);
  FuzzMessage<RebaseDocRequest>(w.Take(), FuzzCaseSeed(11));
}

TEST(ProtocolFuzzTest, PingMessagesSurviveCorruptBuffers) {
  PingRequest req;
  req.nonce = 0x9e3779b97f4a7c15ull;
  ByteWriter w;
  req.Serialize(&w);
  FuzzMessage<PingRequest>(w.Take(), FuzzCaseSeed(12));

  PingResponse resp;
  resp.nonce = 0x9e3779b97f4a7c15ull;
  resp.doc_count = 3;
  resp.node_count = 4096;
  ByteWriter wr;
  resp.Serialize(&wr);
  FuzzMessage<PingResponse>(wr.Take(), FuzzCaseSeed(13));
}

// A base claiming to sit past the int32 node-id space is rejected while
// decoding — no admin handler ever sees an id range it cannot represent.
TEST(ProtocolFuzzTest, OutOfRangeBasesAreCorruption) {
  ByteWriter w;
  w.PutVarint64(static_cast<uint64_t>(INT32_MAX) + 1);
  w.PutVarint64(0);  // empty store_bytes
  ByteReader in(w.span());
  auto r = ExportDocResponse::Deserialize(&in);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCorruption);

  ByteWriter wr;
  wr.PutVarint64(5);  // doc_id
  wr.PutVarint64(static_cast<uint64_t>(INT32_MAX) + 1);
  ByteReader in2(wr.span());
  auto r2 = RebaseDocRequest::Deserialize(&in2);
  ASSERT_FALSE(r2.ok());
  EXPECT_EQ(r2.status().code(), StatusCode::kCorruption);
}

// The v4 key file's shard table is attacker-visible persistence: a
// hand-edited table with duplicate ids, overlapping ranges, an
// impossible allocation offset or a document outside every shard must
// be Corruption at load time — the routing invariants are enforced by
// the decoder, not trusted from disk.
std::vector<uint8_t> SerializeKey(const ClientSecretFile& key) {
  ByteWriter w;
  key.Serialize(&w);
  return w.Take();
}

ClientSecretFile SeedShardedKey() {
  ClientSecretFile key;
  key.seed.fill(0x5A);
  key.ring_kind = static_cast<uint8_t>(StoredRingKind::kFpCyclotomic);
  key.fp_p = 257;
  key.docs.push_back({1, 0, 10, "d1.0"});
  key.docs.push_back({2, 1 << 20, 12, "d2.1"});
  key.next_epoch = 2;
  key.shards.push_back({0, 0, 1 << 20, 10});
  key.shards.push_back({1, 1 << 20, 1 << 20, 12});
  return key;
}

template <typename Mutate>
void ExpectKeyRejected(Mutate mutate, const char* label) {
  ClientSecretFile key = SeedShardedKey();
  mutate(&key);
  std::vector<uint8_t> bytes = SerializeKey(key);
  ByteReader in(bytes);
  auto r = ClientSecretFile::Deserialize(&in);
  ASSERT_FALSE(r.ok()) << label;
  EXPECT_EQ(r.status().code(), StatusCode::kCorruption) << label;
}

TEST(ProtocolFuzzTest, KeyFileShardTableInvariantsEnforcedOnLoad) {
  // The untampered seed decodes (the drill exercises real rejections, not
  // a decoder that fails everything).
  std::vector<uint8_t> valid = SerializeKey(SeedShardedKey());
  ByteReader in(valid);
  ASSERT_TRUE(ClientSecretFile::Deserialize(&in).ok());

  ExpectKeyRejected(
      [](ClientSecretFile* key) { key->shards[1].shard_id = 0; },
      "duplicate shard id");
  ExpectKeyRejected(
      [](ClientSecretFile* key) { key->shards[1].base = 5; },
      "overlapping ranges");
  ExpectKeyRejected(
      [](ClientSecretFile* key) {
        key->shards[1].next = key->shards[1].span + 1;
      },
      "next past span");
  ExpectKeyRejected(
      [](ClientSecretFile* key) { key->docs[1].base = 3 << 20; },
      "document outside every shard");
  ExpectKeyRejected(
      [](ClientSecretFile* key) {
        // Bogus shard id far outside anything the table names is fine by
        // itself — but its range must still fit the id space.
        key->shards.push_back({0xDEADBEEF, INT32_MAX - 5, 100, 0});
      },
      "range past the id space");
}

TEST(ProtocolFuzzTest, V4KeyFileSurvivesCorruptBuffers) {
  FuzzMessage<ClientSecretFile>(SerializeKey(SeedShardedKey()), FuzzCaseSeed(14));
}

// ------------------------------------------- tagged-frame (v2) drills --

TEST(TaggedFrameFuzzTest, TruncatedTagHeadersAreCleanErrors) {
  // A well-formed 9-byte header round-trips...
  std::vector<uint8_t> frame;
  const uint8_t payload[] = {0xAB, 0xCD};
  AppendTaggedFrame(&frame, /*kind=*/1, /*tag=*/0x01020304, payload);
  auto hdr = DecodeTaggedFrameHeader(frame);
  ASSERT_TRUE(hdr.ok());
  EXPECT_EQ(hdr->kind, 1);
  EXPECT_EQ(hdr->tag, 0x01020304u);
  EXPECT_EQ(hdr->len, 2u);
  EXPECT_EQ(frame.size(), kTaggedFrameHeaderBytes + 2);

  // ...but every truncation of the header fails cleanly, without reading
  // past the buffer.
  for (size_t len = 0; len < kTaggedFrameHeaderBytes; ++len) {
    std::vector<uint8_t> cut(frame.begin(), frame.begin() + len);
    auto r = DecodeTaggedFrameHeader(cut);
    ASSERT_FALSE(r.ok()) << "header decoded from " << len << " bytes";
    EXPECT_FALSE(r.status().message().empty());
  }
}

TEST(TaggedFrameFuzzTest, OversizeLengthAnnouncementRejectedBeforeAlloc) {
  // kind + tag + a length claiming ~4 GiB: rejected up front.
  std::vector<uint8_t> bomb = {1, 0, 0, 0, 1, 0xFF, 0xFF, 0xFF, 0xFF};
  auto r = DecodeTaggedFrameHeader(bomb);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCorruption);

  // Exactly at the cap is still acceptable as an announcement.
  std::vector<uint8_t> at_cap = {1, 0, 0, 0, 1, 0, 0, 0, 0};
  const uint32_t cap = kMaxSocketFrameBytes;
  at_cap[5] = static_cast<uint8_t>(cap);
  at_cap[6] = static_cast<uint8_t>(cap >> 8);
  at_cap[7] = static_cast<uint8_t>(cap >> 16);
  at_cap[8] = static_cast<uint8_t>(cap >> 24);
  EXPECT_TRUE(DecodeTaggedFrameHeader(at_cap).ok());
}

TEST(TaggedFrameFuzzTest, RandomHeaderBytesNeverCrashTheDecoder) {
  const uint64_t seed = FuzzCaseSeed(15);
  SCOPED_TRACE(SeedNote(seed));
  DeterministicRng rng(seed);
  for (int round = 0; round < 2000; ++round) {
    std::vector<uint8_t> junk(rng.UniformInt(0, 12));
    for (uint8_t& b : junk) b = static_cast<uint8_t>(rng());
    auto r = DecodeTaggedFrameHeader(junk);
    if (r.ok()) {
      EXPECT_GE(junk.size(), kTaggedFrameHeaderBytes);
      EXPECT_LE(r->len, kMaxSocketFrameBytes);
    }
  }
}

TEST(TaggedFrameFuzzTest, UnknownResponseTagIsCorruption) {
  TagRouter router;
  auto reg = router.Register();
  ASSERT_TRUE(reg.ok());
  const uint32_t tag = reg->first;

  // A response tag the client never issued is a protocol violation.
  Status s = router.Complete(tag + 999, std::vector<uint8_t>{1, 2, 3});
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kCorruption);

  // The legitimate in-flight request is unharmed by the bad frame.
  ASSERT_TRUE(router.Complete(tag, std::vector<uint8_t>{4, 5}).ok());
  auto got = reg->second->Await();
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, (std::vector<uint8_t>{4, 5}));
}

TEST(TaggedFrameFuzzTest, DuplicateResponseTagIsCorruption) {
  TagRouter router;
  auto reg = router.Register();
  ASSERT_TRUE(reg.ok());
  const uint32_t tag = reg->first;

  ASSERT_TRUE(router.Complete(tag, std::vector<uint8_t>{7}).ok());
  // Second answer for the same tag: rejected, and the first delivery is
  // not disturbed (first wins, never double-complete).
  Status dup = router.Complete(tag, std::vector<uint8_t>{9});
  ASSERT_FALSE(dup.ok());
  EXPECT_EQ(dup.code(), StatusCode::kCorruption);
  auto got = reg->second->Await();
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, (std::vector<uint8_t>{7}));
}

TEST(TaggedFrameFuzzTest, TagFloodHitsPendingCapNotTheAllocator) {
  // The pending map is capacity-bounded: a runaway submitter gets
  // FailedPrecondition at the cap; the map never exceeds it.
  constexpr size_t kCap = 32;
  TagRouter router(kCap);
  std::vector<std::shared_ptr<PendingFrameSlot>> slots;
  for (size_t i = 0; i < kCap; ++i) {
    auto reg = router.Register();
    ASSERT_TRUE(reg.ok()) << "register " << i;
    slots.push_back(reg->second);
  }
  EXPECT_EQ(router.pending(), kCap);
  for (int extra = 0; extra < 100; ++extra) {
    auto reg = router.Register();
    ASSERT_FALSE(reg.ok());
    EXPECT_EQ(reg.status().code(), StatusCode::kFailedPrecondition);
  }
  EXPECT_EQ(router.pending(), kCap);

  // Draining one slot frees capacity for exactly one more.
  ASSERT_TRUE(router.Complete(1, std::vector<uint8_t>{}).ok());
  EXPECT_TRUE(router.Register().ok());
  EXPECT_FALSE(router.Register().ok());
}

TEST(TaggedFrameFuzzTest, FailAllFlushesPendingAndClosesRouter) {
  TagRouter router;
  auto a = router.Register();
  auto b = router.Register();
  ASSERT_TRUE(a.ok() && b.ok());

  router.FailAll(Status::Unavailable("wire died"));
  for (auto* reg : {&*a, &*b}) {
    auto got = reg->second->Await();
    ASSERT_FALSE(got.ok());
    EXPECT_EQ(got.status().code(), StatusCode::kUnavailable);
  }
  EXPECT_TRUE(router.closed());
  EXPECT_EQ(router.pending(), 0u);

  // Closed router: new registrations refuse, stale completions are
  // unknown-tag violations, and a second FailAll is a no-op.
  auto late = router.Register();
  ASSERT_FALSE(late.ok());
  EXPECT_EQ(late.status().code(), StatusCode::kUnavailable);
  EXPECT_FALSE(router.Complete(a->first, std::vector<uint8_t>{}).ok());
  router.FailAll(Status::Unavailable("again"));
}

// ------------------------------------------------- varint run codec --
//
// ByteWriter::PutVarints / ByteReader::GetVarints are one-pass forms of a
// loop over PutVarint64 / GetVarint64, and must be indistinguishable from
// it: the same bytes, and on decode the same values, final position and
// status on every input, however it ends.

// A value whose minimal varint takes `bytes` bytes (1..10).
uint64_t ValueOfVarintLength(DeterministicRng& rng, int bytes) {
  if (bytes == 1) return rng.UniformInt(0, 0x7F);
  const uint64_t lo = uint64_t{1} << (7 * (bytes - 1));
  const uint64_t hi =
      bytes == 10 ? ~uint64_t{0} : (uint64_t{1} << (7 * bytes)) - 1;
  return lo + rng() % (hi - lo + 1);
}

// Decodes `count` varints both ways and compares everything observable.
void ExpectRunDecodeAgrees(std::span<const uint8_t> bytes, size_t count) {
  constexpr uint64_t kUnset = 0xABCDEF;
  ByteReader one(bytes);
  std::vector<uint64_t> want(count, kUnset);
  Status want_status = Status::Ok();
  for (size_t i = 0; i < count; ++i) {
    auto v = one.GetVarint64();
    if (!v.ok()) {
      want_status = v.status();
      break;
    }
    want[i] = *v;
  }
  ByteReader run(bytes);
  std::vector<uint64_t> got(count, kUnset);
  const Status got_status = run.GetVarints(got);
  EXPECT_EQ(got_status.code(), want_status.code()) << "len " << bytes.size();
  EXPECT_EQ(got_status.message(), want_status.message());
  EXPECT_EQ(got, want) << "len " << bytes.size();
  EXPECT_EQ(run.position(), one.position()) << "len " << bytes.size();
}

// FpPoly::Deserialize as a coefficient-by-coefficient read: the count
// checks, then each varint followed by its canonical check.
Status ReferenceFpPolyRead(const PrimeField& field, ByteReader* in) {
  ASSIGN_OR_RETURN(uint64_t n, in->GetVarint64());
  if (n > (1ull << 32))
    return Status::Corruption("FpPoly: absurd coefficient count");
  if (n > in->remaining())
    return Status::Corruption("FpPoly: coefficient count exceeds remaining bytes");
  for (uint64_t i = 0; i < n; ++i) {
    ASSIGN_OR_RETURN(uint64_t c, in->GetVarint64());
    if (!field.IsCanonical(c))
      return Status::Corruption("FpPoly: coefficient outside field");
  }
  return Status::Ok();
}

TEST(ProtocolFuzzTest, VarintRunCodecAgreesWithOneAtATime) {
  const uint64_t seed = FuzzCaseSeed(16);
  SCOPED_TRACE(SeedNote(seed));
  DeterministicRng rng(seed);
  for (int round = 0; round < 400; ++round) {
    // Runs of 1- to 10-byte varints; most rounds mostly one-byte values, so
    // the eight-at-a-time path runs and is broken off at random points.
    const size_t n = rng.UniformInt(0, 40);
    const int max_bytes = rng.UniformInt(0, 2) == 0 ? 10 : 2;
    std::vector<uint64_t> values(n);
    for (uint64_t& v : values)
      v = ValueOfVarintLength(
          rng, rng.UniformInt(0, 3) == 0 ? rng.UniformInt(1, max_bytes) : 1);
    ByteWriter loop, one_pass;
    for (uint64_t v : values) loop.PutVarint64(v);
    one_pass.PutVarints(values);
    ASSERT_EQ(one_pass.bytes(), loop.bytes()) << "round " << round;

    std::vector<uint8_t> bytes = loop.Take();
    // Splice in a hostile varint: a non-minimal one that still decodes, an
    // overlong one (11 bytes), or a 10-byte one that overflows 64 bits.
    if (rng.UniformInt(0, 1) == 0) {
      std::vector<uint8_t> hostile;
      switch (rng.UniformInt(0, 2)) {
        case 0:  // non-minimal, 2..10 bytes
          hostile.assign(rng.UniformInt(1, 9), 0x80);
          hostile.push_back(0x00);
          break;
        case 1:  // eleven bytes
          hostile.assign(10, 0x80 | static_cast<uint8_t>(rng() & 0x7F));
          hostile.push_back(0x01);
          break;
        default:  // tenth byte carries bits past 2^63
          hostile.assign(9, 0xFF);
          hostile.push_back(static_cast<uint8_t>(rng.UniformInt(2, 0x7F)));
          break;
      }
      const size_t at = rng.UniformInt(0, bytes.size());
      bytes.insert(bytes.begin() + static_cast<std::ptrdiff_t>(at),
                   hostile.begin(), hostile.end());
    }
    // Every truncation point, asking for the values the full buffer holds
    // and for one more than that.
    for (size_t len = 0; len <= bytes.size(); ++len) {
      const std::span<const uint8_t> cut(bytes.data(), len);
      ExpectRunDecodeAgrees(cut, n);
      ExpectRunDecodeAgrees(cut, n + 1);
    }
  }
  // Random bytes, continuation-heavy.
  for (int round = 0; round < 500; ++round) {
    std::vector<uint8_t> junk(rng.UniformInt(0, 64));
    for (uint8_t& b : junk) {
      b = static_cast<uint8_t>(rng());
      if (rng.UniformInt(0, 1) == 0) b |= 0x80;
    }
    ExpectRunDecodeAgrees(junk, rng.UniformInt(0, 24));
  }
}

TEST(ProtocolFuzzTest, FpPolyDecodeRefusesLikeOneAtATime) {
  // A coefficient >= p and a count past the remaining bytes are still
  // refused, with the status a coefficient-by-coefficient read gives, on
  // every truncation of encodings that hide one bad coefficient among runs
  // of good ones.
  const uint64_t seed = FuzzCaseSeed(17);
  SCOPED_TRACE(SeedNote(seed));
  DeterministicRng rng(seed);
  for (uint64_t p : {67ull, 1009ull}) {
    const PrimeField field = PrimeField::Create(p).value();
    for (int round = 0; round < 60; ++round) {
      std::vector<uint64_t> coeffs(rng.UniformInt(1, 40));
      for (uint64_t& c : coeffs) c = rng.UniformInt(0, p - 1);
      if (round % 3 != 0) {
        // One bad coefficient: one byte at p = 67 (67..127), else wider.
        coeffs[rng.UniformInt(0, coeffs.size() - 1)] =
            round % 2 == 0 && p < 128 ? rng.UniformInt(p, 127)
                                      : p + rng.UniformInt(0, 1u << 20);
      }
      ByteWriter w;
      w.PutVarint64(coeffs.size() + (round % 5 == 0 ? 3 : 0));
      w.PutVarints(coeffs);
      const std::vector<uint8_t> bytes = w.Take();
      for (size_t len = 0; len <= bytes.size(); ++len) {
        const std::span<const uint8_t> cut(bytes.data(), len);
        ByteReader ref_in(cut), in(cut);
        const Status want = ReferenceFpPolyRead(field, &ref_in);
        const auto got = FpPoly::Deserialize(field, &in);
        EXPECT_EQ(got.status().code(), want.code()) << "p=" << p << " len=" << len;
        EXPECT_EQ(got.status().message(), want.message())
            << "p=" << p << " len=" << len;
      }
    }
  }
}

TEST(ProtocolFuzzTest, ElementCountsAreBoundedByInputSize) {
  // A 6-byte buffer claiming 2^24 points must be rejected up front (the
  // allocation-bomb guard), not limp along until end-of-buffer.
  ByteWriter w;
  w.PutVarint64(1u << 24);
  w.PutU8(1);
  ByteReader in(w.span());
  auto r = EvalRequest::Deserialize(&in);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCorruption);
}

TEST(ProtocolFuzzTest, FetchedPolynomialCountsAreBoundedByInputSize) {
  // A fetch payload is a server-chosen FpPoly encoding: a 2-byte coefficient
  // list claiming 2^24 entries is refused by the count check itself, before
  // a vector of that size exists, not by running out of input later.
  const PrimeField field = PrimeField::Create(67).value();
  ByteWriter w;
  w.PutVarint64(1ull << 24);
  w.PutU8(1);
  ByteReader in(w.span());
  auto r = FpPoly::Deserialize(field, &in);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCorruption);
  EXPECT_NE(r.status().message().find("exceeds remaining bytes"),
            std::string::npos)
      << r.status().ToString();
}

}  // namespace
}  // namespace polysse
