// Known-answer tests (FIPS/RFC vectors) and behavioural tests for the crypto
// substrate: SHA-256, HMAC-SHA-256, ChaCha20, the deterministic PRF.
// ctest registers this binary twice, once plain and once with
// POLYSSE_DISABLE_AVX2=1, so the pins and the differential tests check both
// the SIMD kernels (SHA-NI, AVX2 ChaCha20) and the portable ones.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <iterator>
#include <span>
#include <string>
#include <vector>

#include "core/sharing.h"
#include "crypto/chacha20.h"
#include "crypto/prf.h"
#include "crypto/sha256.h"
#include "field/prime_field.h"
#include "ring/fp_cyclotomic_ring.h"
#include "util/cpu_features.h"
#include "util/hex.h"

namespace polysse {
namespace {

std::string HexDigest(const std::array<uint8_t, 32>& d) {
  return ToHex(std::span<const uint8_t>(d.data(), d.size()));
}

// ------------------------------------------------------------- SHA-256 --

TEST(Sha256Test, Fips180EmptyString) {
  EXPECT_EQ(HexDigest(Sha256::Hash("")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256Test, Fips180Abc) {
  EXPECT_EQ(HexDigest(Sha256::Hash("abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256Test, Fips180TwoBlocks) {
  EXPECT_EQ(
      HexDigest(Sha256::Hash(
          "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256Test, MillionAs) {
  Sha256 h;
  std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.Update(chunk);
  EXPECT_EQ(HexDigest(h.Finish()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256Test, IncrementalMatchesOneShot) {
  std::string msg = "the quick brown fox jumps over the lazy dog";
  for (size_t split = 0; split <= msg.size(); ++split) {
    Sha256 h;
    h.Update(msg.substr(0, split));
    h.Update(msg.substr(split));
    EXPECT_EQ(HexDigest(h.Finish()), HexDigest(Sha256::Hash(msg))) << split;
  }
}

TEST(Sha256Test, BoundaryLengths) {
  // 55/56/64 bytes exercise the padding branches.
  for (size_t len : {55u, 56u, 63u, 64u, 65u, 119u, 120u}) {
    std::string msg(len, 'x');
    Sha256 a;
    a.Update(msg);
    auto one = a.Finish();
    Sha256 b;
    for (char c : msg) b.Update(std::string(1, c));
    EXPECT_EQ(HexDigest(one), HexDigest(b.Finish())) << len;
  }
}

#if defined(__x86_64__)
TEST(Sha256Test, ShaNiMatchesScalarCompression) {
  if (!SimdEnabled(SimdIsa::kShaNi)) GTEST_SKIP() << "no SHA-NI kernel";
  ChaChaRng rng = ChaChaRng::FromString("sha-ni blocks");
  std::vector<uint8_t> blocks(1000 * Sha256::kBlockSize);
  rng.Fill(blocks);
  uint32_t initial[8] = {};
  for (uint32_t& w : initial) w = static_cast<uint32_t>(rng.NextU64());

  uint32_t scalar[8] = {}, simd[8] = {};
  std::copy(initial, initial + 8, scalar);
  std::copy(initial, initial + 8, simd);
  for (size_t b = 0; b < 1000; ++b) {
    const uint8_t* block = blocks.data() + b * Sha256::kBlockSize;
    Sha256::ProcessBlock(scalar, block);
    Sha256::ProcessBlocksShaNi(simd, block, 1);
    ASSERT_TRUE(std::equal(scalar, scalar + 8, simd)) << "block " << b;
  }
  // All 1000 blocks in one multi-block call land on the same state.
  std::copy(initial, initial + 8, simd);
  Sha256::ProcessBlocksShaNi(simd, blocks.data(), 1000);
  EXPECT_TRUE(std::equal(scalar, scalar + 8, simd));
}
#endif

// -------------------------------------------------------- HMAC-SHA-256 --

TEST(HmacTest, Rfc4231Case1) {
  std::vector<uint8_t> key(20, 0x0b);
  std::string msg = "Hi There";
  auto mac = HmacSha256(
      key, std::span<const uint8_t>(
               reinterpret_cast<const uint8_t*>(msg.data()), msg.size()));
  EXPECT_EQ(ToHex(mac),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(HmacTest, Rfc4231Case2) {
  EXPECT_EQ(ToHex(HmacSha256("Jefe", "what do ya want for nothing?")),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(HmacTest, Rfc4231Case3) {
  std::vector<uint8_t> key(20, 0xaa);
  std::vector<uint8_t> data(50, 0xdd);
  EXPECT_EQ(ToHex(HmacSha256(key, data)),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe");
}

TEST(HmacTest, Rfc4231Case6LongKey) {
  std::vector<uint8_t> key(131, 0xaa);
  std::string msg = "Test Using Larger Than Block-Size Key - Hash Key First";
  EXPECT_EQ(ToHex(HmacSha256(key, std::span<const uint8_t>(
                                      reinterpret_cast<const uint8_t*>(msg.data()),
                                      msg.size()))),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

// The textbook construction, H((K ^ opad) || H((K ^ ipad) || m)), for a
// key of at most one block.
std::array<uint8_t, 32> TextbookHmac(std::span<const uint8_t> key,
                                     std::span<const uint8_t> message) {
  uint8_t ipad[Sha256::kBlockSize] = {}, opad[Sha256::kBlockSize] = {};
  std::copy(key.begin(), key.end(), ipad);
  std::copy(key.begin(), key.end(), opad);
  for (size_t i = 0; i < Sha256::kBlockSize; ++i) {
    ipad[i] ^= 0x36;
    opad[i] ^= 0x5c;
  }
  Sha256 inner;
  inner.Update(std::span<const uint8_t>(ipad, sizeof ipad));
  inner.Update(message);
  const auto inner_digest = inner.Finish();
  Sha256 outer;
  outer.Update(std::span<const uint8_t>(opad, sizeof opad));
  outer.Update(inner_digest);
  return outer.Finish();
}

// Message lengths 0..120 cross the one-block MAC path's end (55 bytes) and
// the two-block inner hash's (119): every tag equals the textbook
// construction, and the digest of all of them is pinned.
TEST(HmacTest, MessageLengthsUpTo120) {
  std::array<uint8_t, 32> key;
  for (int i = 0; i < 32; ++i) key[i] = static_cast<uint8_t>(0xa5 ^ (3 * i));
  const HmacSha256Key mac(key);
  Sha256 all;
  for (size_t len = 0; len <= 120; ++len) {
    std::vector<uint8_t> message(len);
    for (size_t i = 0; i < len; ++i)
      message[i] = static_cast<uint8_t>(7 * i + len);
    const auto tag = mac.Mac(message);
    EXPECT_EQ(HexDigest(tag), HexDigest(TextbookHmac(key, message))) << len;
    all.Update(tag);
  }
  EXPECT_EQ(HexDigest(all.Finish()),
            "ac4154168035e62cf68895d0509f554e817675c9a1d5af71254f6063f7d814b0");
}

TEST(HmacTest, KeySensitivity) {
  EXPECT_NE(ToHex(HmacSha256("key1", "msg")), ToHex(HmacSha256("key2", "msg")));
  EXPECT_NE(ToHex(HmacSha256("key", "msg1")), ToHex(HmacSha256("key", "msg2")));
}

// ------------------------------------------------------------ ChaCha20 --

TEST(ChaCha20Test, Rfc8439KeystreamVector) {
  // RFC 8439 section 2.4.2 test vector: key 00..1f, nonce 00..00 4a 00..00,
  // counter 1, plaintext "Ladies and Gentlemen...".
  std::array<uint8_t, 32> key;
  for (int i = 0; i < 32; ++i) key[i] = static_cast<uint8_t>(i);
  std::array<uint8_t, 12> nonce = {0, 0, 0, 0, 0, 0, 0, 0x4a, 0, 0, 0, 0};
  std::string plaintext =
      "Ladies and Gentlemen of the class of '99: If I could offer you "
      "only one tip for the future, sunscreen would be it.";
  ChaCha20 cipher(key, nonce, 1);
  auto ct = cipher.Process(std::span<const uint8_t>(
      reinterpret_cast<const uint8_t*>(plaintext.data()), plaintext.size()));
  EXPECT_EQ(ToHex(std::span<const uint8_t>(ct.data(), 16)),
            "6e2e359a2568f98041ba0728dd0d6981");
  // Tail of the RFC ciphertext: ...0b bf 74 a3 5b e6 b4 0b 8e ed f2 78 5e 42 87 4d.
  EXPECT_EQ(ToHex(std::span<const uint8_t>(ct.data() + ct.size() - 16, 16)),
            "0bbf74a35be6b40b8eedf2785e42874d");
}

TEST(ChaCha20Test, EncryptDecryptRoundTrip) {
  std::array<uint8_t, 32> key{};
  key[0] = 7;
  std::array<uint8_t, 12> nonce{};
  std::vector<uint8_t> msg(1000);
  for (size_t i = 0; i < msg.size(); ++i) msg[i] = static_cast<uint8_t>(i * 31);
  ChaCha20 enc(key, nonce);
  auto ct = enc.Process(msg);
  EXPECT_NE(ct, msg);
  ChaCha20 dec(key, nonce);
  EXPECT_EQ(dec.Process(ct), msg);
}

TEST(ChaCha20Test, KeystreamMatchesReferenceAcrossCounterWrap) {
  // 4 KiB from counter 0xFFFFFFFA: the first 8-block buffer holds counters
  // ...FA-FF and 0-1, so the 2^32 wrap falls inside one AVX2 pass.
  std::array<uint8_t, 32> key{};
  for (int i = 0; i < 32; ++i) key[i] = static_cast<uint8_t>(7 * i + 3);
  const std::array<uint8_t, 12> nonce = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12};
  constexpr uint32_t kFirst = 0xFFFFFFFAu;
  constexpr size_t kBytes = 4096;
  std::vector<uint8_t> expected;
  for (uint32_t c = kFirst; expected.size() < kBytes; ++c) {
    const auto block = ChaCha20::ReferenceBlock(key, nonce, c);
    expected.insert(expected.end(), block.begin(), block.end());
  }

  // Odd-sized pieces straddle every buffer boundary; the 8-byte pieces go
  // through NextU64, which reads the buffer directly unless a word spans
  // two refills.
  ChaCha20 cipher(key, nonce, kFirst);
  std::vector<uint8_t> got;
  const size_t pieces[] = {1, 8, 3, 61, 8, 13, 97, 8, 5, 127};
  for (size_t i = 0; got.size() < kBytes; ++i) {
    const size_t n =
        std::min(pieces[i % std::size(pieces)], kBytes - got.size());
    std::vector<uint8_t> piece(n, 0);
    if (n == 8) {
      const uint64_t word = cipher.NextU64();
      for (size_t b = 0; b < 8; ++b)
        piece[b] = static_cast<uint8_t>(word >> (8 * b));
    } else {
      cipher.XorStream(piece);
    }
    got.insert(got.end(), piece.begin(), piece.end());
  }
  EXPECT_EQ(ToHex(got), ToHex(expected));
}

// The keystream from `first` on, by the portable block function.
std::vector<uint8_t> ReferenceStream(std::span<const uint8_t, 32> key,
                                     std::span<const uint8_t, 12> nonce,
                                     uint32_t first, size_t bytes) {
  std::vector<uint8_t> out;
  for (uint32_t c = first; out.size() < bytes; ++c) {
    const auto block = ChaCha20::ReferenceBlock(key, nonce, c);
    out.insert(out.end(), block.begin(), block.end());
  }
  out.resize(bytes);
  return out;
}

// Single words, bulk draws of every size class (under one block, the tail
// crossover, whole eight-block passes, and beyond) and XorStream pieces of
// odd length, interleaved so that draws start at unaligned positions and
// straddle the 2^32 counter wrap: one stream whatever reads it.
TEST(ChaCha20Test, MixedDrawsReadOneStream) {
  std::array<uint8_t, 32> key{};
  for (int i = 0; i < 32; ++i) key[i] = static_cast<uint8_t>(11 * i + 5);
  const std::array<uint8_t, 12> nonce = {9, 8, 7, 6, 5, 4, 3, 2, 1, 0, 1, 2};
  constexpr uint32_t kFirst = 0xFFFFFFF0u;
  constexpr size_t kBytes = 64 * 1024;
  const std::vector<uint8_t> expected =
      ReferenceStream(key, nonce, kFirst, kBytes);

  ChaCha20 cipher(key, nonce, kFirst);
  std::vector<uint8_t> got;
  auto append_words = [&](std::span<const uint64_t> words) {
    for (uint64_t w : words)
      for (int b = 0; b < 8; ++b) got.push_back(static_cast<uint8_t>(w >> (8 * b)));
  };
  // > 0: that many words in one NextWords draw; < 0: that many bytes, by
  // XorStream when odd and by Keystream when even; 0: one NextU64.
  const int steps[] = {0, 1, -3, 7, 8, -61, 63, 0, 64, -97, 65, 520, -127,
                       -1000, 0, 3, 5, 9, -4096, 33};
  for (size_t i = 0; got.size() < kBytes; ++i) {
    const int step = steps[i % std::size(steps)];
    const size_t left = kBytes - got.size();
    if (step == 0 && left >= 8) {
      const uint64_t w = cipher.NextU64();
      append_words(std::span<const uint64_t>(&w, 1));
    } else if (step > 0 && left >= 8) {
      std::vector<uint64_t> words(std::min<size_t>(step, left / 8));
      cipher.NextWords(words);
      append_words(words);
    } else {
      std::vector<uint8_t> piece(std::min<size_t>(step < 0 ? -step : 1, left));
      if (piece.size() % 2 == 1) {
        cipher.XorStream(piece);
      } else {
        std::fill(piece.begin(), piece.end(), 0xEE);  // overwritten
        cipher.Keystream(piece);
      }
      got.insert(got.end(), piece.begin(), piece.end());
    }
  }
  EXPECT_EQ(ToHex(got), ToHex(expected));
}

// One PRF stream read as single words and as bulk draws of 1, 7, 8, 63,
// 64, 65 and 520 words gives the same words.
TEST(ChaChaRngTest, BulkDrawsEqualSingleWords) {
  const DeterministicPrf prf = DeterministicPrf::FromString("bulk draws");
  constexpr size_t kWords = 4000;
  std::vector<uint64_t> singles(kWords);
  ChaChaRng one = prf.Stream("s");
  for (uint64_t& w : singles) w = one.NextU64();

  ChaChaRng bulk = prf.Stream("s");
  std::vector<uint64_t> drawn;
  const size_t sizes[] = {1, 7, 8, 63, 64, 65, 520};
  for (size_t i = 0; drawn.size() < kWords; ++i) {
    std::vector<uint64_t> words(
        std::min(sizes[i % std::size(sizes)], kWords - drawn.size()));
    bulk.NextWords(words);
    drawn.insert(drawn.end(), words.begin(), words.end());
  }
  EXPECT_EQ(drawn, singles);
  // Both readers stand at the same word afterwards.
  EXPECT_EQ(bulk.NextU64(), one.NextU64());
}

TEST(ChaChaRngTest, DeterministicAndSeedSensitive) {
  ChaChaRng a = ChaChaRng::FromString("seed");
  ChaChaRng b = ChaChaRng::FromString("seed");
  ChaChaRng c = ChaChaRng::FromString("seed2");
  bool diverged = false;
  for (int i = 0; i < 100; ++i) {
    uint64_t va = a.NextU64();
    EXPECT_EQ(va, b.NextU64());
    if (va != c.NextU64()) diverged = true;
  }
  EXPECT_TRUE(diverged);
}

TEST(ChaChaRngTest, NextBelowInRangeAndCoversValues) {
  ChaChaRng rng = ChaChaRng::FromString("range");
  std::vector<int> seen(10, 0);
  for (int i = 0; i < 5000; ++i) {
    uint64_t v = rng.NextBelow(10);
    ASSERT_LT(v, 10u);
    ++seen[v];
  }
  for (int count : seen) EXPECT_GT(count, 0);
}

TEST(ChaChaRngTest, FillProducesKeystream) {
  ChaChaRng rng = ChaChaRng::FromString("fill");
  std::vector<uint8_t> buf(64, 0xFF);
  rng.Fill(buf);
  // Keystream is overwhelmingly unlikely to be all-0xFF or all-zero.
  bool all_same = true;
  for (uint8_t b : buf) all_same &= (b == buf[0]);
  EXPECT_FALSE(all_same);
}

// ----------------------------------------------------------------- PRF --

TEST(PrfTest, StreamsAreDeterministicPerLabel) {
  DeterministicPrf prf = DeterministicPrf::FromString("master");
  ChaChaRng s1 = prf.Stream("label/a");
  ChaChaRng s2 = prf.Stream("label/a");
  for (int i = 0; i < 32; ++i) EXPECT_EQ(s1.NextU64(), s2.NextU64());
}

TEST(PrfTest, LabelsAreIndependent) {
  DeterministicPrf prf = DeterministicPrf::FromString("master");
  EXPECT_NE(prf.ValueU64("a"), prf.ValueU64("b"));
  EXPECT_NE(prf.ValueU64("share/0"), prf.ValueU64("share/00"));
  EXPECT_NE(prf.ValueU64("share/0/1"), prf.ValueU64("share/01"));
}

TEST(PrfTest, SeedsAreIndependent) {
  DeterministicPrf a = DeterministicPrf::FromString("master-a");
  DeterministicPrf b = DeterministicPrf::FromString("master-b");
  EXPECT_NE(a.ValueU64("x"), b.ValueU64("x"));
}

// Pinned outputs: the same at every commit and on every kernel, since key
// files, stores and golden vectors all hang off these bytes. The labels
// cover an empty message, a share path, and one long enough (66 bytes) to
// take two inner SHA-256 blocks.
TEST(PrfTest, StreamKnownAnswers) {
  std::array<uint8_t, 32> counting{};
  for (int i = 0; i < 32; ++i) counting[i] = static_cast<uint8_t>(i);
  const DeterministicPrf seeds[] = {DeterministicPrf::FromString("pin-seed"),
                                    DeterministicPrf(counting)};
  const std::string labels[] = {"", "share/d3.1/0/2",
                                "share/" + std::string(60, 'x')};
  const uint64_t expected[2][3][4] = {
      {{0xb82aec36a87e2979ull, 0xc6b03876741daa7aull, 0xe49ad90c6ac21fe4ull,
        0x517fe90c8a60dcb4ull},
       {0x641d3cbd20df39a0ull, 0xede2779a0f12a0c9ull, 0xb022e34bfa6a410dull,
        0x1156183265b68d4full},
       {0x5f51ca53a618dbb0ull, 0xebba6e3036ee5665ull, 0xb3b9f1ac9debaaf6ull,
        0xc37e44a696af8a6full}},
      {{0xda26c29ec7e92765ull, 0x180774273c32137eull, 0x3a2e0cbba16a2f6eull,
        0x9d5a1138a4b71083ull},
       {0x62181189f7d94fa7ull, 0xcaea0ed349e0c274ull, 0x0a0eec4a07ee724dull,
        0x2c84ad6514c46e51ull},
       {0x26a1d1cfddcfd289ull, 0x9f36666340b46cc9ull, 0x3302daa40d845023ull,
        0xe3a209a309bfc4f4ull}}};
  for (int s = 0; s < 2; ++s) {
    for (int l = 0; l < 3; ++l) {
      ChaChaRng stream = seeds[s].Stream(labels[l]);
      for (int w = 0; w < 4; ++w) {
        EXPECT_EQ(stream.NextU64(), expected[s][l][w])
            << "seed " << s << " label " << l << " word " << w;
      }
    }
  }
}

TEST(PrfTest, DerivedShareKnownAnswer) {
  const FpCyclotomicRing ring = FpCyclotomicRing::Create(67).value();
  const FpPoly share = DeriveClientShare(
      ring, DeterministicPrf::FromString("pin-seed"), "0/1/2", {});
  const std::vector<uint64_t> expected = {
      14, 66, 62, 39, 37, 65, 28, 13, 54, 39, 8,  22, 30, 21, 3,  38, 62,
      44, 65, 62, 58, 38, 35, 65, 3,  0,  22, 55, 51, 34, 12, 58, 31, 29,
      19, 18, 23, 31, 7,  43, 18, 11, 48, 45, 30, 16, 25, 63, 65, 47, 22,
      58, 63, 20, 47, 1,  59, 53, 49, 0,  2,  29, 24, 59, 50, 31};
  EXPECT_EQ(share.coeffs(), expected);
}

// The elements PrimeField::UniformFill draws from PRF streams, and the
// stream word after each fill (where the fill left the stream), hashed:
// `labels` streams of `words` elements each. A fill through a plain
// callable (one word per call) must agree with the bulk draw.
std::string UniformFillDigest(uint64_t p, int labels, size_t words) {
  const PrimeField field = PrimeField::Create(p).value();
  const DeterministicPrf prf = DeterministicPrf::FromString("uniform-fill-pin");
  Sha256 digest;
  std::vector<uint64_t> out(words), one_by_one(words);
  auto absorb = [&](uint64_t w) {
    uint8_t bytes[8];
    for (int b = 0; b < 8; ++b) bytes[b] = static_cast<uint8_t>(w >> (8 * b));
    digest.Update(std::span<const uint8_t>(bytes, 8));
  };
  for (int l = 0; l < labels; ++l) {
    const std::string label =
        "fill/" + std::to_string(p) + "/" + std::to_string(l);
    ChaChaRng rng = prf.Stream(label);
    field.UniformFill(rng, out);
    for (uint64_t w : out) absorb(w);
    const uint64_t next = rng.NextU64();
    absorb(next);
    ChaChaRng words_rng = prf.Stream(label);
    field.UniformFill([&] { return words_rng.NextU64(); }, one_by_one);
    EXPECT_EQ(one_by_one, out) << label;
    EXPECT_EQ(words_rng.NextU64(), next) << label;
  }
  return HexDigest(digest.Finish());
}

// Pinned like the streams above. The small moduli fill p-1 elements (a
// client share); the wide ones 700, where rejections are frequent enough
// to show: at 6148914691236517223, the smallest prime above 2^64/3, a
// third of the words are rejected.
TEST(PrfTest, UniformFillKnownDigests) {
  struct Pin {
    uint64_t p;
    int labels;
    size_t words;
    const char* digest;
  };
  const Pin pins[] = {
      {3, 400, 2,
       "845eeb83fbc64a4dc064ca258b4b4658d26004138c8b9856c5e35b991b88ec87"},
      {5, 400, 4,
       "5982530f695311c955b0a00077e86296b05f7b9c02d080edebe826eff2e12293"},
      {11, 400, 10,
       "2bd9f23b2b45d44ec3a85d692b8f844e1b96e00cbe0aa13e6db3f4b2a794afeb"},
      {61, 400, 60,
       "34ce864431563860e1125cf6d1bb4c24378f72ee87601b34407d5c051fadb5be"},
      {67, 400, 66,
       "d317f4b6928daeff92653af2000c24785e15805fd6f0e24ba0359df719f87112"},
      {101, 400, 100,
       "547d3988dea1dc1d51d2607c1e30f9ab7d8a9a4bf8c5e5b80b08eb32db838022"},
      {257, 400, 256,
       "e7eef5ba7fdd619041a3085ebfe3e6384a15473fc505c6f51d60fe3b56d8aa94"},
      {521, 400, 520,
       "6b6fb9bc0803ee219beb1a3fda7fedf0dc6798e108836b2f66a91b6e069dc9cd"},
      {1009, 400, 1008,
       "e66685cc287552c61ffaf46ee259188394935a137322a6dba8af6f68ea4b4c37"},
      {65537, 40, 700,
       "8d879bd70f128d6c27b0cd28b90db5e9097191559ecc0928f63c88af9c08102f"},
      {2147483647, 40, 700,
       "b4ac9f3875af7c9b8c52e75ad1d5e55264575fa78c3b811fa265620cc8567f90"},
      {4294967311ull, 40, 700,
       "bb36169fe0d46c3c91dfd45b150fc6971c4b642d0d615c2f2286a027b35e7475"},
      {2305843009213693951ull, 40, 700,
       "d636760c7005c20b83c3c778eefae6e0c41acdf181222a187a7e32a73743f054"},
      {6148914691236517223ull, 40, 700,
       "9355a0910febd332cb4d047c108fc34850ad4a80536c3207cda20ced935d9e95"},
  };
  for (const Pin& pin : pins) {
    EXPECT_EQ(UniformFillDigest(pin.p, pin.labels, pin.words), pin.digest)
        << "p = " << pin.p;
  }
}

TEST(PrfTest, RandomSeedProducesDistinctSeeds) {
  auto s1 = RandomSeed();
  auto s2 = RandomSeed();
  EXPECT_NE(ToHex(std::span<const uint8_t>(s1.data(), s1.size())),
            ToHex(std::span<const uint8_t>(s2.data(), s2.size())));
}

}  // namespace
}  // namespace polysse
