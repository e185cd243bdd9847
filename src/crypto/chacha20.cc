#include "crypto/chacha20.h"

#include <algorithm>
#include <bit>
#include <cstring>

#include "crypto/sha256.h"
#include "util/check.h"
#include "util/cpu_features.h"

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace polysse {

namespace {

inline uint32_t RotL(uint32_t x, int n) { return (x << n) | (x >> (32 - n)); }

inline void QuarterRound(uint32_t& a, uint32_t& b, uint32_t& c, uint32_t& d) {
  a += b; d ^= a; d = RotL(d, 16);
  c += d; b ^= c; b = RotL(b, 12);
  a += b; d ^= a; d = RotL(d, 8);
  c += d; b ^= c; b = RotL(b, 7);
}

inline uint32_t LoadLE32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}

// The RFC 8439 block function: one 64-byte keystream block from `in`.
void Block(const uint32_t in[16], uint8_t out[ChaCha20::kBlockSize]) {
  uint32_t x[16];
  std::memcpy(x, in, sizeof(x));
  for (int round = 0; round < 10; ++round) {
    QuarterRound(x[0], x[4], x[8], x[12]);
    QuarterRound(x[1], x[5], x[9], x[13]);
    QuarterRound(x[2], x[6], x[10], x[14]);
    QuarterRound(x[3], x[7], x[11], x[15]);
    QuarterRound(x[0], x[5], x[10], x[15]);
    QuarterRound(x[1], x[6], x[11], x[12]);
    QuarterRound(x[2], x[7], x[8], x[13]);
    QuarterRound(x[3], x[4], x[9], x[14]);
  }
  for (int i = 0; i < 16; ++i) {
    uint32_t v = x[i] + in[i];
    out[4 * i] = static_cast<uint8_t>(v);
    out[4 * i + 1] = static_cast<uint8_t>(v >> 8);
    out[4 * i + 2] = static_cast<uint8_t>(v >> 16);
    out[4 * i + 3] = static_cast<uint8_t>(v >> 24);
  }
}

#if defined(__x86_64__)

// Rotates every 32-bit lane left by N. By 16 and by 8 are whole-byte
// moves, one shuffle each.
template <int N>
__attribute__((target("avx2"))) inline __m256i RotLanes(__m256i v) {
  if constexpr (N == 16) {
    return _mm256_shuffle_epi8(
        v, _mm256_setr_epi8(2, 3, 0, 1, 6, 7, 4, 5, 10, 11, 8, 9, 14, 15, 12,
                            13, 2, 3, 0, 1, 6, 7, 4, 5, 10, 11, 8, 9, 14, 15,
                            12, 13));
  } else if constexpr (N == 8) {
    return _mm256_shuffle_epi8(
        v, _mm256_setr_epi8(3, 0, 1, 2, 7, 4, 5, 6, 11, 8, 9, 10, 15, 12, 13,
                            14, 3, 0, 1, 2, 7, 4, 5, 6, 11, 8, 9, 10, 15, 12,
                            13, 14));
  } else {
    return _mm256_or_si256(_mm256_slli_epi32(v, N),
                           _mm256_srli_epi32(v, 32 - N));
  }
}

__attribute__((target("avx2"))) inline void QuarterRound8(__m256i& a,
                                                          __m256i& b,
                                                          __m256i& c,
                                                          __m256i& d) {
  a = _mm256_add_epi32(a, b); d = RotLanes<16>(_mm256_xor_si256(d, a));
  c = _mm256_add_epi32(c, d); b = RotLanes<12>(_mm256_xor_si256(b, c));
  a = _mm256_add_epi32(a, b); d = RotLanes<8>(_mm256_xor_si256(d, a));
  c = _mm256_add_epi32(c, d); b = RotLanes<7>(_mm256_xor_si256(b, c));
}

// Stores the 8x8 word matrix rows[word][block] block-major: block j's words
// land at out + j * 64, which is the little-endian keystream byte order.
__attribute__((target("avx2"))) void StoreTransposed(const __m256i rows[8],
                                                     uint8_t* out) {
  const __m256i t0 = _mm256_unpacklo_epi32(rows[0], rows[1]);
  const __m256i t1 = _mm256_unpackhi_epi32(rows[0], rows[1]);
  const __m256i t2 = _mm256_unpacklo_epi32(rows[2], rows[3]);
  const __m256i t3 = _mm256_unpackhi_epi32(rows[2], rows[3]);
  const __m256i t4 = _mm256_unpacklo_epi32(rows[4], rows[5]);
  const __m256i t5 = _mm256_unpackhi_epi32(rows[4], rows[5]);
  const __m256i t6 = _mm256_unpacklo_epi32(rows[6], rows[7]);
  const __m256i t7 = _mm256_unpackhi_epi32(rows[6], rows[7]);
  // u[k] holds words 0-3 of block k (low half) and of block k + 4 (high
  // half); v[k] the same for words 4-7.
  const __m256i u[4] = {
      _mm256_unpacklo_epi64(t0, t2), _mm256_unpackhi_epi64(t0, t2),
      _mm256_unpacklo_epi64(t1, t3), _mm256_unpackhi_epi64(t1, t3)};
  const __m256i v[4] = {
      _mm256_unpacklo_epi64(t4, t6), _mm256_unpackhi_epi64(t4, t6),
      _mm256_unpacklo_epi64(t5, t7), _mm256_unpackhi_epi64(t5, t7)};
  for (int k = 0; k < 4; ++k) {
    _mm256_storeu_si256(
        reinterpret_cast<__m256i*>(out + k * ChaCha20::kBlockSize),
        _mm256_permute2x128_si256(u[k], v[k], 0x20));
    _mm256_storeu_si256(
        reinterpret_cast<__m256i*>(out + (k + 4) * ChaCha20::kBlockSize),
        _mm256_permute2x128_si256(u[k], v[k], 0x31));
  }
}

// Eight blocks with counters in[12] + 0..7 (mod 2^32), one block per
// 32-bit lane, written block after block into the 512 bytes at `out`.
__attribute__((target("avx2"))) void WideBlocksAvx2(const uint32_t in[16],
                                                    uint8_t* out) {
  __m256i init[16];
  for (int i = 0; i < 16; ++i)
    init[i] = _mm256_set1_epi32(static_cast<int>(in[i]));
  init[12] = _mm256_add_epi32(init[12],
                              _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
  __m256i x[16];
  for (int i = 0; i < 16; ++i) x[i] = init[i];
  for (int round = 0; round < 10; ++round) {
    QuarterRound8(x[0], x[4], x[8], x[12]);
    QuarterRound8(x[1], x[5], x[9], x[13]);
    QuarterRound8(x[2], x[6], x[10], x[14]);
    QuarterRound8(x[3], x[7], x[11], x[15]);
    QuarterRound8(x[0], x[5], x[10], x[15]);
    QuarterRound8(x[1], x[6], x[11], x[12]);
    QuarterRound8(x[2], x[7], x[8], x[13]);
    QuarterRound8(x[3], x[4], x[9], x[14]);
  }
  for (int i = 0; i < 16; ++i) x[i] = _mm256_add_epi32(x[i], init[i]);
  StoreTransposed(x, out);                             // words 0-7
  StoreTransposed(x + 8, out + 8 * sizeof(uint32_t));  // words 8-15
}

// Four quarter rounds at once, one per 32-bit lane of rows a..d.
__attribute__((target("avx2"))) inline void QuarterRoundRows(__m128i& a,
                                                             __m128i& b,
                                                             __m128i& c,
                                                             __m128i& d) {
  const __m128i rot16 =
      _mm_setr_epi8(2, 3, 0, 1, 6, 7, 4, 5, 10, 11, 8, 9, 14, 15, 12, 13);
  const __m128i rot8 =
      _mm_setr_epi8(3, 0, 1, 2, 7, 4, 5, 6, 11, 8, 9, 10, 15, 12, 13, 14);
  a = _mm_add_epi32(a, b); d = _mm_shuffle_epi8(_mm_xor_si128(d, a), rot16);
  c = _mm_add_epi32(c, d); b = _mm_xor_si128(b, c);
  b = _mm_or_si128(_mm_slli_epi32(b, 12), _mm_srli_epi32(b, 20));
  a = _mm_add_epi32(a, b); d = _mm_shuffle_epi8(_mm_xor_si128(d, a), rot8);
  c = _mm_add_epi32(c, d); b = _mm_xor_si128(b, c);
  b = _mm_or_si128(_mm_slli_epi32(b, 7), _mm_srli_epi32(b, 25));
}

// One block with the 4x4 state held row by row, one row per XMM register:
// a column round works on the four columns at once, and rotating rows 1-3
// by one, two and three lanes lines the diagonals up as columns for the
// diagonal round. The stored rows are the block's little-endian bytes.
__attribute__((target("avx2"))) void RowBlockAvx2(const uint32_t in[16],
                                                  uint8_t* out) {
  const __m128i* rows = reinterpret_cast<const __m128i*>(in);
  const __m128i in0 = _mm_loadu_si128(rows), in1 = _mm_loadu_si128(rows + 1),
                in2 = _mm_loadu_si128(rows + 2),
                in3 = _mm_loadu_si128(rows + 3);
  __m128i a = in0, b = in1, c = in2, d = in3;
  for (int round = 0; round < 10; ++round) {
    QuarterRoundRows(a, b, c, d);  // columns
    b = _mm_shuffle_epi32(b, 0x39);
    c = _mm_shuffle_epi32(c, 0x4E);
    d = _mm_shuffle_epi32(d, 0x93);
    QuarterRoundRows(a, b, c, d);  // diagonals
    b = _mm_shuffle_epi32(b, 0x93);
    c = _mm_shuffle_epi32(c, 0x4E);
    d = _mm_shuffle_epi32(d, 0x39);
  }
  __m128i* dst = reinterpret_cast<__m128i*>(out);
  _mm_storeu_si128(dst, _mm_add_epi32(a, in0));
  _mm_storeu_si128(dst + 1, _mm_add_epi32(b, in1));
  _mm_storeu_si128(dst + 2, _mm_add_epi32(c, in2));
  _mm_storeu_si128(dst + 3, _mm_add_epi32(d, in3));
}

#endif  // __x86_64__

}  // namespace

ChaCha20::ChaCha20(std::span<const uint8_t, kKeySize> key,
                   std::span<const uint8_t, kNonceSize> nonce,
                   uint32_t counter) {
  // "expand 32-byte k"
  state_[0] = 0x61707865;
  state_[1] = 0x3320646e;
  state_[2] = 0x79622d32;
  state_[3] = 0x6b206574;
  for (int i = 0; i < 8; ++i) state_[4 + i] = LoadLE32(key.data() + 4 * i);
  state_[12] = counter;
  for (int i = 0; i < 3; ++i) state_[13 + i] = LoadLE32(nonce.data() + 4 * i);
}

std::array<uint8_t, ChaCha20::kBlockSize> ChaCha20::ReferenceBlock(
    std::span<const uint8_t, kKeySize> key,
    std::span<const uint8_t, kNonceSize> nonce, uint32_t counter) {
  const ChaCha20 cipher(key, nonce, counter);
  std::array<uint8_t, kBlockSize> out;
  Block(cipher.state_, out.data());
  return out;
}

void ChaCha20::Refill() {
#if defined(__x86_64__)
  if (SimdEnabled(SimdIsa::kAvx2)) {
    static_assert(kWideBlocks == 8, "one block per 32-bit lane of a YMM");
    WideBlocksAvx2(state_, buffer_);
    state_[12] += kWideBlocks;  // 32-bit block counter per RFC 8439.
    buffer_len_ = kWideBlocks * kBlockSize;
    pos_ = 0;
    return;
  }
#endif
  Block(state_, buffer_);
  ++state_[12];
  buffer_len_ = kBlockSize;
  pos_ = 0;
}

void ChaCha20::NextBlock(uint8_t* out) {
#if defined(__x86_64__)
  if (SimdEnabled(SimdIsa::kAvx2)) {
    RowBlockAvx2(state_, out);
    ++state_[12];
    return;
  }
#endif
  Block(state_, out);
  ++state_[12];
}

void ChaCha20::Keystream(std::span<uint8_t> out) {
  if (out.empty()) return;
  uint8_t* dst = out.data();
  size_t left = out.size();
  // What the buffer still holds comes first.
  const size_t buffered = std::min(buffer_len_ - pos_, left);
  std::memcpy(dst, buffer_ + pos_, buffered);
  pos_ += buffered;
  dst += buffered;
  left -= buffered;
  if (left == 0) return;
#if defined(__x86_64__)
  if (SimdEnabled(SimdIsa::kAvx2)) {
    for (; left >= kWideBlocks * kBlockSize;
         dst += kWideBlocks * kBlockSize, left -= kWideBlocks * kBlockSize) {
      WideBlocksAvx2(state_, dst);
      state_[12] += kWideBlocks;
    }
    if (left > (kWideTailBlocks - 1) * kBlockSize) {
      Refill();
      std::memcpy(dst, buffer_, left);
      pos_ = left;
      return;
    }
  }
#endif
  for (; left >= kBlockSize; dst += kBlockSize, left -= kBlockSize)
    NextBlock(dst);
  if (left == 0) return;
  // A partial last block: the rest of it stays buffered for the next read.
  NextBlock(buffer_);
  buffer_len_ = kBlockSize;
  std::memcpy(dst, buffer_, left);
  pos_ = left;
}

void ChaCha20::NextWords(std::span<uint64_t> out) {
  Keystream(std::span<uint8_t>(reinterpret_cast<uint8_t*>(out.data()),
                               out.size() * sizeof(uint64_t)));
  if constexpr (std::endian::native != std::endian::little) {
    for (uint64_t& w : out)
      w = LoadLE64(reinterpret_cast<const uint8_t*>(&w));
  }
}

void ChaCha20::XorStream(std::span<uint8_t> data) {
  size_t done = 0;
  while (done < data.size()) {
    if (pos_ == buffer_len_) Refill();
    const size_t take = std::min(buffer_len_ - pos_, data.size() - done);
    // Local pointers: a byte store through `data` could alias pos_, which
    // would otherwise be reloaded every iteration and block vectorizing.
    uint8_t* out = data.data() + done;
    const uint8_t* keystream = buffer_ + pos_;
    for (size_t i = 0; i < take; ++i) out[i] ^= keystream[i];
    pos_ += take;
    done += take;
  }
}

std::vector<uint8_t> ChaCha20::Process(std::span<const uint8_t> data) {
  std::vector<uint8_t> out(data.begin(), data.end());
  XorStream(out);
  return out;
}

ChaChaRng::ChaChaRng(std::span<const uint8_t, ChaCha20::kKeySize> key)
    : cipher_(key, std::array<uint8_t, ChaCha20::kNonceSize>{}, 0) {}

ChaChaRng ChaChaRng::FromString(std::string_view seed) {
  auto digest = Sha256::Hash(seed);
  return ChaChaRng(std::span<const uint8_t, ChaCha20::kKeySize>(digest));
}

uint64_t ChaChaRng::NextBelow(uint64_t bound) {
  POLYSSE_CHECK(bound > 0);
  const uint64_t zone = UINT64_MAX - UINT64_MAX % bound;
  uint64_t v;
  do {
    v = NextU64();
  } while (v >= zone);
  return v % bound;
}

}  // namespace polysse
