#include "crypto/sha256.h"

#include <algorithm>
#include <cstring>

#include "util/cpu_features.h"

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace polysse {

namespace {

constexpr uint32_t kRoundConstants[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

inline uint32_t RotR(uint32_t x, int n) { return (x >> n) | (x << (32 - n)); }

// The final block of a message whose last `tail` bytes (at most 55) follow
// `prefix_blocks` whole blocks: the tail, 0x80, zeros and the message's
// bit length, big-endian.
void PadOneBlock(std::span<const uint8_t> tail, uint64_t prefix_blocks,
                 uint8_t block[Sha256::kBlockSize]) {
  std::copy(tail.begin(), tail.end(), block);
  block[tail.size()] = 0x80;
  std::memset(block + tail.size() + 1, 0, 55 - tail.size());
  const uint64_t bits = (prefix_blocks * Sha256::kBlockSize + tail.size()) * 8;
  for (int i = 0; i < 8; ++i)
    block[56 + i] = static_cast<uint8_t>(bits >> (56 - 8 * i));
}

void StoreDigest(const uint32_t state[8], uint8_t* out) {
  for (int i = 0; i < 8; ++i) {
    out[4 * i] = static_cast<uint8_t>(state[i] >> 24);
    out[4 * i + 1] = static_cast<uint8_t>(state[i] >> 16);
    out[4 * i + 2] = static_cast<uint8_t>(state[i] >> 8);
    out[4 * i + 3] = static_cast<uint8_t>(state[i]);
  }
}

}  // namespace

void Sha256::Compress(uint32_t state[8], const uint8_t* blocks,
                      size_t count) {
#if defined(__x86_64__)
  if (SimdEnabled(SimdIsa::kShaNi)) {
    ProcessBlocksShaNi(state, blocks, count);
    return;
  }
#endif
  for (size_t i = 0; i < count; ++i)
    ProcessBlock(state, blocks + i * kBlockSize);
}

void Sha256::Reset() {
  state_[0] = 0x6a09e667;
  state_[1] = 0xbb67ae85;
  state_[2] = 0x3c6ef372;
  state_[3] = 0xa54ff53a;
  state_[4] = 0x510e527f;
  state_[5] = 0x9b05688c;
  state_[6] = 0x1f83d9ab;
  state_[7] = 0x5be0cd19;
  bit_count_ = 0;
  buffer_len_ = 0;
}

void Sha256::ProcessBlock(uint32_t state[8], const uint8_t* block) {
  uint32_t w[64];
  for (int i = 0; i < 16; ++i) {
    w[i] = static_cast<uint32_t>(block[4 * i]) << 24 |
           static_cast<uint32_t>(block[4 * i + 1]) << 16 |
           static_cast<uint32_t>(block[4 * i + 2]) << 8 |
           static_cast<uint32_t>(block[4 * i + 3]);
  }
  for (int i = 16; i < 64; ++i) {
    uint32_t s0 = RotR(w[i - 15], 7) ^ RotR(w[i - 15], 18) ^ (w[i - 15] >> 3);
    uint32_t s1 = RotR(w[i - 2], 17) ^ RotR(w[i - 2], 19) ^ (w[i - 2] >> 10);
    w[i] = w[i - 16] + s0 + w[i - 7] + s1;
  }

  uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
  uint32_t e = state[4], f = state[5], g = state[6], h = state[7];
  for (int i = 0; i < 64; ++i) {
    uint32_t s1 = RotR(e, 6) ^ RotR(e, 11) ^ RotR(e, 25);
    uint32_t ch = (e & f) ^ (~e & g);
    uint32_t temp1 = h + s1 + ch + kRoundConstants[i] + w[i];
    uint32_t s0 = RotR(a, 2) ^ RotR(a, 13) ^ RotR(a, 22);
    uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
    uint32_t temp2 = s0 + maj;
    h = g;
    g = f;
    f = e;
    e = d + temp1;
    d = c;
    c = b;
    b = a;
    a = temp1 + temp2;
  }
  state[0] += a;
  state[1] += b;
  state[2] += c;
  state[3] += d;
  state[4] += e;
  state[5] += f;
  state[6] += g;
  state[7] += h;
}

#if defined(__x86_64__)

// The state lives in two registers as the SHA instructions want it:
// abef = (a, b, e, f) and cdgh = (c, d, g, h), high lane first. Each
// sha256rnds2 runs two rounds and leaves the old abef as the new cdgh, so
// the two calls of a four-round group end with both registers back in
// place. w[g % 4] holds schedule words 4g..4g+3; once group g has used its
// words, sha256msg1/msg2 overwrite them with group g + 4.
__attribute__((target("sha,sse4.1"))) void Sha256::ProcessBlocksShaNi(
    uint32_t state[8], const uint8_t* blocks, size_t count) {
  const __m128i kByteSwap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL);
  const __m128i dcba =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(state));
  const __m128i hgfe =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(state + 4));
  const __m128i badc = _mm_shuffle_epi32(dcba, 0xB1);
  const __m128i efgh = _mm_shuffle_epi32(hgfe, 0x1B);
  __m128i abef = _mm_alignr_epi8(badc, efgh, 8);
  __m128i cdgh = _mm_blend_epi16(efgh, badc, 0xF0);

  for (size_t n = 0; n < count; ++n, blocks += kBlockSize) {
    const __m128i abef_in = abef;
    const __m128i cdgh_in = cdgh;
    __m128i w[4];
    for (int i = 0; i < 4; ++i) {
      w[i] = _mm_shuffle_epi8(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(blocks + 16 * i)),
          kByteSwap);
    }
    for (int g = 0; g < 16; ++g) {
      const __m128i wk = _mm_add_epi32(
          w[g % 4], _mm_loadu_si128(reinterpret_cast<const __m128i*>(
                        kRoundConstants + 4 * g)));
      cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
      abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0E));
      if (g < 12) {
        // W[t..t+3] from W[t-16..t-9] (msg1), W[t-7..t-4] and W[t-4..t-1].
        const __m128i prev = w[(g + 3) % 4];
        const __m128i mid = _mm_alignr_epi8(prev, w[(g + 2) % 4], 4);
        w[g % 4] = _mm_sha256msg2_epu32(
            _mm_add_epi32(_mm_sha256msg1_epu32(w[g % 4], w[(g + 1) % 4]), mid),
            prev);
      }
    }
    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
  }

  const __m128i feba = _mm_shuffle_epi32(abef, 0x1B);
  const __m128i dchg = _mm_shuffle_epi32(cdgh, 0xB1);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state),
                   _mm_blend_epi16(feba, dchg, 0xF0));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4),
                   _mm_alignr_epi8(dchg, feba, 8));
}

#endif  // __x86_64__

void Sha256::Update(std::span<const uint8_t> data) {
  bit_count_ += static_cast<uint64_t>(data.size()) * 8;
  size_t offset = 0;
  if (buffer_len_ > 0) {
    size_t take = std::min(kBlockSize - buffer_len_, data.size());
    std::memcpy(buffer_ + buffer_len_, data.data(), take);
    buffer_len_ += take;
    offset += take;
    if (buffer_len_ == kBlockSize) {
      Compress(state_, buffer_, 1);
      buffer_len_ = 0;
    }
  }
  if (const size_t full = (data.size() - offset) / kBlockSize; full > 0) {
    Compress(state_, data.data() + offset, full);
    offset += full * kBlockSize;
  }
  if (offset < data.size()) {
    std::memcpy(buffer_, data.data() + offset, data.size() - offset);
    buffer_len_ = data.size() - offset;
  }
}

std::array<uint8_t, Sha256::kDigestSize> Sha256::Finish() {
  // Padding: 0x80, zeros, 64-bit big-endian length.
  uint64_t bits = bit_count_;
  uint8_t pad[kBlockSize * 2] = {0x80};
  size_t pad_len = (buffer_len_ < 56) ? 56 - buffer_len_ : 120 - buffer_len_;
  uint8_t len_bytes[8];
  for (int i = 0; i < 8; ++i)
    len_bytes[i] = static_cast<uint8_t>(bits >> (56 - 8 * i));
  Update(std::span<const uint8_t>(pad, pad_len));
  Update(std::span<const uint8_t>(len_bytes, 8));

  std::array<uint8_t, kDigestSize> out;
  StoreDigest(state_, out.data());
  return out;
}

std::array<uint8_t, Sha256::kDigestSize> Sha256::Hash(
    std::span<const uint8_t> data) {
  Sha256 h;
  h.Update(data);
  return h.Finish();
}

std::array<uint8_t, Sha256::kDigestSize> Sha256::Hash(std::string_view s) {
  Sha256 h;
  h.Update(s);
  return h.Finish();
}

HmacSha256Key::HmacSha256Key(std::span<const uint8_t> key) {
  uint8_t key_block[Sha256::kBlockSize] = {0};
  if (key.size() > Sha256::kBlockSize) {
    auto digest = Sha256::Hash(key);
    std::memcpy(key_block, digest.data(), digest.size());
  } else {
    std::copy(key.begin(), key.end(), key_block);
  }

  uint8_t ipad[Sha256::kBlockSize], opad[Sha256::kBlockSize];
  for (size_t i = 0; i < Sha256::kBlockSize; ++i) {
    ipad[i] = key_block[i] ^ 0x36;
    opad[i] = key_block[i] ^ 0x5c;
  }
  inner_.Update(std::span<const uint8_t>(ipad, sizeof(ipad)));
  outer_.Update(std::span<const uint8_t>(opad, sizeof(opad)));
}

std::array<uint8_t, Sha256::kDigestSize> HmacSha256Key::Mac(
    std::span<const uint8_t> message) const {
  if (message.size() <= kOneBlockMessage) {
    // Both states have absorbed exactly one (pad) block.
    uint8_t block[Sha256::kBlockSize];
    uint32_t state[8];
    PadOneBlock(message, 1, block);
    std::memcpy(state, inner_.state_, sizeof state);
    Sha256::Compress(state, block, 1);
    uint8_t inner_digest[Sha256::kDigestSize];
    StoreDigest(state, inner_digest);
    PadOneBlock(inner_digest, 1, block);
    std::memcpy(state, outer_.state_, sizeof state);
    Sha256::Compress(state, block, 1);
    std::array<uint8_t, Sha256::kDigestSize> out;
    StoreDigest(state, out.data());
    return out;
  }
  Sha256 inner = inner_;
  inner.Update(message);
  const auto inner_digest = inner.Finish();
  Sha256 outer = outer_;
  outer.Update(inner_digest);
  return outer.Finish();
}

std::array<uint8_t, Sha256::kDigestSize> HmacSha256(
    std::span<const uint8_t> key, std::span<const uint8_t> message) {
  return HmacSha256Key(key).Mac(message);
}

std::array<uint8_t, Sha256::kDigestSize> HmacSha256(std::string_view key,
                                                    std::string_view message) {
  return HmacSha256(
      std::span<const uint8_t>(reinterpret_cast<const uint8_t*>(key.data()),
                               key.size()),
      std::span<const uint8_t>(reinterpret_cast<const uint8_t*>(message.data()),
                               message.size()));
}

}  // namespace polysse
