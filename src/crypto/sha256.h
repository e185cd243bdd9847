// SHA-256 (FIPS 180-4), written from scratch for the offline build, and
// HMAC-SHA-256 on top of it. Used by the PRF, the keyed tag map, and the
// content-index extensions.
//
// Blocks are compressed with the SHA extensions (SHA-NI) when
// util/cpu_features.h reports them, and by the portable ProcessBlock
// otherwise (Compress picks); both give the same digest, and ProcessBlock
// stays the reference the SHA-NI kernel is tested against. HmacSha256Key
// keeps the states after its ipad and opad blocks. A MAC of a message of at
// most 55 bytes (every share label in practice) is then two compressions
// and nothing else: the message and its padding form one inner block, the
// inner digest and its padding one outer block. Longer messages resume the
// stored states through Update/Finish.
#ifndef POLYSSE_CRYPTO_SHA256_H_
#define POLYSSE_CRYPTO_SHA256_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>

namespace polysse {

/// Incremental SHA-256. A copy carries the whole hashing state, so a
/// prefix can be absorbed once and resumed many times.
class Sha256 {
 public:
  static constexpr size_t kDigestSize = 32;
  static constexpr size_t kBlockSize = 64;

  Sha256() { Reset(); }

  void Reset();
  void Update(std::span<const uint8_t> data);
  void Update(std::string_view s) {
    Update(std::span<const uint8_t>(
        reinterpret_cast<const uint8_t*>(s.data()), s.size()));
  }
  /// Finalizes and returns the digest; the object must be Reset() for reuse.
  std::array<uint8_t, kDigestSize> Finish();

  /// One-shot convenience.
  static std::array<uint8_t, kDigestSize> Hash(std::span<const uint8_t> data);
  static std::array<uint8_t, kDigestSize> Hash(std::string_view s);

  /// Folds `count` consecutive 64-byte blocks into `state` with the fastest
  /// kernel the CPU allows (SHA-NI or ProcessBlock).
  static void Compress(uint32_t state[8], const uint8_t* blocks,
                       size_t count);
  /// The portable compression function: folds one 64-byte block into
  /// `state`. The fallback kernel and the reference for the SHA-NI one.
  static void ProcessBlock(uint32_t state[8], const uint8_t* block);
#if defined(__x86_64__)
  /// The same compression over `count` consecutive blocks on the SHA
  /// extensions. Only callable when SimdEnabled(SimdIsa::kShaNi).
  static void ProcessBlocksShaNi(uint32_t state[8], const uint8_t* blocks,
                                 size_t count);
#endif

 private:
  friend class HmacSha256Key;  // reads the ipad/opad midstates

  uint32_t state_[8];
  uint64_t bit_count_;
  uint8_t buffer_[kBlockSize];
  size_t buffer_len_;
};

/// HMAC-SHA-256 (RFC 2104) under one fixed key. The constructor absorbs the
/// ipad and opad blocks; Mac resumes from copies of those two states.
class HmacSha256Key {
 public:
  /// Longest message whose inner hash is one padded block.
  static constexpr size_t kOneBlockMessage = Sha256::kBlockSize - 9;

  explicit HmacSha256Key(std::span<const uint8_t> key);

  /// Two compressions for up to kOneBlockMessage bytes, Update/Finish on
  /// the stored states beyond that.
  std::array<uint8_t, Sha256::kDigestSize> Mac(
      std::span<const uint8_t> message) const;

 private:
  Sha256 inner_;  // after the ipad block
  Sha256 outer_;  // after the opad block
};

/// One-shot HMAC-SHA-256.
std::array<uint8_t, Sha256::kDigestSize> HmacSha256(
    std::span<const uint8_t> key, std::span<const uint8_t> message);
std::array<uint8_t, Sha256::kDigestSize> HmacSha256(std::string_view key,
                                                    std::string_view message);

}  // namespace polysse

#endif  // POLYSSE_CRYPTO_SHA256_H_
