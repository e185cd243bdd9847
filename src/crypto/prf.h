// Keyed pseudorandom function family: master seed + label -> independent
// deterministic streams. This is what lets the client of §4.2 "store only
// the random seed" — its share polynomial for a node is re-derived from
// PRF(seed, node-path) whenever a query touches that node.
//
// Stream(label) keys ChaCha20 with HMAC-SHA-256(seed, label). The HMAC key
// schedule is done once, at construction, so one stream for a label under
// 56 bytes costs two SHA-256 compressions (one padded block each, no
// Update/Finish) plus the ChaCha20 blocks it reads: a bulk draw
// (ChaChaRng::NextWords, which PrimeField::UniformFill uses) computes only
// the blocks it covers, a single word refills eight blocks at a time. See
// sha256.h and chacha20.h for the kernels beneath both.
#ifndef POLYSSE_CRYPTO_PRF_H_
#define POLYSSE_CRYPTO_PRF_H_

#include <array>
#include <cstdint>
#include <string>
#include <string_view>

#include "crypto/chacha20.h"
#include "crypto/sha256.h"

namespace polysse {

/// Deterministic PRF keyed by a 32-byte master seed.
class DeterministicPrf {
 public:
  static constexpr size_t kSeedSize = 32;

  explicit DeterministicPrf(std::array<uint8_t, kSeedSize> seed)
      : seed_(seed), mac_(seed_) {}
  /// Hashes an arbitrary passphrase into a master seed.
  static DeterministicPrf FromString(std::string_view passphrase) {
    return DeterministicPrf(Sha256::Hash(passphrase));
  }

  /// Independent uniform stream for `label` (HMAC(seed, label) keys ChaCha20).
  ChaChaRng Stream(std::string_view label) const {
    auto subkey = mac_.Mac(std::span<const uint8_t>(
        reinterpret_cast<const uint8_t*>(label.data()), label.size()));
    return ChaChaRng(std::span<const uint8_t, ChaCha20::kKeySize>(subkey));
  }

  /// 64-bit PRF value for `label` (first word of the stream).
  uint64_t ValueU64(std::string_view label) const {
    ChaChaRng rng = Stream(label);
    return rng.NextU64();
  }

  const std::array<uint8_t, kSeedSize>& seed() const { return seed_; }

 private:
  std::array<uint8_t, kSeedSize> seed_;
  HmacSha256Key mac_;  // keyed with seed_
};

/// Fresh unpredictable seed from the OS (examples and key generation only;
/// library internals always take explicit seeds for replayability).
std::array<uint8_t, DeterministicPrf::kSeedSize> RandomSeed();

}  // namespace polysse

#endif  // POLYSSE_CRYPTO_PRF_H_
