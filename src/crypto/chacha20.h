// ChaCha20 stream cipher (RFC 8439). Serves two roles here:
//  * the "random sequence generator" of paper §4.2 — the client keeps only a
//    seed and re-derives its share polynomials deterministically;
//  * the payload cipher of the content-store extension (src/index).
//
// What a draw computes, and which kernel runs:
//  * single words (NextU64) and XorStream read a buffer that is refilled
//    with eight blocks per pass by an AVX2 kernel when util/cpu_features.h
//    allows it, one block by the portable block function otherwise;
//  * bulk draws (Keystream, NextWords) compute exactly the blocks they
//    cover: eight-block AVX2 passes straight into the output while at
//    least eight blocks remain, then one block per pass for the short tail
//    (a row-wise SIMD block under the same AVX2 switch, the portable block
//    otherwise), except that a tail of kWideTailBlocks or more takes one
//    more eight-block pass. A partial last block lands in the buffer, so
//    the next read continues the stream where the draw stopped.
// Lane counters run c..c+7 and wrap mod 2^32 exactly like the scalar
// counter, so every path emits the same bytes and a stream read in any mix
// of these draws is the same stream; ReferenceBlock exposes the portable
// function for the tests.
#ifndef POLYSSE_CRYPTO_CHACHA20_H_
#define POLYSSE_CRYPTO_CHACHA20_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

namespace polysse {

/// Raw ChaCha20 keystream / XOR cipher.
class ChaCha20 {
 public:
  static constexpr size_t kKeySize = 32;
  static constexpr size_t kNonceSize = 12;
  static constexpr size_t kBlockSize = 64;

  ChaCha20(std::span<const uint8_t, kKeySize> key,
           std::span<const uint8_t, kNonceSize> nonce, uint32_t counter = 0);

  /// XORs the keystream into `data` in place (encrypt == decrypt).
  void XorStream(std::span<uint8_t> data);

  /// Convenience: returns data ^ keystream without mutating the input.
  std::vector<uint8_t> Process(std::span<const uint8_t> data);

  /// Writes the next out.size() keystream bytes to `out`, computing only
  /// the blocks those bytes cover (see the file comment).
  void Keystream(std::span<uint8_t> out);

  /// The next out.size() little-endian keystream words: the words that as
  /// many NextU64 calls return, computed as one Keystream draw.
  void NextWords(std::span<uint64_t> out);

  /// The next 8 keystream bytes as a little-endian word.
  uint64_t NextU64() {
    if (buffer_len_ - pos_ >= 8) {
      const uint64_t v = LoadLE64(buffer_ + pos_);
      pos_ += 8;
      return v;
    }
    uint8_t word[8] = {0};
    XorStream(word);
    return LoadLE64(word);
  }

  /// Keystream block `counter` computed by the portable block function.
  static std::array<uint8_t, kBlockSize> ReferenceBlock(
      std::span<const uint8_t, kKeySize> key,
      std::span<const uint8_t, kNonceSize> nonce, uint32_t counter);

 private:
  /// Blocks the AVX2 kernel computes per pass.
  static constexpr size_t kWideBlocks = 8;
  /// A bulk draw's tail of at least this many blocks (after its whole
  /// eight-block passes) takes one more eight-block pass instead of one
  /// block per pass. Tuned on ring_ops (BM_KeystreamDraw, BENCH.md).
  static constexpr size_t kWideTailBlocks = 3;

  static uint64_t LoadLE64(const uint8_t* p) {
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= static_cast<uint64_t>(p[i]) << (8 * i);
    return v;
  }

  /// Replaces the buffer with the next kWideBlocks blocks (AVX2) or the
  /// next one block (portable) and advances the counter past them.
  void Refill();

  /// Computes the next block into `out` and advances the counter: the
  /// row-wise SIMD block under AVX2, the portable block otherwise.
  void NextBlock(uint8_t* out);

  uint32_t state_[16];
  /// Only buffer_[pos_, buffer_len_) is ever read, so a new stream leaves
  /// the rest unwritten.
  uint8_t buffer_[kWideBlocks * kBlockSize];
  size_t buffer_len_ = 0;  // keystream bytes in buffer_
  size_t pos_ = 0;         // next unread byte of buffer_
};

/// Deterministic uniform random stream backed by ChaCha20; the library's
/// only randomness primitive, so every experiment replays bit-identically
/// from its seed.
class ChaChaRng {
 public:
  explicit ChaChaRng(std::span<const uint8_t, ChaCha20::kKeySize> key);
  /// Seeds from an arbitrary label by hashing (convenience for tests).
  static ChaChaRng FromString(std::string_view seed);

  /// One word; refills eight blocks at a time (see ChaCha20).
  uint64_t NextU64() { return cipher_.NextU64(); }
  /// out.size() words at once, computing only the blocks they cover: the
  /// same words as out.size() NextU64 calls.
  void NextWords(std::span<uint64_t> out) { cipher_.NextWords(out); }
  /// Uniform in [0, bound) by rejection sampling; bound must be > 0.
  uint64_t NextBelow(uint64_t bound);
  /// The next out.size() keystream bytes, as one bulk draw.
  void Fill(std::span<uint8_t> out) { cipher_.Keystream(out); }

  /// Adapter so the RNG can be passed where a `() -> uint64_t` is expected.
  uint64_t operator()() { return NextU64(); }

 private:
  ChaCha20 cipher_;
};

}  // namespace polysse

#endif  // POLYSSE_CRYPTO_CHACHA20_H_
