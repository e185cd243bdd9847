// F_p for word-sized prime p. Elements are plain uint64_t in [0, p);
// a PrimeField instance carries the modulus and the operations.
//
// Sampling draws 64-bit words and keeps those below the largest multiple of
// p a word holds, reduced by Barrett (no division per word). Uniform draws
// one word at a time; UniformFill draws its n words from a ChaChaRng in one
// bulk draw, which computes only the ChaCha20 blocks those words cover
// (crypto/chacha20.h), and draws a rejected word's replacement singly. Both
// give exactly the elements of n single draws, in order.
#ifndef POLYSSE_FIELD_PRIME_FIELD_H_
#define POLYSSE_FIELD_PRIME_FIELD_H_

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "nt/modular.h"
#include "util/check.h"
#include "util/status.h"

namespace polysse {

/// The field F_p. Copyable value type; all ops are O(1) word arithmetic.
class PrimeField {
 public:
  /// Validates primality and the word-modulus bound p < 2^63.
  static Result<PrimeField> Create(uint64_t p);

  uint64_t modulus() const { return p_; }

  /// Canonical representative of a signed integer.
  uint64_t FromInt64(int64_t v) const {
    int64_t r = v % static_cast<int64_t>(p_);
    if (r < 0) r += static_cast<int64_t>(p_);
    return static_cast<uint64_t>(r);
  }
  /// Canonical representative of an unsigned integer.
  uint64_t FromUInt64(uint64_t v) const { return v % p_; }

  /// Operands must be canonical (in [0, p)); with p < 2^63 the sum cannot
  /// wrap, so this compiles to a branchless compare/subtract — the shape
  /// the convolution and Horner inner loops are built on. Use the free
  /// AddMod/SubMod for unreduced or full-range-modulus inputs.
  uint64_t Add(uint64_t a, uint64_t b) const {
    POLYSSE_DCHECK(a < p_ && b < p_);
    uint64_t s = a + b;
    return s >= p_ ? s - p_ : s;
  }
  uint64_t Sub(uint64_t a, uint64_t b) const {
    POLYSSE_DCHECK(a < p_ && b < p_);
    return a >= b ? a - b : a + (p_ - b);
  }
  uint64_t Mul(uint64_t a, uint64_t b) const { return MulMod(a, b, p_); }
  uint64_t Neg(uint64_t a) const { return a == 0 ? 0 : p_ - a; }
  uint64_t Pow(uint64_t a, uint64_t e) const {
    return mont_ ? mont_->Pow(a, e) : PowMod(a, e, p_);
  }

  /// One-time-converted Montgomery context for chained-multiplication
  /// kernels (convolution, Horner, exponentiation). Null only for p = 2,
  /// the one even prime; callers fall back to the plain Mul.
  const Montgomery* mont() const { return mont_ ? &*mont_ : nullptr; }

  /// Horner evaluation of sum coeffs[i] * x^i (low-to-high, canonical
  /// coefficients). Converts x into Montgomery form once so every step is a
  /// REDC multiply instead of a hardware division. FpPoly::Eval runs it,
  /// and so does PointPowers for moduli too wide for its table.
  uint64_t HornerEval(std::span<const uint64_t> coeffs, uint64_t x) const {
    x = FromUInt64(x);
    uint64_t acc = 0;
    if (mont_) {
      // REDC(acc * xm) = acc * x with acc and the coefficients staying in
      // the plain domain: only x itself is ever converted.
      const uint64_t xm = mont_->ToMont(x);
      for (size_t i = coeffs.size(); i-- > 0;)
        acc = Add(mont_->Mul(acc, xm), coeffs[i]);
      return acc;
    }
    for (size_t i = coeffs.size(); i-- > 0;)
      acc = Add(MulMod(acc, x, p_), coeffs[i]);
    return acc;
  }
  /// InvalidArgument for zero.
  Result<uint64_t> Inv(uint64_t a) const { return InvMod(a, p_); }
  /// a / b; InvalidArgument when b == 0.
  Result<uint64_t> Div(uint64_t a, uint64_t b) const;

  bool IsCanonical(uint64_t a) const { return a < p_; }

  /// Uniform element from rejection sampling over a 64-bit source.
  /// `next_u64` must return independent uniform 64-bit words. Draws one
  /// word at a time (a ChaChaRng refills eight blocks per pass), which is
  /// what callers drawing scalars from one long stream want.
  template <typename Rng>
  uint64_t Uniform(Rng&& next_u64) const {
    const Sampler s(p_);
    uint64_t v;
    do {
      v = next_u64();
    } while (v >= s.zone);
    return s.Reduce(v);
  }
  /// Fills `out` with independent uniform elements: exactly the elements,
  /// in order, that out.size() calls of Uniform would return, leaving the
  /// source at the same word. A source with a bulk draw (ChaChaRng's
  /// NextWords) gives all out.size() words in one draw, which computes
  /// only the keystream they cover; rejected words are dropped and their
  /// replacements drawn one at a time. Other sources are called per word.
  template <typename Rng>
  void UniformFill(Rng&& next_u64, std::span<uint64_t> out) const {
    if constexpr (requires { next_u64.NextWords(out); }) {
      const Sampler s(p_);
      next_u64.NextWords(out);
      size_t kept = 0;
      for (const uint64_t v : out)
        if (v < s.zone) out[kept++] = s.Reduce(v);
      for (; kept < out.size(); ++kept) out[kept] = Uniform(next_u64);
    } else {
      for (uint64_t& c : out) c = Uniform(next_u64);
    }
  }

  bool operator==(const PrimeField& other) const { return p_ == other.p_; }

 private:
  /// Rejection sampling of words into [0, p): words below `zone` (the
  /// largest multiple of p a word can hold) keep the result exactly
  /// uniform, and Reduce takes them mod p by Barrett: q = floor(v r / 2^64)
  /// with r = floor((2^64-1) / p) is floor(v / p) or one less, so one
  /// multiply-high and one conditional subtract replace a division.
  struct Sampler {
    explicit Sampler(uint64_t p)
        : p(p), r(UINT64_MAX / p), zone(UINT64_MAX - UINT64_MAX % p) {}
    uint64_t Reduce(uint64_t v) const {
      const uint64_t q = static_cast<uint64_t>(
          (static_cast<unsigned __int128>(v) * r) >> 64);
      v -= q * p;
      return v >= p ? v - p : v;
    }
    uint64_t p, r, zone;
  };

  explicit PrimeField(uint64_t p)
      : p_(p), mont_(Montgomery::Valid(p) ? std::optional<Montgomery>(Montgomery(p))
                                          : std::nullopt) {}

  uint64_t p_;
  std::optional<Montgomery> mont_;
};

}  // namespace polysse

#endif  // POLYSSE_FIELD_PRIME_FIELD_H_
