// F_p for word-sized prime p. Elements are plain uint64_t in [0, p);
// a PrimeField instance carries the modulus and the operations.
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
  /// `next_u64` must return independent uniform 64-bit words.
  template <typename Rng>
  uint64_t Uniform(Rng&& next_u64) const {
    uint64_t v = 0;
    UniformFill(next_u64, std::span<uint64_t>(&v, 1));
    return v;
  }
  /// Fills `out` with independent uniform elements, drawing exactly the
  /// words that out.size() calls of Uniform would draw.
  template <typename Rng>
  void UniformFill(Rng&& next_u64, std::span<uint64_t> out) const {
    // Rejection zone keeps the distribution exactly uniform.
    const uint64_t zone = UINT64_MAX - UINT64_MAX % p_;
    for (uint64_t& c : out) {
      uint64_t v;
      do {
        v = next_u64();
      } while (v >= zone);
      c = v % p_;
    }
  }

  bool operator==(const PrimeField& other) const { return p_ == other.p_; }

 private:
  explicit PrimeField(uint64_t p)
      : p_(p), mont_(Montgomery::Valid(p) ? std::optional<Montgomery>(Montgomery(p))
                                          : std::nullopt) {}

  uint64_t p_;
  std::optional<Montgomery> mont_;
};

}  // namespace polysse

#endif  // POLYSSE_FIELD_PRIME_FIELD_H_
