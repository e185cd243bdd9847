// Lazy-reduction dot products over F_p, and the multi-point evaluation
// built on them.
//
// LazyDot sums products of canonical operands unreduced while the sum
// provably fits 64 bits. Every product is at most (p-1)^2, so
// floor((2^64-1) / (p-1)^2) products can be added before one reduction:
// any vector length at p = 67, 18 products at p = 998244353. Longer vectors
// are reduced once per chunk of that many. When p-1 >= 2^32 not even one
// product fits, and callers keep their word-by-word kernels (Horner,
// Montgomery). The AVX2 kernel (32x32->64-bit lane multiplies, eight lanes)
// runs when SimdEnabled(SimdIsa::kAvx2) holds and a chunk gives every lane
// at least one product, i.e. p-1 <= 2^30.5; the scalar loop computes the
// same sums otherwise.
//
// PointPowers holds x^0 .. x^{w-1} mod p for each point of a set, one row
// of w words per point. A polynomial of at most w coefficients evaluates at
// a point as the dot product of its coefficients with that point's row.
// Horner's form chains every multiply on the previous one; here they are
// independent, so they pipeline, and the sum is reduced once per
// (polynomial, point). Fields with p-1 >= 2^32 keep no table and evaluate
// by PrimeField::HornerEval. The F_p schoolbook convolution (poly/fp_conv.cc)
// computes each product coefficient as one LazyDot as well.
//
// Every path returns exactly the value of the word-by-word reference;
// tests/simd_eval_test.cc and tests/arith_differential_test.cc pin that for
// moduli on both sides of each bound.
#ifndef POLYSSE_FIELD_SIMD_EVAL_H_
#define POLYSSE_FIELD_SIMD_EVAL_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "field/prime_field.h"

namespace polysse {

/// sum_j a[j] * b[j] mod p over canonical operands, reduced once per chunk
/// of floor((2^64-1) / (p-1)^2) products. Immutable; cheap to copy.
class LazyDot {
 public:
  explicit LazyDot(const PrimeField& field);

  /// False when p-1 >= 2^32: not even one product fits 64 bits, and the
  /// dot product must not be called.
  bool enabled() const { return chunk_ != 0; }
  /// True when the dot product runs the AVX2 kernel.
  bool UsesSimd() const { return simd_; }

  /// The dot product of a[0..n) and b[0..n); needs enabled().
  uint64_t operator()(const uint64_t* a, const uint64_t* b, size_t n) const;
  /// Every product coefficient out[k] = sum_{i+j=k} a[i] * b[j] mod p,
  /// k < a.size() + b.size() - 1: each one dot product of a with a window
  /// of b, reduced once per chunk, eight consecutive coefficients per pass
  /// over the shorter operand. Needs enabled() and non-empty operands.
  void Convolve(std::span<const uint64_t> a, std::span<const uint64_t> b,
                uint64_t* out) const;
  /// s mod p for any 64-bit s (Barrett: no hardware division).
  uint64_t Reduce(uint64_t s) const;

 private:
  uint64_t p_;
  /// Products one unreduced 64-bit sum may absorb; 0 when p-1 >= 2^32.
  uint64_t chunk_;
  uint64_t reciprocal_;  ///< floor((2^64-1) / p), for Barrett reduction
  bool simd_;
};

/// Powers x^0 .. x^{width-1} of a fixed set of points, evaluated against
/// by LazyDot. Immutable after
/// construction, so concurrent Eval calls are safe. Memory: size() * width()
/// words (none when p-1 >= 2^32).
class PointPowers {
 public:
  /// Tables `width` powers of every point. Points may be any uint64; they
  /// are reduced mod p first, exactly like PrimeField::HornerEval.
  PointPowers(const PrimeField& field, std::span<const uint64_t> points,
              size_t width);

  size_t size() const { return points_.size(); }
  size_t width() const { return width_; }

  /// sum_j coeffs[j] * x_i^j over the field, x_i the i-th point.
  /// Coefficients must be canonical. A vector longer than width() is
  /// evaluated by Horner.
  uint64_t Eval(std::span<const uint64_t> coeffs, size_t i) const;

  /// True when Eval runs the AVX2 kernel for this table (exposed so tests
  /// and benches can say which kernel they measured).
  bool UsesSimd() const { return dot_.UsesSimd(); }

 private:
  PrimeField field_;
  std::vector<uint64_t> points_;  ///< reduced mod p
  size_t width_;
  LazyDot dot_;  ///< not enabled: no table, Eval runs Horner
  std::vector<uint64_t> powers_;  ///< size() x width_, row-major
};

}  // namespace polysse

#endif  // POLYSSE_FIELD_SIMD_EVAL_H_
