// Multi-point polynomial evaluation over F_p as dot products against a
// table of point powers.
//
// PointPowers holds x^0 .. x^{w-1} mod p for each point of a set, one row
// of w words per point. A polynomial of at most w coefficients evaluates at
// a point as the dot product of its coefficients with that point's row.
// Horner's form chains every multiply on the previous one; here they are
// independent, so they pipeline (four per AVX2 instruction), and the sum is
// reduced once per (polynomial, point).
//
// The sum stays unreduced only while it provably fits 64 bits. With
// canonical operands every product is at most (p-1)^2, so
// floor((2^64-1) / (p-1)^2) products can be added before one reduction:
// any vector length at p = 67, 18 products at p = 998244353. Longer vectors
// are reduced once per chunk of that many. When p-1 >= 2^32 not even one
// product fits; such fields keep no table and evaluate by
// PrimeField::HornerEval. The AVX2 kernel (32x32->64-bit lane multiplies,
// eight lanes) runs when SimdEnabled(SimdIsa::kAvx2) holds and a chunk
// gives every lane at least one product, i.e. p-1 <= 2^30.5; the scalar
// loop computes the same sums otherwise. Every path returns exactly
// PrimeField::HornerEval's value; tests/simd_eval_test.cc and
// tests/arith_differential_test.cc pin that for moduli on both sides of
// each bound.
#ifndef POLYSSE_FIELD_SIMD_EVAL_H_
#define POLYSSE_FIELD_SIMD_EVAL_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "field/prime_field.h"

namespace polysse {

/// Powers x^0 .. x^{width-1} of a fixed set of points, and the dot-product
/// kernel that evaluates polynomials against them. Immutable after
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
  bool UsesSimd() const { return simd_; }

 private:
  PrimeField field_;
  std::vector<uint64_t> points_;  ///< reduced mod p
  size_t width_;
  /// Products one unreduced 64-bit sum may absorb; 0 when p-1 >= 2^32
  /// (no table: Eval runs Horner).
  uint64_t chunk_;
  uint64_t reciprocal_;  ///< floor((2^64-1) / p), for Barrett reduction
  bool simd_;
  std::vector<uint64_t> powers_;  ///< size() x width_, row-major
};

}  // namespace polysse

#endif  // POLYSSE_FIELD_SIMD_EVAL_H_
