// Word-sized modular arithmetic: the kernels under PrimeField and the
// F_p[x]/(x^{p-1}-1) ring. All routines are branch-free of UB for any
// modulus 1 < m < 2^63.
#ifndef POLYSSE_NT_MODULAR_H_
#define POLYSSE_NT_MODULAR_H_

#include <cstdint>

#include "util/status.h"

namespace polysse {

/// (a * b) mod m via 128-bit intermediate.
uint64_t MulMod(uint64_t a, uint64_t b, uint64_t m);

/// (a + b) mod m without overflow, for any m (the library-wide m < 2^63
/// bound is not required here). Operands need not be reduced; the fast path
/// (both already in [0, m)) is a compare and a subtract.
uint64_t AddMod(uint64_t a, uint64_t b, uint64_t m);

/// (a - b) mod m for any m. Operands need not be reduced.
uint64_t SubMod(uint64_t a, uint64_t b, uint64_t m);

/// a^e mod m by square-and-multiply (Montgomery ladder for odd m). 0^0 == 1.
uint64_t PowMod(uint64_t a, uint64_t e, uint64_t m);

/// Montgomery-form arithmetic with R = 2^64 for odd modulus 1 < m < 2^63.
///
/// REDC replaces the hardware division of MulMod with two word
/// multiplications, which is what makes chained modular products (Horner
/// evaluation, polynomial convolution, exponentiation) the hot-path win.
/// Domain bookkeeping is the caller's: Mul(a, b) computes a*b*R^{-1} mod m,
/// so it maps Montgomery x Montgomery -> Montgomery and, equally useful,
/// Montgomery x plain -> plain. The kernels in poly/ convert ONE operand of
/// a convolution up front and keep everything else in the plain domain.
class Montgomery {
 public:
  /// m must be odd and in (1, 2^63); use Valid() to gate (p = 2 is the one
  /// prime this class cannot represent — callers fall back to MulMod).
  explicit Montgomery(uint64_t m);

  static bool Valid(uint64_t m) { return (m & 1) != 0 && m > 1 && m < (1ull << 63); }

  uint64_t modulus() const { return m_; }

  /// a * R mod m. Correct for ANY 64-bit a, reduced or not.
  uint64_t ToMont(uint64_t a) const {
    return Reduce(static_cast<unsigned __int128>(a) * r2_);
  }
  /// a * R^{-1} mod m: converts a Montgomery-form value back to canonical.
  uint64_t FromMont(uint64_t a) const { return Reduce(a); }
  /// REDC(a * b) = a * b * R^{-1} mod m for any a, b < 2^64 with a*b < m*R.
  uint64_t Mul(uint64_t a, uint64_t b) const {
    return Reduce(static_cast<unsigned __int128>(a) * b);
  }
  /// base^e mod m; base and result are canonical (not Montgomery form).
  /// 0^0 == 1, matching PowMod.
  uint64_t Pow(uint64_t base, uint64_t e) const;

  /// Montgomery reduction (REDC): t * R^{-1} mod m for any t < m * R, such
  /// as a sum of up to floor(2^64 / m) products of canonical operands.
  uint64_t Reduce(unsigned __int128 t) const {
    uint64_t q = static_cast<uint64_t>(t) * neg_inv_;
    uint64_t r = static_cast<uint64_t>(
        (t + static_cast<unsigned __int128>(q) * m_) >> 64);
    return r >= m_ ? r - m_ : r;
  }

 private:
  uint64_t m_;
  uint64_t neg_inv_;  // -m^{-1} mod 2^64
  uint64_t r2_;       // R^2 mod m
};

/// Extended gcd: returns g = gcd(a, b) and Bezout x, y with a*x + b*y = g.
struct ExtGcdResult {
  int64_t g;
  int64_t x;
  int64_t y;
};
ExtGcdResult ExtGcd(int64_t a, int64_t b);

/// Multiplicative inverse of a modulo m; InvalidArgument when gcd(a,m) != 1.
Result<uint64_t> InvMod(uint64_t a, uint64_t m);

}  // namespace polysse

#endif  // POLYSSE_NT_MODULAR_H_
