// Dense univariate polynomials over Z with BigInt coefficients — the carrier
// of the paper's Z[x]/(r(x)) representation, where coefficients grow with the
// XML tree (the n^2 (d+1) log p storage term of §5).
#ifndef POLYSSE_POLY_Z_POLY_H_
#define POLYSSE_POLY_Z_POLY_H_

#include <initializer_list>
#include <span>
#include <string>
#include <vector>

#include "bigint/bigint.h"
#include "util/bytes.h"
#include "util/status.h"

namespace polysse {

/// Polynomial over Z. Coefficients low-to-high, normalized (no trailing
/// zeros; zero polynomial has an empty vector, degree -1).
class ZPoly {
 public:
  /// The zero polynomial.
  ZPoly() = default;
  /// From low-to-high coefficients.
  explicit ZPoly(std::vector<BigInt> coeffs) : coeffs_(std::move(coeffs)) {
    Normalize();
  }
  ZPoly(std::initializer_list<int64_t> coeffs);

  static ZPoly Zero() { return ZPoly(); }
  static ZPoly One() { return Constant(1); }
  static ZPoly Constant(BigInt c);
  /// c * x^d.
  static ZPoly Monomial(BigInt c, size_t d);
  /// The linear factor (x - root).
  static ZPoly XMinus(const BigInt& root);

  int degree() const { return static_cast<int>(coeffs_.size()) - 1; }
  bool IsZero() const { return coeffs_.empty(); }
  /// Coefficient of x^i (zero beyond the degree).
  const BigInt& coeff(size_t i) const {
    static const BigInt kZero;
    return i < coeffs_.size() ? coeffs_[i] : kZero;
  }
  const std::vector<BigInt>& coeffs() const { return coeffs_; }
  const BigInt& LeadingCoeff() const { return coeff(coeffs_.empty() ? 0 : coeffs_.size() - 1); }
  bool IsMonic() const { return !coeffs_.empty() && coeffs_.back().is_one(); }

  ZPoly operator+(const ZPoly& rhs) const;
  ZPoly operator-(const ZPoly& rhs) const;
  ZPoly operator*(const ZPoly& rhs) const;
  ZPoly operator-() const;
  ZPoly ScalarMul(const BigInt& s) const;

  bool operator==(const ZPoly& rhs) const { return coeffs_ == rhs.coeffs_; }
  bool operator!=(const ZPoly& rhs) const { return !(*this == rhs); }

  /// Horner evaluation over Z.
  BigInt Eval(const BigInt& x) const;
  /// Horner evaluation reduced mod m > 0 at every step: f(x) mod m.
  /// This is the query-time arithmetic of Fig. 6 ("mod r(2) = 5").
  uint64_t EvalModU64(uint64_t x, uint64_t m) const {
    return EvalModU64(coeffs_, x, m);
  }
  /// The same for the polynomial with low-to-high coefficients `coeffs`
  /// (trailing zeros allowed).
  static uint64_t EvalModU64(std::span<const BigInt> coeffs, uint64_t x,
                             uint64_t m);

  /// Quotient/remainder by a *monic* divisor (stays in Z[x]).
  /// InvalidArgument when the divisor is zero or non-monic.
  Result<std::pair<ZPoly, ZPoly>> DivRemByMonic(const ZPoly& divisor) const;
  Result<ZPoly> ModMonic(const ZPoly& divisor) const;

  /// Max coefficient bit length (0 for the zero polynomial) — storage metric.
  size_t MaxCoeffBits() const;

  /// Wire format: varint count, then BigInt-serialized coefficients.
  void Serialize(ByteWriter* out) const { SerializeCoeffs(coeffs_, out); }
  static Result<ZPoly> Deserialize(ByteReader* in);
  /// The wire form of the polynomial with coefficients `coeffs`
  /// (low-to-high; trailing zeros are dropped, as a polynomial holds none).
  static void SerializeCoeffs(std::span<const BigInt> coeffs,
                              ByteWriter* out);
  /// Deserialize into `coeffs`, reusing its storage: the same checks and
  /// refusals, and the normalized coefficients of the same polynomial.
  static Status DeserializeCoeffs(ByteReader* in, std::vector<BigInt>* coeffs);
  size_t SerializedSize() const;

  /// Paper-figure style, e.g. "265x + 45", "-6x + 7", "x^2 + 4x + 3".
  std::string ToString() const;

 private:
  void Normalize() {
    while (!coeffs_.empty() && coeffs_.back().is_zero()) coeffs_.pop_back();
  }

  std::vector<BigInt> coeffs_;
};

/// Which implementation ZPoly::operator* uses. kFast (the default) switches
/// to Karatsuba above a size threshold; kReference forces the quadratic
/// kernel so golden vectors can be asserted against both. Global test knob;
/// relaxed atomic, same contract as the F_p knobs in poly/fp_conv.h.
enum class ZMulPath { kFast, kReference };

/// Sets the multiplication path; returns the previous one.
ZMulPath SetZMulPath(ZMulPath path);
ZMulPath GetZMulPath();

/// Karatsuba crossover in coefficient count for ZPoly products. Returns the
/// previous value; passing 0 restores the tuned default. Test/bench knob,
/// atomic like the path.
size_t SetZKaratsubaThreshold(size_t threshold);
size_t GetZKaratsubaThreshold();

/// Reference quadratic product over Z (exposed for the differential suite
/// and the bench harness).
ZPoly MulSchoolbook(const ZPoly& a, const ZPoly& b);

/// Sufficient irreducibility check for a monic r(x) in Z[x]: irreducible
/// modulo some prime p (not dividing the leading coefficient) implies
/// irreducible over Z. Tries `trials` primes; may return false negatives,
/// never false positives.
bool IsProbablyIrreducibleOverZ(const ZPoly& r, int trials = 5);

std::ostream& operator<<(std::ostream& os, const ZPoly& p);

}  // namespace polysse

#endif  // POLYSSE_POLY_Z_POLY_H_
