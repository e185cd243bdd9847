// Dense univariate polynomials over F_p. Coefficient vector is low-to-high
// and normalized: no trailing (high-order) zeros, the zero polynomial has an
// empty vector and degree() == -1.
#ifndef POLYSSE_POLY_FP_POLY_H_
#define POLYSSE_POLY_FP_POLY_H_

#include <cstdint>
#include <initializer_list>
#include <span>
#include <string>
#include <vector>

#include "field/prime_field.h"
#include "util/bytes.h"
#include "util/status.h"

namespace polysse {

/// Polynomial over F_p; carries its field (the modulus word plus its
/// precomputed Montgomery context, ~5 words) by value.
class FpPoly {
 public:
  /// The zero polynomial.
  explicit FpPoly(const PrimeField& field) : field_(field) {}
  /// From low-to-high coefficients; values are reduced into [0, p).
  FpPoly(const PrimeField& field, std::vector<int64_t> coeffs);
  FpPoly(const PrimeField& field, std::initializer_list<int64_t> coeffs)
      : FpPoly(field, std::vector<int64_t>(coeffs)) {}

  static FpPoly Zero(const PrimeField& field) { return FpPoly(field); }
  static FpPoly One(const PrimeField& field) { return Constant(field, 1); }
  /// From already-canonical coefficients (each < p, low-to-high); the ring
  /// fast paths use this to skip the signed-reduction round trip.
  static FpPoly FromCanonical(const PrimeField& field,
                              std::vector<uint64_t> coeffs);
  static FpPoly Constant(const PrimeField& field, uint64_t c);
  /// c * x^d.
  static FpPoly Monomial(const PrimeField& field, uint64_t c, size_t d);
  /// The linear factor (x - root) used for every XML tag (paper §4.1).
  static FpPoly XMinus(const PrimeField& field, uint64_t root);

  const PrimeField& field() const { return field_; }
  /// -1 for the zero polynomial.
  int degree() const { return static_cast<int>(coeffs_.size()) - 1; }
  bool IsZero() const { return coeffs_.empty(); }
  /// Coefficient of x^i (0 beyond the degree).
  uint64_t coeff(size_t i) const { return i < coeffs_.size() ? coeffs_[i] : 0; }
  const std::vector<uint64_t>& coeffs() const { return coeffs_; }
  uint64_t LeadingCoeff() const { return coeffs_.empty() ? 0 : coeffs_.back(); }

  FpPoly operator+(const FpPoly& rhs) const;
  FpPoly operator-(const FpPoly& rhs) const;
  FpPoly operator*(const FpPoly& rhs) const;
  FpPoly operator-() const;
  FpPoly ScalarMul(uint64_t s) const;
  /// Multiply by x^k (degree shift).
  FpPoly ShiftUp(size_t k) const;

  bool operator==(const FpPoly& rhs) const;
  bool operator!=(const FpPoly& rhs) const { return !(*this == rhs); }

  /// Horner evaluation at a point of F_p.
  uint64_t Eval(uint64_t x) const;

  /// Quotient and remainder; InvalidArgument when divisor is zero.
  Result<std::pair<FpPoly, FpPoly>> DivRem(const FpPoly& divisor) const;
  /// Remainder only.
  Result<FpPoly> Mod(const FpPoly& divisor) const;
  /// Monic gcd (zero when both inputs are zero).
  static FpPoly Gcd(FpPoly a, FpPoly b);
  /// Scales so the leading coefficient is 1 (zero stays zero).
  FpPoly Monic() const;

  /// Unique degree-<n interpolating polynomial through n distinct points.
  static Result<FpPoly> Interpolate(
      const PrimeField& field,
      const std::vector<std::pair<uint64_t, uint64_t>>& points);

  /// Rabin irreducibility test over F_p.
  bool IsIrreducible() const;

  /// Wire format: varint count + varint coefficients (field not included).
  void Serialize(ByteWriter* out) const;
  static Result<FpPoly> Deserialize(const PrimeField& field, ByteReader* in);
  /// The wire form of the polynomial with canonical coefficients `coeffs`
  /// (low-to-high; trailing zeros are dropped, as a polynomial holds none).
  static void SerializeCoeffs(std::span<const uint64_t> coeffs,
                              ByteWriter* out);
  /// Deserialize into `coeffs`, reusing its storage: the same checks and
  /// refusals, and the normalized coefficients of the same polynomial.
  static Status DeserializeCoeffs(const PrimeField& field, ByteReader* in,
                                  std::vector<uint64_t>* coeffs);
  size_t SerializedSize() const;

  /// Human-readable form matching the paper's figures, e.g. "3x^3 + 3x^2 + 3x + 3".
  std::string ToString() const;

 private:
  FpPoly(const PrimeField& field, std::vector<uint64_t> canonical_coeffs)
      : field_(field), coeffs_(std::move(canonical_coeffs)) {
    Normalize();
  }

  void Normalize() {
    while (!coeffs_.empty() && coeffs_.back() == 0) coeffs_.pop_back();
  }

  PrimeField field_;
  std::vector<uint64_t> coeffs_;
};

/// (a * b) mod m — helper for the irreducibility test and quotient rings.
Result<FpPoly> MulMod(const FpPoly& a, const FpPoly& b, const FpPoly& m);
/// base^e mod m.
Result<FpPoly> PowMod(const FpPoly& base, uint64_t e, const FpPoly& m);

std::ostream& operator<<(std::ostream& os, const FpPoly& p);

}  // namespace polysse

#endif  // POLYSSE_POLY_FP_POLY_H_
