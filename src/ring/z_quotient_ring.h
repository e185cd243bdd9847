// The ring R_r = Z[x]/(r(x)) of paper §4.1 (second variant), r monic
// irreducible. Degrees stay below deg r but integer coefficients grow with
// the tree — the n^2 (d+1) log p storage term of §5, which is why this ring
// rides on the BigInt substrate.
//
// Query-time evaluation at a point e happens modulo m = r(e) (Fig. 6:
// "everything is calculated modulo r(2) = 5"): for any residue f = F mod r,
// f(e) = F(e) (mod r(e)), so a vanishing true polynomial shows up as 0 mod m.
// When r(e) is composite or <= the tag-difference bound, the evaluation
// filter can produce false positives; SafeTagValues() below picks mapping
// points that provably avoid them, and the verification pass (Theorem 2)
// removes any that remain.
#ifndef POLYSSE_RING_Z_QUOTIENT_RING_H_
#define POLYSSE_RING_Z_QUOTIENT_RING_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "poly/z_poly.h"
#include "util/check.h"
#include "util/status.h"

namespace polysse {

/// Z[x]/(r(x)) for monic irreducible r.
class ZQuotientRing {
 public:
  using Elem = ZPoly;

  /// r must be monic of degree >= 1 and verifiably irreducible
  /// (check skipped when `trust_irreducible` is set — for exotic moduli
  /// whose irreducibility was established elsewhere).
  static Result<ZQuotientRing> Create(ZPoly r, bool trust_irreducible = false);

  const ZPoly& modulus() const { return r_; }
  int degree() const { return r_.degree(); }
  /// Number of stored coefficients of a dense element: deg r.
  size_t DenseCoeffCount() const { return static_cast<size_t>(degree()); }

  Elem Zero() const { return ZPoly::Zero(); }
  Elem One() const { return ZPoly::One(); }
  /// The linear tag factor (x - t), t >= 1.
  Result<Elem> XMinus(uint64_t t) const;

  /// Canonical representative: remainder mod r.
  Result<Elem> Reduce(const ZPoly& a) const { return a.ModMonic(r_); }

  Elem Add(const Elem& a, const Elem& b) const { return a + b; }
  Elem Sub(const Elem& a, const Elem& b) const { return a - b; }
  Elem Neg(const Elem& a) const { return -a; }
  Elem Mul(const Elem& a, const Elem& b) const;
  /// The coefficients of Mul(a, b), from and into coefficient rows
  /// (trailing zeros allowed in a and b; out is normalized).
  void MulInto(std::span<const BigInt> a, std::span<const BigInt> b,
               std::vector<BigInt>* out) const;

  bool IsZero(const Elem& a) const { return a.IsZero(); }
  bool Equal(const Elem& a, const Elem& b) const { return a == b; }

  /// r(e), the modulus query evaluations are taken in. InvalidArgument when
  /// r(e) < 2 or it does not fit in 64 bits.
  Result<uint64_t> QueryModulus(uint64_t e) const;
  /// f(e) mod r(e).
  Result<uint64_t> EvalAt(const Elem& a, uint64_t e) const;

  /// Evaluates elements at a fixed set of points, the shape of
  /// FpCyclotomicRing::Evaluator. Each point has its own modulus r(e), so
  /// there is no shared power table: the evaluator holds the moduli,
  /// computed once per point, and each value is one Horner pass mod r(e).
  class Evaluator {
   public:
    size_t size() const { return points_.size(); }
    /// a(e_i) mod r(e_i), e_i the i-th point.
    uint64_t At(const Elem& a, size_t i) const { return At(a.coeffs(), i); }
    /// The element with coefficients `coeffs` (trailing zeros allowed) at
    /// the i-th point.
    uint64_t At(std::span<const BigInt> coeffs, size_t i) const {
      return ZPoly::EvalModU64(coeffs, points_[i], moduli_[i]);
    }

   private:
    friend class ZQuotientRing;

    std::vector<uint64_t> points_;
    std::vector<uint64_t> moduli_;
  };
  /// The evaluator for `points`; fails for any point EvalAt refuses.
  Result<Evaluator> MakeEvaluator(std::span<const uint64_t> points) const;

  /// Ring element with `deg r` uniform coefficients of `coeff_bits` bits.
  /// NOTE (documented limitation reproduced from the paper): additive shares
  /// over Z cannot be perfectly hiding; coeff_bits sets the statistical
  /// hiding margin relative to the data's coefficient growth.
  template <typename Rng>
  Elem Random(Rng&& next_u64, size_t coeff_bits = 128) const {
    std::vector<BigInt> coeffs(DenseCoeffCount());
    RandomInto(next_u64, coeffs, coeff_bits);
    return ZPoly(std::move(coeffs));
  }
  /// The deg r coefficients Random draws, trailing zeros included, written
  /// into `row` (which must hold deg r of them) instead of a fresh element.
  template <typename Rng>
  void RandomInto(Rng&& next_u64, std::span<BigInt> row,
                  size_t coeff_bits) const {
    POLYSSE_CHECK(row.size() == DenseCoeffCount());
    const size_t words = (coeff_bits + 63) / 64;
    std::vector<uint8_t> bytes(words * 8);
    for (BigInt& c : row) {
      for (size_t w = 0; w < words; ++w) {
        uint64_t v = next_u64();
        for (int b = 0; b < 8; ++b)
          bytes[w * 8 + b] = static_cast<uint8_t>(v >> (8 * b));
      }
      // Trim to the exact bit count.
      const size_t drop = words * 64 - coeff_bits;
      if (drop > 0) {
        size_t last = bytes.size() - 1;
        size_t whole = drop / 8;
        for (size_t k = 0; k < whole; ++k) bytes[last - k] = 0;
        if (drop % 8) bytes[last - whole] &= (0xFF >> (drop % 8));
      }
      c = BigInt::FromLittleEndianBytes(bytes);
    }
  }
  /// The element with coefficients `coeffs` (low-to-high, at most deg r;
  /// trailing zeros allowed).
  Elem FromCoeffs(std::vector<BigInt> coeffs) const {
    return ZPoly(std::move(coeffs));
  }

  /// Theorem 2: the unique t with f = (x - t) * g in Z[x]/(r). Exact integer
  /// division; verifies all coefficient equations (Eq. 3). VerificationFailed
  /// when inconsistent (corrupt or cheating server).
  Result<uint64_t> SolveTag(const Elem& f, const Elem& g) const;
  /// SolveTag on coefficient rows (trailing zeros allowed).
  Result<uint64_t> SolveTag(std::span<const BigInt> f,
                            std::span<const BigInt> g) const;

  /// Scalar type of coefficients (used by the trusted constant-only mode).
  using Scalar = BigInt;
  Scalar ConstTerm(const Elem& a) const { return a.coeff(0); }
  Scalar AddScalars(const Scalar& a, const Scalar& b) const { return a + b; }
  Scalar MulScalars(const Scalar& a, const Scalar& b) const { return a * b; }
  Scalar OneScalar() const { return BigInt(1); }
  void SerializeScalar(const Scalar& s, ByteWriter* out) const {
    s.Serialize(out);
  }
  Result<Scalar> DeserializeScalar(ByteReader* in) const {
    return BigInt::Deserialize(in);
  }

  /// Trusted-server constant-only reconstruction ("only the last equation"):
  /// valid when the node's true polynomial does not wrap the ring
  /// (subtree_size <= deg r - 1), in which case f_0 = -t * g_0 exactly over
  /// Z. No Eq. 3 checking — trusts the server.
  Result<uint64_t> SolveTagTrusted(const BigInt& f0, const BigInt& g0) const;

  /// Tag values t in [1, limit] that make the evaluation filter sound:
  /// r(t) prime and r(t) > max_tag_distance (so no product of nonzero
  /// in-range differences can vanish mod r(t)).
  std::vector<uint64_t> SafeTagValues(uint64_t limit,
                                      uint64_t max_tag_distance) const;

  void Serialize(const Elem& a, ByteWriter* out) const { a.Serialize(out); }
  Result<Elem> Deserialize(ByteReader* in) const;
  /// Deserialize into `coeffs`, reusing its storage: the same checks and
  /// refusals, and the element's normalized coefficients.
  Status DeserializeCoeffs(ByteReader* in, std::vector<BigInt>* coeffs) const;
  size_t SerializedSize(const Elem& a) const { return a.SerializedSize(); }

  std::string ToString(const Elem& a) const { return a.ToString(); }

 private:
  explicit ZQuotientRing(ZPoly r) : r_(std::move(r)) {}

  ZPoly r_;
};

}  // namespace polysse

#endif  // POLYSSE_RING_Z_QUOTIENT_RING_H_
