// The ring R_p = F_p[x]/(x^{p-1} - 1) of paper §4.1 (first variant).
//
// By Lemma 1, x^{p-1} - 1 = prod_{i=1..p-1} (x - i) over F_p, so reduction
// preserves evaluations at every point of F_p^* — which is exactly what the
// query protocol needs. Elements are FpPoly of degree < p-1; tag values live
// in {1..p-2} (p-1 is excluded to dodge zero divisors, Lemma 3).
#ifndef POLYSSE_RING_FP_CYCLOTOMIC_RING_H_
#define POLYSSE_RING_FP_CYCLOTOMIC_RING_H_

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "field/simd_eval.h"
#include "poly/fp_poly.h"
#include "util/check.h"
#include "util/status.h"

namespace polysse {

/// F_p[x]/(x^{p-1}-1). Cheap to copy (holds only the field word).
class FpCyclotomicRing {
 public:
  using Elem = FpPoly;

  /// p must be an odd prime >= 3 and < 2^63.
  static Result<FpCyclotomicRing> Create(uint64_t p);

  const PrimeField& field() const { return field_; }
  uint64_t p() const { return field_.modulus(); }
  /// Largest tag value the ring admits (p - 2).
  uint64_t MaxTagValue() const { return field_.modulus() - 2; }
  /// Number of stored coefficients of a dense element: p - 1.
  size_t DenseCoeffCount() const { return field_.modulus() - 1; }

  Elem Zero() const { return FpPoly::Zero(field_); }
  Elem One() const { return FpPoly::One(field_); }
  /// The linear tag factor (x - t); t must be nonzero mod p. Values in
  /// {1..p-2} are safe (Lemma 3); p-1 is allowed but can create zero
  /// divisors — TagMap enforces the safe policy by default.
  Result<Elem> XMinus(uint64_t t) const;

  /// Folds exponents mod (p-1): the canonical representative.
  Elem Reduce(const FpPoly& a) const;

  Elem Add(const Elem& a, const Elem& b) const { return a + b; }
  Elem Sub(const Elem& a, const Elem& b) const { return a - b; }
  Elem Neg(const Elem& a) const { return -a; }
  /// Reduce(a * b), with a shortcut: when p-1 is a power of two the modulus
  /// supports (p = 257, 65537, ...), x^{p-1}-1 is exactly the NTT's natural
  /// cyclic length, so one length-(p-1) cyclic NTT convolution produces the
  /// already-folded product — no padding to linear size, no separate fold.
  /// MulInto into a fresh vector.
  Elem Mul(const Elem& a, const Elem& b) const;
  /// The coefficients of Mul(a, b), from and into normalized coefficient
  /// vectors, reusing out's storage (out must not alias a or b): the
  /// product FpPoly::operator* would take (poly/fp_conv.h ConvolveInto,
  /// whose schoolbook tier writes in place) folded in place.
  void MulInto(std::span<const uint64_t> a, std::span<const uint64_t> b,
               std::vector<uint64_t>* out) const;

  bool IsZero(const Elem& a) const { return a.IsZero(); }
  bool Equal(const Elem& a, const Elem& b) const { return a == b; }

  /// The modulus that query-time evaluations are taken in: always p.
  /// e must reduce into {1..p-1}; evaluation at 0 is undefined on residues
  /// (x does not divide x^{p-1}-1).
  Result<uint64_t> QueryModulus(uint64_t e) const;
  /// Evaluates a residue at e in {1..p-1}. Well-defined by Lemma 1.
  Result<uint64_t> EvalAt(const Elem& a, uint64_t e) const;

  /// Evaluates residues at a fixed set of points: one row of p-1 point
  /// powers per point (field/simd_eval.h), so each (residue, point) costs
  /// one dot product instead of a Horner chain. A row takes the memory of
  /// one dense residue. Same values as EvalAt.
  class Evaluator {
   public:
    size_t size() const { return powers_.size(); }
    /// a at the i-th point.
    uint64_t At(const Elem& a, size_t i) const {
      return powers_.Eval(a.coeffs(), i);
    }
    /// The residue with coefficients `coeffs` (trailing zeros allowed) at
    /// the i-th point.
    uint64_t At(std::span<const uint64_t> coeffs, size_t i) const {
      return powers_.Eval(coeffs, i);
    }

   private:
    friend class FpCyclotomicRing;
    explicit Evaluator(PointPowers powers) : powers_(std::move(powers)) {}

    PointPowers powers_;
  };
  /// The evaluator for `points`; InvalidArgument when any point is 0 mod p,
  /// exactly as EvalAt refuses it.
  Result<Evaluator> MakeEvaluator(std::span<const uint64_t> points) const;

  /// Uniform ring element: p-1 independent uniform coefficients. This is the
  /// client share distribution that makes 2-out-of-2 sharing perfectly hiding.
  template <typename Rng>
  Elem Random(Rng&& next_u64) const {
    std::vector<uint64_t> coeffs(DenseCoeffCount());
    RandomInto(next_u64, coeffs);
    return FpPoly::FromCanonical(field_, std::move(coeffs));
  }
  /// The p-1 coefficients Random draws, trailing zeros included, written
  /// into `row` (which must hold p-1 words) instead of a fresh element.
  template <typename Rng>
  void RandomInto(Rng&& next_u64, std::span<uint64_t> row) const {
    POLYSSE_CHECK(row.size() == DenseCoeffCount());
    field_.UniformFill(next_u64, row);
  }
  /// The element with canonical coefficients `coeffs` (low-to-high, at most
  /// p-1; trailing zeros allowed).
  Elem FromCoeffs(std::vector<uint64_t> coeffs) const {
    return FpPoly::FromCanonical(field_, std::move(coeffs));
  }

  /// Theorem 1: given a node residue f and the product g of its children,
  /// returns the unique t with f = (x - t) * g, verifying *all* p-1
  /// coefficient equations (Eq. 3) in one pass over f and g, with no
  /// temporaries. VerificationFailed when no consistent t exists (corrupt
  /// or cheating server).
  Result<uint64_t> SolveTag(const Elem& f, const Elem& g) const {
    return SolveTag(f.coeffs(), g.coeffs());
  }
  /// SolveTag on normalized coefficient vectors.
  Result<uint64_t> SolveTag(std::span<const uint64_t> f,
                            std::span<const uint64_t> g) const;

  /// Scalar type of coefficients (used by the trusted constant-only mode).
  using Scalar = uint64_t;
  Scalar ConstTerm(const Elem& a) const { return a.coeff(0); }
  Scalar AddScalars(Scalar a, Scalar b) const { return field_.Add(a, b); }
  Scalar MulScalars(Scalar a, Scalar b) const { return field_.Mul(a, b); }
  Scalar OneScalar() const { return 1; }
  void SerializeScalar(Scalar s, ByteWriter* out) const { out->PutVarint64(s); }
  Result<Scalar> DeserializeScalar(ByteReader* in) const;

  /// Constant-coefficient-only reconstruction (paper's trusted-server mode,
  /// "only the last equation is enough"): valid when the node's true
  /// polynomial does not wrap the ring (subtree_size <= p-2), in which case
  /// f_0 = -t * g_0. Performs no Eq. 3 checks — trusts the server.
  Result<uint64_t> SolveTagTrusted(Scalar f0, Scalar g0) const;

  void Serialize(const Elem& a, ByteWriter* out) const { a.Serialize(out); }
  Result<Elem> Deserialize(ByteReader* in) const;
  /// Deserialize into `coeffs`, reusing its storage: the same checks and
  /// refusals, and the element's normalized coefficients.
  Status DeserializeCoeffs(ByteReader* in, std::vector<uint64_t>* coeffs) const;
  size_t SerializedSize(const Elem& a) const { return a.SerializedSize(); }
  /// Bytes for the dense §5 storage model: (p-1) * ceil(log2(p)/8).
  size_t DenseModelBytes() const;

  std::string ToString(const Elem& a) const { return a.ToString(); }

 private:
  explicit FpCyclotomicRing(const PrimeField& field) : field_(field) {}

  PrimeField field_;
};

}  // namespace polysse

#endif  // POLYSSE_RING_FP_CYCLOTOMIC_RING_H_
