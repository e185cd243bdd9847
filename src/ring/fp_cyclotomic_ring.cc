#include "ring/fp_cyclotomic_ring.h"

#include <algorithm>

#include "poly/fp_conv.h"
#include "util/check.h"

namespace polysse {

Result<FpCyclotomicRing> FpCyclotomicRing::Create(uint64_t p) {
  ASSIGN_OR_RETURN(PrimeField field, PrimeField::Create(p));
  if (p < 3)
    return Status::InvalidArgument(
        "FpCyclotomicRing: p must be >= 3 so that a tag alphabet exists");
  return FpCyclotomicRing(field);
}

Result<FpPoly> FpCyclotomicRing::XMinus(uint64_t t) const {
  if (field_.FromUInt64(t) == 0)
    return Status::InvalidArgument(
        "tag value 0 is reserved: x does not divide x^{p-1}-1, so evaluation "
        "at 0 would be undefined on residues");
  // Note: t == p-1 is *representable* (the paper's own Fig. 1 maps name->4
  // with p=5) but unsafe in general — Lemma 3's zero-divisor guard is
  // enforced by TagMap, which callers can relax for figure reproduction.
  return FpPoly::XMinus(field_, t);
}

namespace {

/// Exponent folding i -> i mod n in place, on canonical coefficients, with a
/// running slot index instead of a division per coefficient; leaves the
/// normalized result.
void FoldInPlace(const PrimeField& field, size_t n, std::vector<uint64_t>& c) {
  for (size_t i = n, slot = 0; i < c.size(); ++i) {
    c[slot] = field.Add(c[slot], c[i]);
    if (++slot == n) slot = 0;
  }
  if (c.size() > n) c.resize(n);
  while (!c.empty() && c.back() == 0) c.pop_back();
}

}  // namespace

FpPoly FpCyclotomicRing::Reduce(const FpPoly& a) const {
  if (a.coeffs().size() <= DenseCoeffCount()) return a;
  std::vector<uint64_t> c = a.coeffs();
  FoldInPlace(field_, DenseCoeffCount(), c);
  return FpPoly::FromCanonical(field_, std::move(c));
}

FpPoly FpCyclotomicRing::Mul(const Elem& a, const Elem& b) const {
  std::vector<uint64_t> c;
  MulInto(a.coeffs(), b.coeffs(), &c);
  return FpPoly::FromCanonical(field_, std::move(c));
}

void FpCyclotomicRing::MulInto(std::span<const uint64_t> a,
                               std::span<const uint64_t> b,
                               std::vector<uint64_t>* out) const {
  const size_t n = DenseCoeffCount();
  if (auto folded = TryCyclicNttConvolve(field_, a, b, n)) {
    *out = std::move(*folded);
  } else {
    ConvolveInto(field_, a, b, out);
  }
  // A product that does not wrap only loses its trailing zeros here.
  FoldInPlace(field_, n, *out);
}

Result<uint64_t> FpCyclotomicRing::QueryModulus(uint64_t e) const {
  if (field_.FromUInt64(e) == 0)
    return Status::InvalidArgument(
        "evaluation point 0 is undefined in F_p[x]/(x^{p-1}-1)");
  return field_.modulus();
}

Result<uint64_t> FpCyclotomicRing::EvalAt(const Elem& a, uint64_t e) const {
  RETURN_IF_ERROR(QueryModulus(e).status());
  return a.Eval(e);
}

Result<FpCyclotomicRing::Evaluator> FpCyclotomicRing::MakeEvaluator(
    std::span<const uint64_t> points) const {
  for (uint64_t e : points) RETURN_IF_ERROR(QueryModulus(e).status());
  return Evaluator(PointPowers(field_, points, DenseCoeffCount()));
}

Result<uint64_t> FpCyclotomicRing::SolveTag(std::span<const uint64_t> fc,
                                            std::span<const uint64_t> gc) const {
  while (!fc.empty() && fc.back() == 0) fc = fc.first(fc.size() - 1);
  while (!gc.empty() && gc.back() == 0) gc = gc.first(gc.size() - 1);
  if (gc.empty())
    return Status::VerificationFailed(
        "SolveTag: children product is zero — impossible for well-formed data "
        "(Lemma 3)");
  auto inconsistent = [] {
    return Status::VerificationFailed(
        "SolveTag: coefficient equations inconsistent — server answer "
        "rejected");
  };
  // f = (x - t) g  <=>  t * g_k = (x g)_k - f_k for every k < p-1 (Eq. 2,
  // Eq. 3), where x g is g rotated by one slot: (x g)_k = g_{k-1} and
  // (x g)_0 = g_{p-2}. Residues past degree p-2 fit no equation.
  const size_t n = DenseCoeffCount();
  if (fc.size() > n || gc.size() > n) return inconsistent();
  auto f_at = [&](size_t k) { return k < fc.size() ? fc[k] : 0; };
  auto g_at = [&](size_t k) { return k < gc.size() ? gc[k] : 0; };
  auto xg_at = [&](size_t k) { return g_at(k == 0 ? n - 1 : k - 1); };
  // Solve t at the first index where g is nonzero, then check every
  // equation; past both f and x g all three terms are 0.
  size_t pivot = 0;
  while (gc[pivot] == 0) ++pivot;  // g's top coefficient is nonzero
  ASSIGN_OR_RETURN(uint64_t ginv, field_.Inv(gc[pivot]));
  const uint64_t t =
      field_.Mul(field_.Sub(xg_at(pivot), f_at(pivot)), ginv);
  // REDC(mont(t) * g_k) = t * g_k: no hardware division per coefficient
  // (p is odd, so the Montgomery context exists).
  const Montgomery& mont = *field_.mont();
  const uint64_t tm = mont.ToMont(t);
  const size_t checked = std::min(n, std::max(fc.size(), gc.size() + 1));
  for (size_t k = 0; k < checked; ++k) {
    if (field_.Add(mont.Mul(tm, g_at(k)), f_at(k)) != xg_at(k))
      return inconsistent();
  }
  if (t == 0)
    return Status::VerificationFailed(
        "SolveTag: reconstructed tag value 0 is outside the tag alphabet");
  return t;
}

Result<uint64_t> FpCyclotomicRing::SolveTagTrusted(Scalar f0, Scalar g0) const {
  if (g0 == 0)
    return Status::InvalidArgument(
        "SolveTagTrusted: constant coefficient of children product is zero; "
        "full reconstruction required");
  // Wrap-free case of Eq. (3)'s last equation: f_0 = -t * g_0.
  ASSIGN_OR_RETURN(uint64_t g0_inv, field_.Inv(g0));
  uint64_t t = field_.Mul(field_.Neg(field_.FromUInt64(f0)), g0_inv);
  if (t == 0)
    return Status::VerificationFailed("SolveTagTrusted: tag resolved to 0");
  return t;
}

Result<FpCyclotomicRing::Scalar> FpCyclotomicRing::DeserializeScalar(
    ByteReader* in) const {
  ASSIGN_OR_RETURN(uint64_t v, in->GetVarint64());
  if (!field_.IsCanonical(v))
    return Status::Corruption("scalar outside field");
  return v;
}

Result<FpPoly> FpCyclotomicRing::Deserialize(ByteReader* in) const {
  std::vector<uint64_t> coeffs;
  RETURN_IF_ERROR(DeserializeCoeffs(in, &coeffs));
  return FpPoly::FromCanonical(field_, std::move(coeffs));
}

Status FpCyclotomicRing::DeserializeCoeffs(
    ByteReader* in, std::vector<uint64_t>* coeffs) const {
  RETURN_IF_ERROR(FpPoly::DeserializeCoeffs(field_, in, coeffs));
  if (coeffs->size() > DenseCoeffCount())
    return Status::Corruption("ring element degree exceeds p-2");
  return Status::Ok();
}

size_t FpCyclotomicRing::DenseModelBytes() const {
  size_t bits_per_coeff = 64 - __builtin_clzll(field_.modulus());
  return DenseCoeffCount() * ((bits_per_coeff + 7) / 8);
}

}  // namespace polysse
