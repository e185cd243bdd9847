#include "ring/z_quotient_ring.h"

#include "nt/primes.h"
#include "util/check.h"

namespace polysse {

namespace {

/// The element with coefficient row `row`, for the row entry points that
/// reuse the element arithmetic.
ZPoly FromRow(std::span<const BigInt> row) {
  return ZPoly(std::vector<BigInt>(row.begin(), row.end()));
}

}  // namespace

Result<ZQuotientRing> ZQuotientRing::Create(ZPoly r, bool trust_irreducible) {
  if (r.degree() < 1)
    return Status::InvalidArgument("ZQuotientRing: modulus degree must be >= 1");
  if (!r.IsMonic())
    return Status::InvalidArgument(
        "ZQuotientRing: modulus must be monic so reduction stays in Z[x]");
  if (!trust_irreducible && !IsProbablyIrreducibleOverZ(r))
    return Status::InvalidArgument(
        "ZQuotientRing: could not certify irreducibility of " + r.ToString() +
        "; pass trust_irreducible if it was established externally");
  return ZQuotientRing(std::move(r));
}

Result<ZPoly> ZQuotientRing::XMinus(uint64_t t) const {
  if (t < 1)
    return Status::InvalidArgument("tag values start at 1 (0 is reserved)");
  return ZPoly::XMinus(BigInt::FromUInt64(t));
}

ZPoly ZQuotientRing::Mul(const Elem& a, const Elem& b) const {
  auto reduced = (a * b).ModMonic(r_);
  POLYSSE_CHECK(reduced.ok());  // r_ validated monic at construction
  return std::move(*reduced);
}

void ZQuotientRing::MulInto(std::span<const BigInt> a,
                            std::span<const BigInt> b,
                            std::vector<BigInt>* out) const {
  *out = Mul(FromRow(a), FromRow(b)).coeffs();
}

Result<uint64_t> ZQuotientRing::QueryModulus(uint64_t e) const {
  BigInt m = r_.Eval(BigInt::FromUInt64(e));
  if (m.sign() <= 0 || m < BigInt(2))
    return Status::InvalidArgument("r(e) < 2: evaluation filter degenerate at e=" +
                                   std::to_string(e));
  auto m64 = m.ToInt64();
  if (!m64.ok())
    return Status::OutOfRange("r(e) exceeds 64 bits at e=" + std::to_string(e));
  return static_cast<uint64_t>(*m64);
}

Result<uint64_t> ZQuotientRing::EvalAt(const Elem& a, uint64_t e) const {
  ASSIGN_OR_RETURN(uint64_t m, QueryModulus(e));
  return a.EvalModU64(e, m);
}

Result<ZQuotientRing::Evaluator> ZQuotientRing::MakeEvaluator(
    std::span<const uint64_t> points) const {
  Evaluator ev;
  ev.points_.assign(points.begin(), points.end());
  ev.moduli_.reserve(points.size());
  for (uint64_t e : points) {
    ASSIGN_OR_RETURN(uint64_t m, QueryModulus(e));
    ev.moduli_.push_back(m);
  }
  return ev;
}

Result<uint64_t> ZQuotientRing::SolveTag(const Elem& f, const Elem& g) const {
  if (g.IsZero())
    return Status::VerificationFailed(
        "SolveTag: children product is zero — impossible in an integral domain");
  // t * g = x*g - f over Z[x]/(r)   (Eq. 2).
  const Elem xg = Mul(ZPoly::Monomial(BigInt(1), 1), g);
  const Elem h = xg - f;
  size_t pivot = 0;
  while (pivot < g.coeffs().size() && g.coeff(pivot).is_zero()) ++pivot;
  POLYSSE_DCHECK(pivot < g.coeffs().size());
  auto t_big = h.coeff(pivot).DivExact(g.coeff(pivot));
  if (!t_big.ok())
    return Status::VerificationFailed(
        "SolveTag: pivot equation has no integer solution — server answer "
        "rejected");
  if (g.ScalarMul(*t_big) != h)
    return Status::VerificationFailed(
        "SolveTag: coefficient equations inconsistent — server answer rejected");
  if (t_big->sign() <= 0)
    return Status::VerificationFailed("SolveTag: reconstructed tag not positive");
  auto t = t_big->ToInt64();
  if (!t.ok())
    return Status::VerificationFailed("SolveTag: reconstructed tag out of range");
  return static_cast<uint64_t>(*t);
}

Result<uint64_t> ZQuotientRing::SolveTag(std::span<const BigInt> f,
                                         std::span<const BigInt> g) const {
  return SolveTag(FromRow(f), FromRow(g));
}

Result<uint64_t> ZQuotientRing::SolveTagTrusted(const BigInt& f0,
                                                const BigInt& g0) const {
  if (g0.is_zero())
    return Status::InvalidArgument(
        "SolveTagTrusted: zero constant coefficient; full reconstruction "
        "required");
  // Wrap-free case of Eq. (3)'s last equation over Z: f_0 = -t * g_0.
  auto t_big = (-f0).DivExact(g0);
  if (!t_big.ok())
    return Status::VerificationFailed(
        "SolveTagTrusted: constant equation has no integer solution");
  if (t_big->sign() <= 0)
    return Status::VerificationFailed("SolveTagTrusted: tag not positive");
  auto t = t_big->ToInt64();
  if (!t.ok()) return Status::VerificationFailed("SolveTagTrusted: out of range");
  return static_cast<uint64_t>(*t);
}

std::vector<uint64_t> ZQuotientRing::SafeTagValues(
    uint64_t limit, uint64_t max_tag_distance) const {
  std::vector<uint64_t> out;
  for (uint64_t t = 1; t <= limit; ++t) {
    auto m = QueryModulus(t);
    if (!m.ok()) continue;
    if (*m > max_tag_distance && IsPrime(*m)) out.push_back(t);
  }
  return out;
}

Result<ZPoly> ZQuotientRing::Deserialize(ByteReader* in) const {
  std::vector<BigInt> coeffs;
  RETURN_IF_ERROR(DeserializeCoeffs(in, &coeffs));
  return ZPoly(std::move(coeffs));
}

Status ZQuotientRing::DeserializeCoeffs(ByteReader* in,
                                        std::vector<BigInt>* coeffs) const {
  RETURN_IF_ERROR(ZPoly::DeserializeCoeffs(in, coeffs));
  if (coeffs->size() > DenseCoeffCount())
    return Status::Corruption("ring element degree exceeds deg(r) - 1");
  return Status::Ok();
}

}  // namespace polysse
