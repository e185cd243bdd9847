#include "poly/fp_poly.h"

#include <algorithm>
#include <ostream>

#include "poly/fp_conv.h"
#include "util/check.h"

namespace polysse {

FpPoly::FpPoly(const PrimeField& field, std::vector<int64_t> coeffs)
    : field_(field) {
  coeffs_.reserve(coeffs.size());
  for (int64_t c : coeffs) coeffs_.push_back(field_.FromInt64(c));
  Normalize();
}

FpPoly FpPoly::FromCanonical(const PrimeField& field,
                             std::vector<uint64_t> coeffs) {
#ifndef NDEBUG
  for (uint64_t c : coeffs) POLYSSE_DCHECK(field.IsCanonical(c));
#endif
  return FpPoly(field, std::move(coeffs));
}

FpPoly FpPoly::Constant(const PrimeField& field, uint64_t c) {
  return FpPoly(field, std::vector<uint64_t>{field.FromUInt64(c)});
}

FpPoly FpPoly::Monomial(const PrimeField& field, uint64_t c, size_t d) {
  std::vector<uint64_t> coeffs(d + 1, 0);
  coeffs[d] = field.FromUInt64(c);
  return FpPoly(field, std::move(coeffs));
}

FpPoly FpPoly::XMinus(const PrimeField& field, uint64_t root) {
  return FpPoly(field,
                std::vector<uint64_t>{field.Neg(field.FromUInt64(root)), 1});
}

FpPoly FpPoly::operator+(const FpPoly& rhs) const {
  POLYSSE_DCHECK(field_ == rhs.field_);
  std::vector<uint64_t> out(std::max(coeffs_.size(), rhs.coeffs_.size()), 0);
  for (size_t i = 0; i < out.size(); ++i)
    out[i] = field_.Add(coeff(i), rhs.coeff(i));
  return FpPoly(field_, std::move(out));
}

FpPoly FpPoly::operator-(const FpPoly& rhs) const {
  POLYSSE_DCHECK(field_ == rhs.field_);
  std::vector<uint64_t> out(std::max(coeffs_.size(), rhs.coeffs_.size()), 0);
  for (size_t i = 0; i < out.size(); ++i)
    out[i] = field_.Sub(coeff(i), rhs.coeff(i));
  return FpPoly(field_, std::move(out));
}

FpPoly FpPoly::operator*(const FpPoly& rhs) const {
  POLYSSE_DCHECK(field_ == rhs.field_);
  if (IsZero() || rhs.IsZero()) return Zero(field_);
  std::vector<uint64_t> out;
  ConvolveInto(field_, coeffs_, rhs.coeffs_, &out);
  return FpPoly(field_, std::move(out));
}

FpPoly FpPoly::operator-() const {
  std::vector<uint64_t> out(coeffs_.size());
  for (size_t i = 0; i < coeffs_.size(); ++i) out[i] = field_.Neg(coeffs_[i]);
  return FpPoly(field_, std::move(out));
}

FpPoly FpPoly::ScalarMul(uint64_t s) const {
  s = field_.FromUInt64(s);
  std::vector<uint64_t> out(coeffs_.size());
  for (size_t i = 0; i < coeffs_.size(); ++i) out[i] = field_.Mul(coeffs_[i], s);
  return FpPoly(field_, std::move(out));
}

FpPoly FpPoly::ShiftUp(size_t k) const {
  if (IsZero()) return *this;
  std::vector<uint64_t> out(coeffs_.size() + k, 0);
  std::copy(coeffs_.begin(), coeffs_.end(), out.begin() + k);
  return FpPoly(field_, std::move(out));
}

bool FpPoly::operator==(const FpPoly& rhs) const {
  return field_ == rhs.field_ && coeffs_ == rhs.coeffs_;
}

uint64_t FpPoly::Eval(uint64_t x) const {
  return field_.HornerEval(coeffs_, x);
}

Result<std::pair<FpPoly, FpPoly>> FpPoly::DivRem(const FpPoly& divisor) const {
  POLYSSE_DCHECK(field_ == divisor.field_);
  if (divisor.IsZero())
    return Status::InvalidArgument("FpPoly::DivRem: division by zero polynomial");
  if (degree() < divisor.degree())
    return std::pair<FpPoly, FpPoly>{Zero(field_), *this};

  ASSIGN_OR_RETURN(uint64_t lead_inv, field_.Inv(divisor.LeadingCoeff()));
  std::vector<uint64_t> rem = coeffs_;
  const int dq = degree() - divisor.degree();
  std::vector<uint64_t> quot(dq + 1, 0);
  for (int k = dq; k >= 0; --k) {
    uint64_t factor =
        field_.Mul(rem[k + divisor.degree()], lead_inv);
    quot[k] = factor;
    if (factor == 0) continue;
    for (int i = 0; i <= divisor.degree(); ++i) {
      rem[k + i] =
          field_.Sub(rem[k + i], field_.Mul(factor, divisor.coeff(i)));
    }
  }
  return std::pair<FpPoly, FpPoly>{FpPoly(field_, std::move(quot)),
                                   FpPoly(field_, std::move(rem))};
}

Result<FpPoly> FpPoly::Mod(const FpPoly& divisor) const {
  ASSIGN_OR_RETURN(auto qr, DivRem(divisor));
  return std::move(qr.second);
}

FpPoly FpPoly::Monic() const {
  if (IsZero()) return *this;
  auto inv = field_.Inv(LeadingCoeff());
  POLYSSE_CHECK(inv.ok());  // nonzero leading coeff in a field is invertible
  return ScalarMul(*inv);
}

FpPoly FpPoly::Gcd(FpPoly a, FpPoly b) {
  while (!b.IsZero()) {
    auto rem = a.Mod(b);
    POLYSSE_CHECK(rem.ok());  // b nonzero here
    a = std::move(b);
    b = std::move(*rem);
  }
  return a.Monic();
}

Result<FpPoly> FpPoly::Interpolate(
    const PrimeField& field,
    const std::vector<std::pair<uint64_t, uint64_t>>& points) {
  for (size_t i = 0; i < points.size(); ++i) {
    for (size_t j = i + 1; j < points.size(); ++j) {
      if (field.FromUInt64(points[i].first) == field.FromUInt64(points[j].first))
        return Status::InvalidArgument("Interpolate: duplicate x coordinate");
    }
  }
  FpPoly acc = Zero(field);
  for (size_t i = 0; i < points.size(); ++i) {
    // Lagrange basis L_i = prod_{j != i} (x - x_j) / (x_i - x_j).
    FpPoly basis = One(field);
    uint64_t denom = 1;
    uint64_t xi = field.FromUInt64(points[i].first);
    for (size_t j = 0; j < points.size(); ++j) {
      if (j == i) continue;
      uint64_t xj = field.FromUInt64(points[j].first);
      basis = basis * XMinus(field, xj);
      denom = field.Mul(denom, field.Sub(xi, xj));
    }
    ASSIGN_OR_RETURN(uint64_t denom_inv, field.Inv(denom));
    acc = acc + basis.ScalarMul(
                    field.Mul(field.FromUInt64(points[i].second), denom_inv));
  }
  return acc;
}

Result<FpPoly> MulMod(const FpPoly& a, const FpPoly& b, const FpPoly& m) {
  return (a * b).Mod(m);
}

Result<FpPoly> PowMod(const FpPoly& base, uint64_t e, const FpPoly& m) {
  ASSIGN_OR_RETURN(FpPoly acc_base, base.Mod(m));
  FpPoly acc = FpPoly::One(base.field());
  while (e > 0) {
    if (e & 1) {
      ASSIGN_OR_RETURN(acc, MulMod(acc, acc_base, m));
    }
    e >>= 1;
    if (e) {
      ASSIGN_OR_RETURN(acc_base, MulMod(acc_base, acc_base, m));
    }
  }
  return acc;
}

bool FpPoly::IsIrreducible() const {
  // Rabin's test: f of degree n is irreducible over F_p iff
  //   x^{p^n} == x (mod f), and
  //   gcd(x^{p^{n/q}} - x, f) == 1 for every prime q | n.
  const int n = degree();
  if (n <= 0) return false;
  if (n == 1) return true;
  const uint64_t p = field_.modulus();
  const FpPoly x = Monomial(field_, 1, 1);

  // Distinct prime factors of n (n is small: it is a polynomial degree).
  std::vector<int> prime_factors;
  int m = n;
  for (int q = 2; q * q <= m; ++q) {
    if (m % q == 0) {
      prime_factors.push_back(q);
      while (m % q == 0) m /= q;
    }
  }
  if (m > 1) prime_factors.push_back(m);

  // x^{p^k} mod f by repeated Frobenius power.
  auto frobenius_power = [&](int k) -> Result<FpPoly> {
    FpPoly acc = x;
    for (int i = 0; i < k; ++i) {
      ASSIGN_OR_RETURN(acc, PowMod(acc, p, *this));
    }
    return acc;
  };

  auto xpn = frobenius_power(n);
  if (!xpn.ok()) return false;
  if (!(*xpn == x.Mod(*this).value_or(x))) return false;

  for (int q : prime_factors) {
    auto xpk = frobenius_power(n / q);
    if (!xpk.ok()) return false;
    FpPoly g = Gcd(*this, *xpk - x);
    if (g.degree() != 0) return false;
  }
  return true;
}

void FpPoly::Serialize(ByteWriter* out) const { SerializeCoeffs(coeffs_, out); }

void FpPoly::SerializeCoeffs(std::span<const uint64_t> coeffs,
                             ByteWriter* out) {
  size_t n = coeffs.size();
  while (n > 0 && coeffs[n - 1] == 0) --n;
  out->PutVarint64(n);
  out->PutVarints(coeffs.first(n));
}

Result<FpPoly> FpPoly::Deserialize(const PrimeField& field, ByteReader* in) {
  std::vector<uint64_t> coeffs;
  RETURN_IF_ERROR(DeserializeCoeffs(field, in, &coeffs));
  return FpPoly(field, std::move(coeffs));
}

Status FpPoly::DeserializeCoeffs(const PrimeField& field, ByteReader* in,
                                 std::vector<uint64_t>* coeffs) {
  ASSIGN_OR_RETURN(uint64_t n, in->GetVarint64());
  if (n > (1ull << 32))
    return Status::Corruption("FpPoly: absurd coefficient count");
  // Each coefficient is at least one varint byte, so a count beyond the
  // bytes left is corrupt — and must not size the allocation below.
  if (n > in->remaining())
    return Status::Corruption("FpPoly: coefficient count exceeds remaining bytes");
  coeffs->assign(n, 0);
  const Status read = in->GetVarints(*coeffs);
  // The refusal a coefficient-by-coefficient read gives: a coefficient >= p
  // before the first bad varint is reported first. On a failed read the
  // unread tail is still 0, so scanning the whole vector finds exactly the
  // coefficients read before the failure.
  uint64_t largest = 0;
  for (uint64_t c : *coeffs) largest = std::max(largest, c);
  if (!field.IsCanonical(largest))
    return Status::Corruption("FpPoly: coefficient outside field");
  RETURN_IF_ERROR(read);
  while (!coeffs->empty() && coeffs->back() == 0) coeffs->pop_back();
  return Status::Ok();
}

size_t FpPoly::SerializedSize() const {
  ByteWriter w;
  Serialize(&w);
  return w.size();
}

std::string FpPoly::ToString() const {
  if (IsZero()) return "0";
  std::string out;
  for (size_t i = coeffs_.size(); i-- > 0;) {
    uint64_t c = coeffs_[i];
    if (c == 0) continue;
    if (!out.empty()) out += " + ";
    if (i == 0) {
      out += std::to_string(c);
    } else {
      if (c != 1) out += std::to_string(c);
      out += "x";
      if (i > 1) {
        out += "^";
        out += std::to_string(i);
      }
    }
  }
  return out;
}

std::ostream& operator<<(std::ostream& os, const FpPoly& p) {
  return os << p.ToString();
}

}  // namespace polysse
