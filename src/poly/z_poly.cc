#include "poly/z_poly.h"

#include <algorithm>
#include <atomic>
#include <ostream>
#include <utility>

#include "nt/primes.h"
#include "poly/fp_poly.h"
#include "poly/karatsuba.h"
#include "util/check.h"

namespace polysse {

ZPoly::ZPoly(std::initializer_list<int64_t> coeffs) {
  coeffs_.reserve(coeffs.size());
  for (int64_t c : coeffs) coeffs_.emplace_back(c);
  Normalize();
}

ZPoly ZPoly::Constant(BigInt c) {
  std::vector<BigInt> v;
  v.push_back(std::move(c));
  return ZPoly(std::move(v));
}

ZPoly ZPoly::Monomial(BigInt c, size_t d) {
  std::vector<BigInt> v(d + 1);
  v[d] = std::move(c);
  return ZPoly(std::move(v));
}

ZPoly ZPoly::XMinus(const BigInt& root) {
  std::vector<BigInt> v;
  v.push_back(-root);
  v.push_back(BigInt(1));
  return ZPoly(std::move(v));
}

ZPoly ZPoly::operator+(const ZPoly& rhs) const {
  std::vector<BigInt> out(std::max(coeffs_.size(), rhs.coeffs_.size()));
  for (size_t i = 0; i < out.size(); ++i) out[i] = coeff(i) + rhs.coeff(i);
  return ZPoly(std::move(out));
}

ZPoly ZPoly::operator-(const ZPoly& rhs) const {
  std::vector<BigInt> out(std::max(coeffs_.size(), rhs.coeffs_.size()));
  for (size_t i = 0; i < out.size(); ++i) out[i] = coeff(i) - rhs.coeff(i);
  return ZPoly(std::move(out));
}

namespace {

// Crossover between schoolbook and Karatsuba for BigInt coefficients.
// Karatsuba trades one coefficient multiplication for a handful of
// additions, which only pays once coefficients outgrow a few limbs; the
// default is tuned on the ring_ops microbench (see BENCH.md).
constexpr size_t kDefaultZKaratsubaThreshold = 16;

// Relaxed atomics for the same reason as the F_p knobs (fp_conv.cc): tests
// flip them while pooled executors may be mid-multiply.
std::atomic<ZMulPath> g_z_mul_path{ZMulPath::kFast};
std::atomic<size_t> g_z_karatsuba_threshold{kDefaultZKaratsubaThreshold};

std::vector<BigInt> ZConvSchoolbook(std::span<const BigInt> a,
                                    std::span<const BigInt> b) {
  std::vector<BigInt> out(a.size() + b.size() - 1);
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].is_zero()) continue;
    for (size_t j = 0; j < b.size(); ++j) {
      out[i + j] += a[i] * b[j];
    }
  }
  return out;
}

/// Adapter feeding the shared Karatsuba skeleton (poly/karatsuba.h) plain
/// BigInt ring ops with the quadratic kernel as base case.
struct ZKaratsubaOps {
  std::vector<BigInt> Schoolbook(std::span<const BigInt> a,
                                 std::span<const BigInt> b) const {
    return ZConvSchoolbook(a, b);
  }
  BigInt Add(const BigInt& x, const BigInt& y) const { return x + y; }
  BigInt Sub(const BigInt& x, const BigInt& y) const { return x - y; }
};

}  // namespace

ZMulPath SetZMulPath(ZMulPath path) {
  return g_z_mul_path.exchange(path, std::memory_order_relaxed);
}

ZMulPath GetZMulPath() {
  return g_z_mul_path.load(std::memory_order_relaxed);
}

size_t SetZKaratsubaThreshold(size_t threshold) {
  return g_z_karatsuba_threshold.exchange(
      threshold == 0 ? kDefaultZKaratsubaThreshold : threshold,
      std::memory_order_relaxed);
}

size_t GetZKaratsubaThreshold() {
  return g_z_karatsuba_threshold.load(std::memory_order_relaxed);
}

ZPoly MulSchoolbook(const ZPoly& a, const ZPoly& b) {
  if (a.IsZero() || b.IsZero()) return ZPoly::Zero();
  return ZPoly(ZConvSchoolbook(a.coeffs(), b.coeffs()));
}

ZPoly ZPoly::operator*(const ZPoly& rhs) const {
  if (IsZero() || rhs.IsZero()) return Zero();
  if (GetZMulPath() == ZMulPath::kReference)
    return ZPoly(ZConvSchoolbook(coeffs_, rhs.coeffs_));
  return ZPoly(KaratsubaMul(ZKaratsubaOps{},
                            std::span<const BigInt>(coeffs_),
                            std::span<const BigInt>(rhs.coeffs_),
                            GetZKaratsubaThreshold()));
}

ZPoly ZPoly::operator-() const {
  std::vector<BigInt> out(coeffs_.size());
  for (size_t i = 0; i < coeffs_.size(); ++i) out[i] = -coeffs_[i];
  return ZPoly(std::move(out));
}

ZPoly ZPoly::ScalarMul(const BigInt& s) const {
  std::vector<BigInt> out(coeffs_.size());
  for (size_t i = 0; i < coeffs_.size(); ++i) out[i] = coeffs_[i] * s;
  return ZPoly(std::move(out));
}

BigInt ZPoly::Eval(const BigInt& x) const {
  BigInt acc;
  for (size_t i = coeffs_.size(); i-- > 0;) {
    acc = acc * x + coeffs_[i];
  }
  return acc;
}

uint64_t ZPoly::EvalModU64(std::span<const BigInt> coeffs, uint64_t x,
                          uint64_t m) {
  POLYSSE_CHECK(m != 0);
  if (m == 1) return 0;
  const uint64_t xr = x % m;
  unsigned __int128 acc = 0;
  for (size_t i = coeffs.size(); i-- > 0;) {
    acc = (acc * xr + coeffs[i].ModU64(m)) % m;
  }
  return static_cast<uint64_t>(acc);
}

Result<std::pair<ZPoly, ZPoly>> ZPoly::DivRemByMonic(const ZPoly& divisor) const {
  if (divisor.IsZero())
    return Status::InvalidArgument("ZPoly::DivRemByMonic: zero divisor");
  if (!divisor.IsMonic())
    return Status::InvalidArgument(
        "ZPoly::DivRemByMonic: divisor must be monic to stay in Z[x]");
  if (degree() < divisor.degree())
    return std::pair<ZPoly, ZPoly>{Zero(), *this};

  std::vector<BigInt> rem = coeffs_;
  const int dq = degree() - divisor.degree();
  std::vector<BigInt> quot(dq + 1);
  for (int k = dq; k >= 0; --k) {
    BigInt factor = rem[k + divisor.degree()];
    quot[k] = factor;
    if (factor.is_zero()) continue;
    for (int i = 0; i <= divisor.degree(); ++i) {
      rem[k + i] -= factor * divisor.coeff(i);
    }
  }
  return std::pair<ZPoly, ZPoly>{ZPoly(std::move(quot)), ZPoly(std::move(rem))};
}

Result<ZPoly> ZPoly::ModMonic(const ZPoly& divisor) const {
  ASSIGN_OR_RETURN(auto qr, DivRemByMonic(divisor));
  return std::move(qr.second);
}

size_t ZPoly::MaxCoeffBits() const {
  size_t bits = 0;
  for (const BigInt& c : coeffs_) bits = std::max(bits, c.BitLength());
  return bits;
}

void ZPoly::SerializeCoeffs(std::span<const BigInt> coeffs,
                            ByteWriter* out) {
  size_t n = coeffs.size();
  while (n > 0 && coeffs[n - 1].is_zero()) --n;
  out->PutVarint64(n);
  for (const BigInt& c : coeffs.first(n)) c.Serialize(out);
}

Result<ZPoly> ZPoly::Deserialize(ByteReader* in) {
  std::vector<BigInt> coeffs;
  RETURN_IF_ERROR(DeserializeCoeffs(in, &coeffs));
  return ZPoly(std::move(coeffs));
}

Status ZPoly::DeserializeCoeffs(ByteReader* in, std::vector<BigInt>* coeffs) {
  ASSIGN_OR_RETURN(uint64_t n, in->GetVarint64());
  if (n > (1ull << 32))
    return Status::Corruption("ZPoly: absurd coefficient count");
  // Each serialized BigInt is at least one byte, so a coefficient count
  // past the bytes left can only be a corrupt length — reject it before
  // the resize becomes a multi-gigabyte allocation bomb.
  if (n > in->remaining())
    return Status::Corruption("ZPoly: coefficient count exceeds remaining bytes");
  coeffs->resize(n);
  for (BigInt& c : *coeffs) {
    ASSIGN_OR_RETURN(c, BigInt::Deserialize(in));
  }
  while (!coeffs->empty() && coeffs->back().is_zero()) coeffs->pop_back();
  return Status::Ok();
}

size_t ZPoly::SerializedSize() const {
  ByteWriter w;
  Serialize(&w);
  return w.size();
}

std::string ZPoly::ToString() const {
  if (IsZero()) return "0";
  std::string out;
  for (size_t i = coeffs_.size(); i-- > 0;) {
    const BigInt& c = coeffs_[i];
    if (c.is_zero()) continue;
    BigInt mag = c.Abs();
    if (out.empty()) {
      if (c.is_negative()) out += "-";
    } else {
      out += c.is_negative() ? " - " : " + ";
    }
    if (i == 0) {
      out += mag.ToString();
    } else {
      if (!mag.is_one()) out += mag.ToString();
      out += "x";
      if (i > 1) {
        out += "^";
        out += std::to_string(i);
      }
    }
  }
  return out;
}

bool IsProbablyIrreducibleOverZ(const ZPoly& r, int trials) {
  if (r.degree() <= 0) return false;
  if (!r.IsMonic()) return false;  // The library only admits monic moduli.
  if (r.degree() == 1) return true;
  uint64_t p = 3;
  for (int t = 0; t < trials; ++t) {
    auto field = PrimeField::Create(p);
    POLYSSE_CHECK(field.ok());
    std::vector<int64_t> reduced(r.degree() + 1);
    for (int i = 0; i <= r.degree(); ++i) {
      reduced[i] = static_cast<int64_t>(r.coeff(i).ModU64(p));
    }
    FpPoly rp(*field, reduced);
    // Degree must survive reduction (monic => it does) and be irreducible.
    if (rp.degree() == r.degree() && rp.IsIrreducible()) return true;
    p = NextPrime(p + 1);
  }
  return false;
}

std::ostream& operator<<(std::ostream& os, const ZPoly& p) {
  return os << p.ToString();
}

}  // namespace polysse
