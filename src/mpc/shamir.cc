#include "mpc/shamir.h"

#include <algorithm>

#include "poly/fp_poly.h"
#include "util/check.h"

namespace polysse {

Result<std::vector<uint64_t>> LagrangeWeightsAtZero(
    const PrimeField& field, std::span<const uint64_t> xs) {
  std::vector<uint64_t> weights(xs.size());
  for (size_t i = 0; i < xs.size(); ++i) {
    if (xs[i] == 0 || xs[i] >= field.modulus())
      return Status::InvalidArgument("Lagrange: invalid x coordinate");
    uint64_t num = 1, den = 1;
    for (size_t j = 0; j < xs.size(); ++j) {
      if (i == j) continue;
      num = field.Mul(num, field.Neg(field.FromUInt64(xs[j])));  // (0 - x_j)
      den = field.Mul(den, field.Sub(field.FromUInt64(xs[i]),
                                     field.FromUInt64(xs[j])));
    }
    if (den == 0)
      return Status::InvalidArgument("Lagrange: duplicate x coordinate");
    ASSIGN_OR_RETURN(weights[i], field.Div(num, den));
  }
  return weights;
}

Result<ShamirScheme> ShamirScheme::Create(const PrimeField& field,
                                          int threshold, int num_parties) {
  if (threshold < 1)
    return Status::InvalidArgument("Shamir: threshold must be >= 1");
  if (num_parties < threshold)
    return Status::InvalidArgument("Shamir: need at least `threshold` parties");
  if (static_cast<uint64_t>(num_parties) >= field.modulus())
    return Status::InvalidArgument(
        "Shamir: party count must be below the field modulus");
  return ShamirScheme(field, threshold, num_parties);
}

namespace {

std::vector<uint64_t> PartyPoints(int num_parties) {
  std::vector<uint64_t> xs(num_parties);
  for (int i = 0; i < num_parties; ++i) xs[i] = static_cast<uint64_t>(i + 1);
  return xs;
}

}  // namespace

ShamirScheme::ShamirScheme(const PrimeField& field, int threshold,
                           int num_parties)
    : field_(field),
      threshold_(threshold),
      num_parties_(num_parties),
      parties_(field, PartyPoints(num_parties),
               static_cast<size_t>(threshold)) {}

std::vector<ShamirShare> ShamirScheme::Share(uint64_t secret,
                                             ChaChaRng& rng) const {
  // g(x) = secret + c_1 x + ... + c_{t-1} x^{t-1}, c_i uniform.
  std::vector<uint64_t> coeffs(threshold_);
  coeffs[0] = field_.FromUInt64(secret);
  for (int i = 1; i < threshold_; ++i) coeffs[i] = field_.Uniform(rng);

  // Party x = i+1 gets g(x): one dot product against its row of powers.
  std::vector<ShamirShare> shares(num_parties_);
  for (int i = 0; i < num_parties_; ++i)
    shares[i] = {static_cast<uint64_t>(i + 1), parties_.Eval(coeffs, i)};
  return shares;
}

Result<uint64_t> ShamirScheme::Reconstruct(std::vector<ShamirShare> shares) const {
  if (static_cast<int>(shares.size()) < threshold_)
    return Status::InvalidArgument(
        "Shamir: fewer shares than the reconstruction threshold");
  for (size_t i = 0; i < shares.size(); ++i) {
    if (shares[i].x == 0 || shares[i].x >= field_.modulus())
      return Status::InvalidArgument("Shamir: share with invalid x coordinate");
    for (size_t j = i + 1; j < shares.size(); ++j) {
      if (shares[i].x == shares[j].x)
        return Status::InvalidArgument("Shamir: duplicate share x coordinate");
    }
  }
  // Lagrange interpolation evaluated at 0 over the first `threshold_` shares.
  shares.resize(threshold_);
  uint64_t secret = 0;
  for (int i = 0; i < threshold_; ++i) {
    uint64_t num = 1, den = 1;
    for (int j = 0; j < threshold_; ++j) {
      if (i == j) continue;
      num = field_.Mul(num, field_.Neg(shares[j].x));           // (0 - x_j)
      den = field_.Mul(den, field_.Sub(shares[i].x, shares[j].x));
    }
    ASSIGN_OR_RETURN(uint64_t den_inv, field_.Inv(den));
    secret = field_.Add(
        secret, field_.Mul(shares[i].y, field_.Mul(num, den_inv)));
  }
  return secret;
}

Result<uint64_t> ShamirScheme::ReconstructChecked(
    std::vector<ShamirShare> shares) const {
  ASSIGN_OR_RETURN(uint64_t secret,
                   Reconstruct(shares));  // validates inputs, uses first t
  if (static_cast<int>(shares.size()) == threshold_) return secret;
  // Interpolate the full polynomial from the first t shares and verify the
  // remaining shares lie on it.
  std::vector<std::pair<uint64_t, uint64_t>> points;
  for (int i = 0; i < threshold_; ++i)
    points.emplace_back(shares[i].x, shares[i].y);
  ASSIGN_OR_RETURN(FpPoly g, FpPoly::Interpolate(field_, points));
  for (size_t i = threshold_; i < shares.size(); ++i) {
    if (g.Eval(shares[i].x) != shares[i].y)
      return Status::VerificationFailed(
          "Shamir: share at x=" + std::to_string(shares[i].x) +
          " is inconsistent with the others");
  }
  return secret;
}

Result<ShamirShare> ShamirScheme::AddShares(const ShamirShare& a,
                                            const ShamirShare& b) const {
  if (a.x != b.x)
    return Status::InvalidArgument("AddShares: shares from different parties");
  return ShamirShare{a.x, field_.Add(a.y, b.y)};
}

Result<ShamirShare> ShamirScheme::MulShares(const ShamirShare& a,
                                            const ShamirShare& b) const {
  if (a.x != b.x)
    return Status::InvalidArgument("MulShares: shares from different parties");
  return ShamirShare{a.x, field_.Mul(a.y, b.y)};
}

std::vector<uint64_t> AdditiveSharing::Split(uint64_t secret, int n,
                                             ChaChaRng& rng) const {
  POLYSSE_CHECK(n >= 1);
  std::vector<uint64_t> shares(n);
  uint64_t sum = 0;
  for (int i = 1; i < n; ++i) {
    shares[i] = field_.Uniform(rng);
    sum = field_.Add(sum, shares[i]);
  }
  shares[0] = field_.Sub(field_.FromUInt64(secret), sum);
  return shares;
}

uint64_t AdditiveSharing::Reconstruct(const std::vector<uint64_t>& shares) const {
  uint64_t sum = 0;
  for (uint64_t s : shares) sum = field_.Add(sum, s);
  return sum;
}

}  // namespace polysse
