// Shamir's secret sharing over F_p [Shamir 1979], the building block the
// paper's §3 uses to introduce secure multi-party computation and the basis
// of the k-of-n multi-server extension of §4.2.
#ifndef POLYSSE_MPC_SHAMIR_H_
#define POLYSSE_MPC_SHAMIR_H_

#include <cstdint>
#include <span>
#include <vector>

#include "crypto/chacha20.h"
#include "field/prime_field.h"
#include "field/simd_eval.h"
#include "util/status.h"

namespace polysse {

/// Lagrange interpolation coefficients at x = 0: weights w_i such that
/// g(0) = sum_i w_i * g(x_i) for every polynomial g of degree < xs.size().
/// The xs must be distinct and nonzero. This is the client-side combiner of
/// the t-of-n multi-server scheme — it applies equally to share *values*
/// and, coefficient-wise, to whole share polynomials.
Result<std::vector<uint64_t>> LagrangeWeightsAtZero(
    const PrimeField& field, std::span<const uint64_t> xs);

/// One party's share: the evaluation point x (party index, nonzero) and the
/// polynomial value y = g(x).
struct ShamirShare {
  uint64_t x = 0;
  uint64_t y = 0;

  bool operator==(const ShamirShare& o) const { return x == o.x && y == o.y; }
};

/// t-of-n sharing: any t shares reconstruct, t-1 reveal nothing.
class ShamirScheme {
 public:
  /// threshold = number of shares required to reconstruct (the hidden
  /// polynomial has degree threshold-1). Requires 1 <= threshold <= n < p.
  static Result<ShamirScheme> Create(const PrimeField& field, int threshold,
                                     int num_parties);

  const PrimeField& field() const { return field_; }
  int threshold() const { return threshold_; }
  int num_parties() const { return num_parties_; }

  /// Splits `secret` into n shares at x = 1..n, using a random polynomial g
  /// with g(0) = secret.
  std::vector<ShamirShare> Share(uint64_t secret, ChaChaRng& rng) const;

  /// Lagrange interpolation at 0. Needs at least `threshold` shares with
  /// distinct x; extra shares participate (and would expose inconsistency as
  /// a wrong result — use ReconstructChecked to detect).
  Result<uint64_t> Reconstruct(std::vector<ShamirShare> shares) const;

  /// Reconstructs from every threshold-sized subset prefix and verifies all
  /// remaining shares lie on the interpolated polynomial; VerificationFailed
  /// on any inconsistency (cheating party detection for honest majorities).
  Result<uint64_t> ReconstructChecked(std::vector<ShamirShare> shares) const;

  /// Pointwise share addition: shares of a+b from shares of a and b at the
  /// same x (the linearity that makes the §3 sum-vote protocol work).
  Result<ShamirShare> AddShares(const ShamirShare& a, const ShamirShare& b) const;
  /// Pointwise multiplication; the hidden polynomial degree doubles, so the
  /// product needs 2*threshold-1 shares to reconstruct (§3 veto vote).
  Result<ShamirShare> MulShares(const ShamirShare& a, const ShamirShare& b) const;

 private:
  ShamirScheme(const PrimeField& field, int threshold, int num_parties);

  PrimeField field_;
  int threshold_;
  int num_parties_;
  /// x^0 .. x^{threshold-1} at every party point x = 1..n: Share evaluates
  /// its polynomial as one dot product per party.
  PointPowers parties_;
};

/// n-of-n additive sharing over F_p: the degenerate scheme the paper's §4.2
/// client/server split instantiates with n = 2.
class AdditiveSharing {
 public:
  explicit AdditiveSharing(const PrimeField& field) : field_(field) {}

  /// n uniformly random values summing to `secret`.
  std::vector<uint64_t> Split(uint64_t secret, int n, ChaChaRng& rng) const;
  /// Sum of all shares.
  uint64_t Reconstruct(const std::vector<uint64_t>& shares) const;

 private:
  PrimeField field_;
};

}  // namespace polysse

#endif  // POLYSSE_MPC_SHAMIR_H_
