// Differential battery for the ring-arithmetic fast path: every optimized
// kernel (Montgomery modular multiplication, Karatsuba convolution over F_p
// and Z, the cyclotomic exponent fold) is pitted against its plain reference
// on thousands of DeterministicRng-driven random cases, with the degree and
// coefficient extremes (empty, constant, p-1 coefficients, unreduced
// operands, unbalanced sizes) forced explicitly. Correctness of the
// optimized arithmetic is the whole risk of the fast path; this file is the
// gate.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

#include "bigint/bigint.h"
#include "field/prime_field.h"
#include "field/simd_eval.h"
#include "nt/modular.h"
#include "nt/ntt.h"
#include "poly/fp_conv.h"
#include "poly/fp_poly.h"
#include "poly/z_poly.h"
#include "ring/fp_cyclotomic_ring.h"
#include "ring/z_quotient_ring.h"
#include "testing/deterministic_rng.h"
#include "testing/mul_path_guards.h"
#include "testing/ring_generators.h"
#include "util/bytes.h"

namespace polysse {
namespace {

using testing::DeterministicRng;
using testing::DeterministicRngTest;
using testing::ScopedFpKaratsubaThreshold;
using testing::ScopedFpMulPath;
using testing::ScopedFpNttThreshold;
using testing::ScopedZKaratsubaThreshold;
using testing::ScopedZMulPath;

// Odd moduli spanning the library's whole word range: small primes, large
// primes (2^61-1 Mersenne, the largest prime below 2^63), and odd
// composites (Montgomery form does not require primality).
const uint64_t kOddModuli[] = {3,       5,          9,
                               101,     1009,       65537,
                               1000003, 1234567891, (1ull << 61) - 1,
                               9223372036854775783ull /* largest < 2^63 */};

// An adversarial operand: mostly uniform, sometimes pinned to an extreme
// (0, 1, m-1, m, m+1, 2^64-1) — unreduced values included on purpose.
uint64_t AdversarialU64(DeterministicRng& rng, uint64_t m) {
  switch (rng.UniformInt(0, 9)) {
    case 0: return 0;
    case 1: return 1;
    case 2: return m - 1;
    case 3: return m;           // == 0 mod m, but unreduced as an input
    case 4: return m + 1;       // unreduced
    case 5: return ~uint64_t{0};
    default: return rng.NextU64();
  }
}

class ArithDifferentialTest : public DeterministicRngTest {};

// ------------------------------------------------ Montgomery vs. plain --

TEST_F(ArithDifferentialTest, MontgomeryMulMatchesPlainMulMod) {
  for (uint64_t m : kOddModuli) {
    ASSERT_TRUE(Montgomery::Valid(m)) << m;
    const Montgomery mont(m);
    for (int iter = 0; iter < 500; ++iter) {
      const uint64_t a = AdversarialU64(rng(), m);
      const uint64_t b = AdversarialU64(rng(), m);
      const uint64_t want = MulMod(a % m, b % m, m);
      // Both operands in Montgomery form.
      EXPECT_EQ(mont.FromMont(mont.Mul(mont.ToMont(a), mont.ToMont(b))), want)
          << "m=" << m << " a=" << a << " b=" << b;
      // One-sided: Montgomery x plain lands directly in the plain domain.
      EXPECT_EQ(mont.Mul(mont.ToMont(a), b % m), want)
          << "m=" << m << " a=" << a << " b=" << b;
    }
  }
}

TEST_F(ArithDifferentialTest, MontgomeryRoundTripAnyOperand) {
  for (uint64_t m : kOddModuli) {
    const Montgomery mont(m);
    for (int iter = 0; iter < 200; ++iter) {
      const uint64_t a = AdversarialU64(rng(), m);
      EXPECT_EQ(mont.FromMont(mont.ToMont(a)), a % m) << "m=" << m << " a=" << a;
    }
  }
}

TEST_F(ArithDifferentialTest, MontgomeryPowMatchesNaivePow) {
  for (uint64_t m : kOddModuli) {
    const Montgomery mont(m);
    for (int iter = 0; iter < 120; ++iter) {
      const uint64_t a = AdversarialU64(rng(), m);
      const uint64_t e = rng().UniformInt(0, 4096);
      uint64_t naive = 1 % m;
      for (uint64_t i = 0; i < e; ++i) naive = MulMod(naive, a % m, m);
      EXPECT_EQ(mont.Pow(a, e), naive) << "m=" << m << " a=" << a << " e=" << e;
      EXPECT_EQ(PowMod(a, e, m), naive) << "m=" << m << " a=" << a << " e=" << e;
    }
  }
}

TEST_F(ArithDifferentialTest, AddSubModAcceptUnreducedOperands) {
  const uint64_t moduli[] = {2,    3,    101,  65537,
                             (1ull << 61) - 1, (1ull << 62) + 11};
  for (uint64_t m : moduli) {
    for (int iter = 0; iter < 300; ++iter) {
      const uint64_t a = AdversarialU64(rng(), m);
      const uint64_t b = AdversarialU64(rng(), m);
      const uint64_t ar = a % m, br = b % m;
      EXPECT_EQ(AddMod(a, b, m), (ar + br) % m) << "m=" << m;
      EXPECT_EQ(SubMod(a, b, m), (ar + m - br) % m) << "m=" << m;
    }
  }
}

// ------------------------------------- Karatsuba vs. schoolbook in F_p --

// Coefficient vector with adversarial values: uniform, but frequently 0 or
// the p-1 extreme, and occasionally a leading run of zeros.
std::vector<uint64_t> AdversarialCoeffs(DeterministicRng& rng,
                                        const PrimeField& f, size_t n) {
  std::vector<uint64_t> c(n);
  for (size_t i = 0; i < n; ++i) {
    switch (rng.UniformInt(0, 5)) {
      case 0: c[i] = 0; break;
      case 1: c[i] = f.modulus() - 1; break;
      default: c[i] = f.Uniform(rng); break;
    }
  }
  return c;
}

TEST_F(ArithDifferentialTest, FpConvolutionFastMatchesSchoolbook) {
  const uint64_t primes[] = {2, 5, 101, 65537, 1000003, (1ull << 61) - 1};
  int cases = 0;
  for (uint64_t p : primes) {
    const PrimeField f = PrimeField::Create(p).value();
    for (size_t threshold : {size_t{1}, size_t{2}, size_t{3}, size_t{8}, size_t{24}}) {
      const ScopedFpKaratsubaThreshold guard(threshold);
      for (int iter = 0; iter < 40; ++iter) {
        // Degree edges: empty through large, plus wildly unbalanced pairs.
        const size_t na = static_cast<size_t>(rng().UniformInt(0, 96));
        const size_t nb = rng().UniformInt(0, 3) == 0
                              ? static_cast<size_t>(rng().UniformInt(0, 2))
                              : static_cast<size_t>(rng().UniformInt(0, 96));
        const std::vector<uint64_t> a = AdversarialCoeffs(rng(), f, na);
        const std::vector<uint64_t> b = AdversarialCoeffs(rng(), f, nb);
        EXPECT_EQ(ConvolveFast(f, a, b), ConvolveSchoolbook(f, a, b))
            << "p=" << p << " threshold=" << threshold << " na=" << na
            << " nb=" << nb;
        ++cases;
      }
    }
  }
  EXPECT_GE(cases, 1000);
}

TEST_F(ArithDifferentialTest, FpPolyOperatorPathsAgree) {
  const PrimeField f = PrimeField::Create(1009).value();
  const ScopedFpKaratsubaThreshold guard(2);  // force deep recursion
  for (int iter = 0; iter < 200; ++iter) {
    std::vector<int64_t> ca(rng().UniformInt(0, 80));
    std::vector<int64_t> cb(rng().UniformInt(0, 80));
    for (auto& c : ca) c = static_cast<int64_t>(rng().NextU64() % 5000) - 2500;
    for (auto& c : cb) c = static_cast<int64_t>(rng().NextU64() % 5000) - 2500;
    const FpPoly a(f, ca), b(f, cb);
    FpPoly fast = FpPoly::Zero(f), ref = FpPoly::Zero(f);
    {
      const ScopedFpMulPath path(FpMulPath::kFast);
      fast = a * b;
    }
    {
      const ScopedFpMulPath path(FpMulPath::kReference);
      ref = a * b;
    }
    EXPECT_EQ(fast, ref) << "iter " << iter;
  }
}

// --------------------------------- NTT vs. Karatsuba vs. schoolbook in F_p --

TEST_F(ArithDifferentialTest, NttConvolutionMatchesKaratsubaAndSchoolbook) {
  // NTT-friendly moduli: p-1 divisible by a large power of two. With the NTT
  // threshold forced to 1, every kFast product of nonzero size routes through
  // the transform.
  const uint64_t primes[] = {257, 65537, 998244353};
  const ScopedFpNttThreshold ntt_guard(1);
  int cases = 0;
  for (uint64_t p : primes) {
    const PrimeField f = PrimeField::Create(p).value();
    ASSERT_GE(NttMaxLength(p), 256u) << p;
    for (int iter = 0; iter < 60; ++iter) {
      const size_t na = static_cast<size_t>(rng().UniformInt(1, 100));
      const size_t nb = rng().UniformInt(0, 3) == 0
                            ? static_cast<size_t>(rng().UniformInt(1, 3))
                            : static_cast<size_t>(rng().UniformInt(1, 100));
      const std::vector<uint64_t> a = AdversarialCoeffs(rng(), f, na);
      const std::vector<uint64_t> b = AdversarialCoeffs(rng(), f, nb);
      const std::vector<uint64_t> want = ConvolveSchoolbook(f, a, b);
      EXPECT_EQ(ConvolveFast(f, a, b), want)
          << "p=" << p << " na=" << na << " nb=" << nb;
      EXPECT_EQ(ConvolveKaratsuba(f, a, b), want)
          << "p=" << p << " na=" << na << " nb=" << nb;
      ++cases;
    }
  }
  EXPECT_GE(cases, 180);
}

TEST_F(ArithDifferentialTest, NttIneligibleModuliFallBackToKaratsuba) {
  // 1009-1 = 2^4 * 63 and 2^61-2 = 2 * (2^60-1): both have tiny two-adic
  // valuation, so even with the threshold at 1 the dispatch must refuse the
  // NTT for any nontrivial size and still produce correct products.
  const ScopedFpNttThreshold ntt_guard(1);
  for (uint64_t p : {1009ull, (1ull << 61) - 1}) {
    const PrimeField f = PrimeField::Create(p).value();
    for (int iter = 0; iter < 60; ++iter) {
      const size_t na = static_cast<size_t>(rng().UniformInt(17, 100));
      const size_t nb = static_cast<size_t>(rng().UniformInt(17, 100));
      ASSERT_LT(NttMaxLength(p), 2 * std::max(na, nb)) << p;
      const std::vector<uint64_t> a = AdversarialCoeffs(rng(), f, na);
      const std::vector<uint64_t> b = AdversarialCoeffs(rng(), f, nb);
      EXPECT_EQ(ConvolveFast(f, a, b), ConvolveSchoolbook(f, a, b))
          << "p=" << p << " na=" << na << " nb=" << nb;
    }
  }
}

// --------------------------------------- Karatsuba vs. schoolbook in Z --

ZPoly AdversarialZPoly(DeterministicRng& rng, size_t n) {
  std::vector<BigInt> c(n);
  for (size_t i = 0; i < n; ++i) {
    switch (rng.UniformInt(0, 4)) {
      case 0: c[i] = BigInt(0); break;
      case 1: c[i] = BigInt(static_cast<int64_t>(rng.NextU64() % 200) - 100); break;
      default:
        c[i] = testing::RandomBigInt(rng, static_cast<int>(rng.UniformInt(1, 4)),
                                     /*signed_value=*/true);
        break;
    }
  }
  return ZPoly(std::move(c));
}

TEST_F(ArithDifferentialTest, ZConvolutionFastMatchesSchoolbook) {
  int cases = 0;
  for (size_t threshold : {size_t{1}, size_t{2}, size_t{4}, size_t{16}}) {
    const ScopedZKaratsubaThreshold guard(threshold);
    for (int iter = 0; iter < 260; ++iter) {
      const size_t na = static_cast<size_t>(rng().UniformInt(0, 48));
      const size_t nb = rng().UniformInt(0, 3) == 0
                            ? static_cast<size_t>(rng().UniformInt(0, 2))
                            : static_cast<size_t>(rng().UniformInt(0, 48));
      const ZPoly a = AdversarialZPoly(rng(), na);
      const ZPoly b = AdversarialZPoly(rng(), nb);
      EXPECT_EQ(a * b, MulSchoolbook(a, b))
          << "threshold=" << threshold << " na=" << na << " nb=" << nb;
      ++cases;
    }
  }
  EXPECT_GE(cases, 1000);
}

// ------------------------------- optimized vs. reference ring reduction --

// The pre-optimization cyclotomic fold, kept verbatim as the reference:
// fold exponents mod (p-1) through the signed-constructor round trip.
FpPoly ReferenceCyclotomicReduce(const FpCyclotomicRing& ring, const FpPoly& a) {
  const size_t n = ring.DenseCoeffCount();
  if (a.degree() < static_cast<int>(n)) return a;
  std::vector<int64_t> folded(n, 0);
  for (size_t i = 0; i < a.coeffs().size(); ++i) {
    size_t slot = i % n;
    folded[slot] = static_cast<int64_t>(ring.field().Add(
        static_cast<uint64_t>(folded[slot]), a.coeff(i)));
  }
  return FpPoly(ring.field(), std::move(folded));
}

TEST_F(ArithDifferentialTest, CyclotomicReduceMatchesReference) {
  int cases = 0;
  for (uint64_t p : {5ull, 101ull, 1009ull}) {
    const FpCyclotomicRing ring = FpCyclotomicRing::Create(p).value();
    const PrimeField& f = ring.field();
    for (int iter = 0; iter < 150; ++iter) {
      // Degrees from below the fold boundary to several wraps above it.
      const size_t n = static_cast<size_t>(
          rng().UniformInt(0, 4 * (ring.DenseCoeffCount() + 1)));
      const FpPoly a =
          FpPoly::FromCanonical(f, AdversarialCoeffs(rng(), f, n));
      EXPECT_EQ(ring.Reduce(a), ReferenceCyclotomicReduce(ring, a))
          << "p=" << p << " n=" << n;
      ++cases;
    }
  }
  EXPECT_GE(cases, 450);
}

TEST_F(ArithDifferentialTest, FpRingMulMatchesReferencePipeline) {
  // End-to-end: fast Mul (Karatsuba product + optimized fold) against the
  // reference pipeline (schoolbook product + reference fold).
  int cases = 0;
  for (uint64_t p : {5ull, 101ull, 257ull}) {
    const FpCyclotomicRing ring = FpCyclotomicRing::Create(p).value();
    const ScopedFpKaratsubaThreshold guard(2);
    for (int iter = 0; iter < 120; ++iter) {
      const FpPoly a = testing::RandomFpElem(ring, rng());
      const FpPoly b = testing::RandomFpElem(ring, rng());
      const FpPoly fast = ring.Mul(a, b);
      FpPoly ref = FpPoly::Zero(ring.field());
      {
        const ScopedFpMulPath path(FpMulPath::kReference);
        ref = ReferenceCyclotomicReduce(ring, a * b);
      }
      EXPECT_EQ(fast, ref) << "p=" << p << " iter=" << iter;
      ++cases;
    }
  }
  EXPECT_GE(cases, 360);
}

TEST_F(ArithDifferentialTest, CyclicNttRingMulMatchesReferencePipeline) {
  // p = 257: p-1 = 256 = 2^8, so ring Mul takes the length-(p-1) cyclic NTT
  // shortcut (no linear padding, no separate fold). Check against the full
  // reference pipeline (schoolbook product + reference fold).
  const FpCyclotomicRing ring = FpCyclotomicRing::Create(257).value();
  const ScopedFpNttThreshold ntt_guard(1);
  for (int iter = 0; iter < 80; ++iter) {
    const FpPoly a = testing::RandomFpElem(ring, rng());
    const FpPoly b = testing::RandomFpElem(ring, rng());
    const FpPoly fast = ring.Mul(a, b);
    FpPoly ref = FpPoly::Zero(ring.field());
    {
      const ScopedFpMulPath path(FpMulPath::kReference);
      ref = ReferenceCyclotomicReduce(ring, a * b);
    }
    EXPECT_EQ(fast, ref) << "iter=" << iter;
  }
  // Zero-operand edges bypass the NTT entirely.
  EXPECT_TRUE(ring.IsZero(ring.Mul(ring.Zero(), ring.One())));
  EXPECT_TRUE(ring.Equal(ring.Mul(ring.One(), ring.One()), ring.One()));
}

TEST_F(ArithDifferentialTest, ZRingMulMatchesReferencePipeline) {
  for (const ZPoly& r :
       {ZPoly({1, 0, 1}), ZPoly({3, 1, 0, 0, 1}), ZPoly({7, 2, 1})}) {
    const ZQuotientRing ring = ZQuotientRing::Create(r, true).value();
    const ScopedZKaratsubaThreshold guard(1);
    for (int iter = 0; iter < 120; ++iter) {
      const ZPoly a = testing::RandomZElem(ring, rng());
      const ZPoly b = testing::RandomZElem(ring, rng());
      const ZPoly fast = ring.Mul(a, b);
      ZPoly ref;
      {
        const ScopedZMulPath path(ZMulPath::kReference);
        ref = ring.Mul(a, b);
      }
      EXPECT_EQ(fast, ref) << ring.ToString(fast) << " vs " << ring.ToString(ref);
    }
  }
}

// ------------------------------------------- Horner fast-path equality --

TEST_F(ArithDifferentialTest, HornerEvalMatchesPlainHorner) {
  for (uint64_t p : {2ull, 5ull, 1009ull, (1ull << 61) - 1}) {
    const PrimeField f = PrimeField::Create(p).value();
    for (int iter = 0; iter < 150; ++iter) {
      const std::vector<uint64_t> coeffs =
          AdversarialCoeffs(rng(), f, static_cast<size_t>(rng().UniformInt(0, 64)));
      const uint64_t x = AdversarialU64(rng(), p);
      uint64_t plain = 0;
      for (size_t i = coeffs.size(); i-- > 0;)
        plain = f.Add(f.Mul(plain, x % p), coeffs[i]);
      EXPECT_EQ(f.HornerEval(coeffs, x), plain) << "p=" << p;
    }
  }
}

TEST_F(ArithDifferentialTest, PointPowersMatchScalarHorner) {
  // Every modulus class: AVX2-qualifying (8 (p-1)^2 < 2^64), chunked scalar
  // (p-1 < 2^32, down to one product per reduction), no table at all
  // (Horner), and p = 2 (no Montgomery context). The dot products against
  // the power table must agree with per-point scalar Horner on adversarial
  // coefficients and points, at point counts on both sides of the server's
  // 16-point block and coefficient counts up to past p - 1.
  for (uint64_t p : {2ull, 3ull, 5ull, 67ull, 257ull, 1009ull, 65537ull,
                     998244353ull, (1ull << 31) - 1, 1518500213ull,
                     1518500279ull, 4294967291ull, 4294967311ull,
                     (1ull << 61) - 1}) {
    const PrimeField f = PrimeField::Create(p).value();
    for (int iter = 0; iter < 60; ++iter) {
      const size_t width = static_cast<size_t>(rng().UniformInt(0, 80));
      const size_t npts = static_cast<size_t>(rng().UniformInt(0, 40));
      std::vector<uint64_t> points(npts);
      for (auto& x : points) x = AdversarialU64(rng(), p);
      const PointPowers powers(f, points, width);
      for (int v = 0; v < 3; ++v) {
        const std::vector<uint64_t> coeffs = AdversarialCoeffs(
            rng(), f, static_cast<size_t>(rng().UniformInt(0, width)));
        for (size_t i = 0; i < npts; ++i) {
          EXPECT_EQ(powers.Eval(coeffs, i), f.HornerEval(coeffs, points[i]))
              << "p=" << p << " n=" << coeffs.size() << " x=" << points[i];
        }
      }
    }
  }
}

// ------------------------- kFast products and SolveTag at every bound --

// p = 2 (no Montgomery form), small primes, the benchmark ring's p = 67,
// the NTT-friendly 257 / 65537 / 998244353, 2^31-1 (four products per
// lazy reduction), and two moduli past 2^32 whose base case stays
// Montgomery.
const uint64_t kProductModuli[] = {2,
                                   3,
                                   5,
                                   67,
                                   257,
                                   65537,
                                   998244353,
                                   (1ull << 31) - 1,
                                   4294967311ull,
                                   (1ull << 61) - 1};

// Operand lengths on both sides of the schoolbook bounds of the kFast
// dispatch at p: 1-5, the lazy-reduction chunk (products one 64-bit sum
// absorbs), the Karatsuba threshold, and p-1 when the reference kernel can
// afford it. Every pair of them is multiplied; the NTT threshold, a few
// thousand coefficients, gets pairs of its own.
std::vector<size_t> BoundaryLengths(uint64_t p) {
  std::vector<size_t> lens = {1, 2, 3, 4, 5};
  auto around = [&](uint64_t bound) {
    for (uint64_t l = std::max<uint64_t>(bound, 2) - 1; l <= bound + 1; ++l)
      lens.push_back(static_cast<size_t>(l));
  };
  const uint64_t top = p - 1;
  if ((top >> 32) == 0 && UINT64_MAX / (top * top) <= 256)
    around(UINT64_MAX / (top * top));
  around(GetFpKaratsubaThreshold());
  if (top <= 256) lens.push_back(static_cast<size_t>(top));
  std::sort(lens.begin(), lens.end());
  lens.erase(std::unique(lens.begin(), lens.end()), lens.end());
  return lens;
}

// n coefficients with a nonzero top one, so the polynomial keeps length n.
std::vector<uint64_t> ExactLength(std::vector<uint64_t> c) {
  if (!c.empty() && c.back() == 0) c.back() = 1;
  return c;
}

TEST_F(ArithDifferentialTest, FastProductsMatchSchoolbookAtEveryBound) {
  const ScopedFpMulPath path(FpMulPath::kFast);
  int ring_cases = 0;
  for (uint64_t p : kProductModuli) {
    const PrimeField f = PrimeField::Create(p).value();
    // The ring side past 2^31 is WideRingsReduceAndSolve's.
    std::optional<FpCyclotomicRing> ring;
    if (p >= 3 && p < (1ull << 31)) ring = FpCyclotomicRing::Create(p).value();
    const std::vector<size_t> lens = BoundaryLengths(p);
    for (size_t na : lens) {
      for (size_t nb : lens) {
        if (nb > na) continue;
        // Adversarial operands, then all coefficients p - 1: the largest
        // sum every lazy accumulator can reach.
        for (int variant = 0; variant < 2; ++variant) {
          const std::vector<uint64_t> a =
              variant == 0 ? ExactLength(AdversarialCoeffs(rng(), f, na))
                           : std::vector<uint64_t>(na, p - 1);
          const std::vector<uint64_t> b =
              variant == 0 ? ExactLength(AdversarialCoeffs(rng(), f, nb))
                           : std::vector<uint64_t>(nb, p - 1);
          const FpPoly pa = FpPoly::FromCanonical(f, a);
          const FpPoly pb = FpPoly::FromCanonical(f, b);
          const FpPoly want =
              FpPoly::FromCanonical(f, ConvolveSchoolbook(f, a, b));
          EXPECT_EQ(pa * pb, want) << "p=" << p << " na=" << na << " nb=" << nb;
          EXPECT_EQ(pb * pa, want) << "p=" << p << " na=" << nb << " nb=" << na;
          if (ring && na <= ring->DenseCoeffCount()) {
            EXPECT_EQ(ring->Mul(pa, pb), ring->Reduce(want))
                << "ring p=" << p << " na=" << na << " nb=" << nb;
            ++ring_cases;
          }
        }
      }
    }
    // The NTT threshold: just below it Karatsuba serves, at it the NTT,
    // where the modulus admits the padded transform length.
    const size_t nt = GetFpNttThreshold();
    if (NttMaxLength(p) >= 4 * nt) {
      for (size_t n : {nt - 1, nt}) {
        const std::vector<uint64_t> a = ExactLength(AdversarialCoeffs(rng(), f, n));
        const std::vector<uint64_t> b = ExactLength(AdversarialCoeffs(rng(), f, n));
        EXPECT_EQ(ConvolveFast(f, a, b), ConvolveSchoolbook(f, a, b))
            << "p=" << p << " n=" << n;
      }
    }
  }
  EXPECT_GE(ring_cases, 400);
}

// g as a product of tag factors: never a monomial (it vanishes at its
// factors' values; c x^k vanishes nowhere on F_p^*), so no single changed
// coefficient of f = (x - t) g can be consistent with another tag.
FpPoly TagFactorProduct(const FpCyclotomicRing& ring, DeterministicRng& rng,
                        size_t factors) {
  FpPoly g = ring.One();
  for (size_t i = 0; i < factors; ++i)
    g = ring.Mul(g, ring.XMinus(rng.UniformInt(1, ring.MaxTagValue())).value());
  return g;
}

// f with coefficient k moved by a nonzero amount must be refused.
void ExpectTamperRefused(const FpCyclotomicRing& ring, const FpPoly& f,
                         const FpPoly& g, size_t k, DeterministicRng& rng) {
  const PrimeField& field = ring.field();
  std::vector<uint64_t> c = f.coeffs();
  if (c.size() <= k) c.resize(k + 1, 0);
  c[k] = field.Add(c[k], rng.UniformInt(1, ring.p() - 1));
  const auto t = ring.SolveTag(FpPoly::FromCanonical(field, std::move(c)), g);
  ASSERT_FALSE(t.ok()) << "p=" << ring.p() << " k=" << k << " solved " << *t;
  EXPECT_EQ(t.status().code(), StatusCode::kVerificationFailed)
      << "p=" << ring.p() << " k=" << k;
}

TEST_F(ArithDifferentialTest, SolveTagSolvesHonestAndRefusesEveryTamperedIndex) {
  // Every index 0..p-2; index 0 is where x g wraps g's top coefficient.
  for (uint64_t p : {5ull, 11ull, 67ull, 257ull}) {
    const FpCyclotomicRing ring = FpCyclotomicRing::Create(p).value();
    const size_t n = ring.DenseCoeffCount();
    for (int iter = 0; iter < 6; ++iter) {
      // From one factor (a leaf child) to products that wrap the ring.
      const size_t factors =
          iter == 0 ? 1 : static_cast<size_t>(rng().UniformInt(2, 2 * n));
      const FpPoly g = TagFactorProduct(ring, rng(), factors);
      const uint64_t t = iter == 1   ? 1
                         : iter == 2 ? ring.MaxTagValue()
                                     : rng().UniformInt(1, ring.MaxTagValue());
      const FpPoly f = ring.Mul(ring.XMinus(t).value(), g);
      const auto solved = ring.SolveTag(f, g);
      ASSERT_TRUE(solved.ok()) << "p=" << p << ": " << solved.status().ToString();
      EXPECT_EQ(*solved, t) << "p=" << p;
      for (size_t k = 0; k < n; ++k) ExpectTamperRefused(ring, f, g, k, rng());
    }
  }
  // Larger rings: sampled indices around f's support, plus the top slot.
  for (uint64_t p : {1009ull, 65537ull}) {
    const FpCyclotomicRing ring = FpCyclotomicRing::Create(p).value();
    const uint64_t n = ring.DenseCoeffCount();
    for (int iter = 0; iter < 8; ++iter) {
      const FpPoly g = TagFactorProduct(
          ring, rng(), static_cast<size_t>(rng().UniformInt(1, 20)));
      const uint64_t t = rng().UniformInt(1, ring.MaxTagValue());
      const FpPoly f = ring.Mul(ring.XMinus(t).value(), g);
      const auto solved = ring.SolveTag(f, g);
      ASSERT_TRUE(solved.ok()) << "p=" << p << ": " << solved.status().ToString();
      EXPECT_EQ(*solved, t) << "p=" << p;
      const size_t deg = static_cast<size_t>(f.degree());
      std::vector<uint64_t> indices = {0, 1, deg, deg + 1, deg + 2};
      for (int i = 0; i < 5; ++i) indices.push_back(rng().UniformInt(0, deg + 10));
      indices.push_back(n - 1);
      for (uint64_t k : indices) ExpectTamperRefused(ring, f, g, k, rng());
    }
  }
}

TEST_F(ArithDifferentialTest, WideRingsReduceAndSolve) {
  // p - 1 >= 2^31: the dense length does not fit an int, so the fold and
  // the decoder's degree bound must compare sizes, not int degrees (an int
  // cast once made Reduce fold every product and Deserialize refuse every
  // element). Elements stay sparse: a dense one would not fit in memory.
  for (uint64_t p : {4294967311ull, (1ull << 61) - 1}) {
    const FpCyclotomicRing ring = FpCyclotomicRing::Create(p).value();
    const PrimeField& f = ring.field();
    for (size_t na : {size_t{1}, size_t{5}, size_t{40}}) {
      const std::vector<uint64_t> a = ExactLength(AdversarialCoeffs(rng(), f, na));
      const std::vector<uint64_t> b = ExactLength(AdversarialCoeffs(rng(), f, 7));
      const FpPoly pa = FpPoly::FromCanonical(f, a);
      const FpPoly pb = FpPoly::FromCanonical(f, b);
      const FpPoly want = FpPoly::FromCanonical(f, ConvolveSchoolbook(f, a, b));
      EXPECT_EQ(ring.Mul(pa, pb), want) << "p=" << p << " na=" << na;
      EXPECT_EQ(ring.Reduce(want), want) << "p=" << p << " na=" << na;
      ByteWriter w;
      ring.Serialize(want, &w);
      ByteReader in(w.span());
      const auto back = ring.Deserialize(&in);
      ASSERT_TRUE(back.ok()) << "p=" << p << ": " << back.status().ToString();
      EXPECT_EQ(*back, want);
    }
    const FpPoly g = TagFactorProduct(ring, rng(), 12);
    const uint64_t t = rng().UniformInt(1, ring.MaxTagValue());
    const FpPoly fx = ring.Mul(ring.XMinus(t).value(), g);
    const auto solved = ring.SolveTag(fx, g);
    ASSERT_TRUE(solved.ok()) << "p=" << p << ": " << solved.status().ToString();
    EXPECT_EQ(*solved, t);
    for (size_t k : {size_t{0}, size_t{1}, size_t{6}, size_t{12}, size_t{13},
                     size_t{14}, size_t{30}})
      ExpectTamperRefused(ring, fx, g, k, rng());
  }
}

// ---------------------------------------------- pinned edge regressions --

TEST(ArithEdgeCaseTest, FieldOfTwoHasNoMontgomeryContextButWorks) {
  // p = 2 is the one prime Montgomery form cannot represent (even modulus);
  // every field op must fall back to the plain kernels.
  const PrimeField f2 = PrimeField::Create(2).value();
  EXPECT_EQ(f2.mont(), nullptr);
  EXPECT_EQ(f2.Mul(1, 1), 1u);
  EXPECT_EQ(f2.Add(1, 1), 0u);
  EXPECT_EQ(f2.Pow(1, 1000), 1u);
  EXPECT_EQ(f2.Pow(0, 0), 1u);
  const std::vector<uint64_t> coeffs = {1, 0, 1, 1};
  EXPECT_EQ(f2.HornerEval(coeffs, 1), 1u);  // 1+0+1+1 = 3 = 1 mod 2
  const FpPoly a(f2, {1, 1});
  EXPECT_EQ((a * a).ToString(), "x^2 + 1");  // (x+1)^2 = x^2+1 over F_2
}

TEST(ArithEdgeCaseTest, MontgomeryRejectsInvalidModuli) {
  EXPECT_FALSE(Montgomery::Valid(0));
  EXPECT_FALSE(Montgomery::Valid(1));
  EXPECT_FALSE(Montgomery::Valid(2));
  EXPECT_FALSE(Montgomery::Valid(1ull << 62));
  EXPECT_FALSE(Montgomery::Valid((1ull << 63) + 1));  // odd but >= 2^63
  EXPECT_TRUE(Montgomery::Valid(3));
  EXPECT_TRUE(Montgomery::Valid(9223372036854775783ull));
}

TEST(ArithEdgeCaseTest, MulModNearWordBoundaryDoesNotOverflow) {
  const uint64_t m = 9223372036854775783ull;  // largest prime < 2^63
  EXPECT_EQ(MulMod(m - 1, m - 1, m), 1u);     // (-1)^2
  EXPECT_EQ(MulMod(m - 1, 2, m), m - 2);
  const Montgomery mont(m);
  EXPECT_EQ(mont.Mul(mont.ToMont(m - 1), mont.ToMont(m - 1)), mont.ToMont(1));
  EXPECT_EQ(mont.Pow(m - 1, (1ull << 63) - 1), m - 1);  // odd exponent
}

TEST(ArithEdgeCaseTest, AddSubModOperandsAtOrAboveModulus) {
  EXPECT_EQ(AddMod(7, 7, 7), 0u);
  EXPECT_EQ(AddMod(8, 13, 7), 0u);
  EXPECT_EQ(SubMod(3, 10, 7), 0u);
  EXPECT_EQ(SubMod(0, ~uint64_t{0}, 2), 1u);
  EXPECT_EQ(AddMod(~uint64_t{0}, ~uint64_t{0}, 3), 0u);  // (2^64-1) % 3 == 0
}

TEST(ArithEdgeCaseTest, PowModBoundaryBetweenPlainAndMontgomeryPaths) {
  // e < 4 takes the plain loop, e >= 4 the Montgomery ladder; both sides of
  // the boundary must agree on every modulus class.
  for (uint64_t m : {2ull, 3ull, 4ull, 9ull, 101ull}) {
    for (uint64_t a = 0; a < 6; ++a) {
      for (uint64_t e = 0; e < 9; ++e) {
        uint64_t naive = 1 % m;
        for (uint64_t i = 0; i < e; ++i) naive = MulMod(naive, a % m, m);
        EXPECT_EQ(PowMod(a, e, m), naive)
            << "a=" << a << " e=" << e << " m=" << m;
      }
    }
  }
}

}  // namespace
}  // namespace polysse
