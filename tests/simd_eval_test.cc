// Unit tests for the point-power evaluation kernel (field/simd_eval.h) and
// the ring evaluators built on it. ctest registers this binary twice: once
// plain and once with POLYSSE_DISABLE_AVX2=1 in the environment, so every
// assertion is checked with the AVX2 kernel both enabled (on AVX2 hosts)
// and force-disabled.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <vector>

#include "core/server_store.h"
#include "core/store_registry.h"
#include "field/prime_field.h"
#include "field/simd_eval.h"
#include "mpc/shamir.h"
#include "ring/fp_cyclotomic_ring.h"
#include "ring/z_quotient_ring.h"
#include "testing/deterministic_rng.h"
#include "util/cpu_features.h"

namespace polysse {
namespace {

using testing::DeterministicRngTest;

bool Avx2Disabled() {
  const char* env = std::getenv("POLYSSE_DISABLE_AVX2");
  return env != nullptr && env[0] != '\0' && !(env[0] == '0' && env[1] == '\0');
}

// The kernel's bounds: the AVX2 kernel needs 8 (p-1)^2 < 2^64, i.e.
// p <= 1518500250; a table at all needs p - 1 < 2^32. The primes on either
// side of each, plus the moduli the library and its tests use.
constexpr uint64_t kAvx2BoundBelow = 1518500213;  // chunk 8: AVX2
constexpr uint64_t kAvx2BoundAbove = 1518500279;  // chunk 7: scalar
constexpr uint64_t kTableBoundBelow = 4294967291;  // chunk 1: scalar
constexpr uint64_t kTableBoundAbove = 4294967311;  // no table: Horner
const uint64_t kModuli[] = {2,
                            3,
                            5,
                            67,
                            257,
                            65537,
                            998244353,
                            (1ull << 31) - 1,
                            kAvx2BoundBelow,
                            kAvx2BoundAbove,
                            kTableBoundBelow,
                            kTableBoundAbove,
                            (1ull << 61) - 1};

TEST(PointPowersDispatchTest, AvxKernelFollowsEnvAndModulusBounds) {
  const std::vector<uint64_t> points = {1, 2, 3};
  const bool avx2 = SimdEnabled(SimdIsa::kAvx2);
  if (Avx2Disabled()) {
    EXPECT_FALSE(avx2);
  }
  for (uint64_t p : {uint64_t{2}, uint64_t{67}, uint64_t{998244353},
                     kAvx2BoundBelow}) {
    const PrimeField f = PrimeField::Create(p).value();
    EXPECT_EQ(PointPowers(f, points, 8).UsesSimd(), avx2) << "p=" << p;
  }
  // Past the AVX2 bound a chunk gives some lane no product: always scalar.
  for (uint64_t p : {kAvx2BoundAbove, uint64_t{(1ull << 31) - 1},
                     kTableBoundBelow, kTableBoundAbove,
                     uint64_t{(1ull << 61) - 1}}) {
    const PrimeField f = PrimeField::Create(p).value();
    EXPECT_FALSE(PointPowers(f, points, 8).UsesSimd()) << "p=" << p;
  }
}

class SimdEvalTest : public DeterministicRngTest {};

TEST_F(SimdEvalTest, PointPowersMatchHornerAcrossModuliAndSizes) {
  for (uint64_t p : kModuli) {
    const PrimeField f = PrimeField::Create(p).value();
    for (size_t ncoeffs : {0, 1, 3, 4, 5, 6, 7, 8, 9, 66, 80, 4096}) {
      // Random coefficients, then all p-1 (the largest sums).
      std::vector<uint64_t> random(ncoeffs), top(ncoeffs, p - 1);
      for (auto& c : random) c = f.Uniform(rng());
      // Point counts on both sides of the server's 16-point block.
      for (size_t npts : {0, 1, 15, 16, 17}) {
        std::vector<uint64_t> points(npts);
        for (size_t i = 0; i < npts; ++i) {
          switch (i % 4) {
            case 0: points[i] = rng().NextU64(); break;  // unreduced
            case 1: points[i] = p - 1; break;
            case 2: points[i] = 2 * p - 1; break;  // p-1, unreduced
            default: points[i] = 1 + rng().NextU64() % (p - 1); break;
          }
        }
        const PointPowers powers(f, points, ncoeffs);
        ASSERT_EQ(powers.size(), npts);
        for (size_t i = 0; i < npts; ++i) {
          EXPECT_EQ(powers.Eval(random, i), f.HornerEval(random, points[i]))
              << "p=" << p << " ncoeffs=" << ncoeffs << " i=" << i;
          EXPECT_EQ(powers.Eval(top, i), f.HornerEval(top, points[i]))
              << "p=" << p << " ncoeffs=" << ncoeffs << " i=" << i;
        }
      }
    }
  }
}

TEST_F(SimdEvalTest, ShorterAndLongerVectorsThanTheTable) {
  // A table of width w serves any vector of up to w coefficients; a longer
  // one (never a ring element) still evaluates, by Horner.
  for (uint64_t p : {67ull, 998244353ull}) {
    const PrimeField f = PrimeField::Create(p).value();
    const std::vector<uint64_t> points = {2, 3, p + 5, 0, p};
    const PointPowers powers(f, points, 40);
    for (size_t n : {0, 1, 39, 40, 41, 100}) {
      std::vector<uint64_t> coeffs(n);
      for (auto& c : coeffs) c = f.Uniform(rng());
      for (size_t i = 0; i < points.size(); ++i)
        EXPECT_EQ(powers.Eval(coeffs, i), f.HornerEval(coeffs, points[i]))
            << "p=" << p << " n=" << n << " i=" << i;
    }
  }
}

TEST_F(SimdEvalTest, RingEvaluatorsMatchEvalAt) {
  const FpCyclotomicRing fp = FpCyclotomicRing::Create(257).value();
  const FpPoly a = fp.Random([&] { return rng().NextU64(); });
  std::vector<uint64_t> points;
  for (uint64_t e = 1; e <= 10; ++e) points.push_back(e);
  points.push_back(256 + 257);  // p-1, unreduced
  auto ev = fp.MakeEvaluator(points);
  ASSERT_TRUE(ev.ok()) << ev.status().ToString();
  ASSERT_EQ(ev->size(), points.size());
  for (size_t i = 0; i < points.size(); ++i)
    EXPECT_EQ(ev->At(a, i), fp.EvalAt(a, points[i]).value()) << i;
  // Point 0 or p is refused for the whole set, exactly like EvalAt.
  for (uint64_t bad : {0ull, 257ull}) {
    std::vector<uint64_t> with_bad = points;
    with_bad.push_back(bad);
    EXPECT_FALSE(fp.MakeEvaluator(with_bad).ok()) << bad;
  }

  const ZQuotientRing z = ZQuotientRing::Create(ZPoly({1, 0, 1})).value();
  const ZPoly b({-7, 12345});
  auto zev = z.MakeEvaluator(points);
  ASSERT_TRUE(zev.ok()) << zev.status().ToString();
  for (size_t i = 0; i < points.size(); ++i)
    EXPECT_EQ(zev->At(b, i), z.EvalAt(b, points[i]).value()) << i;
  // x^2 + 1 >= 2 only from x = 1 on: r(0) = 1 is refused.
  EXPECT_FALSE(z.MakeEvaluator(std::vector<uint64_t>{3, 0}).ok());
}

TEST_F(SimdEvalTest, ServerEvaluatesEveryPointBlock) {
  // HandleEval tables a bounded block of points at a time, once for all of
  // a registry's documents; a request spanning several blocks must answer
  // every point as EvalAt would, from a lone store (a one-document
  // registry) and from a registry of two.
  const FpCyclotomicRing ring = FpCyclotomicRing::Create(67).value();
  auto make_store = [&] {
    PolyTree<FpCyclotomicRing> tree;
    for (int i = 0; i < 3; ++i) {
      tree.nodes.push_back(PolyTree<FpCyclotomicRing>::Node{
          ring.Random([&] { return rng().NextU64(); }), 0, i == 0 ? -1 : 0,
          i == 0 ? std::vector<int>{1, 2} : std::vector<int>{}, "",
          i == 0 ? 3 : 1});
    }
    return ServerStore<FpCyclotomicRing>(ring, std::move(tree));
  };
  ServerStoreRegistry<FpCyclotomicRing> lone(ring);
  ASSERT_TRUE(lone.AddDoc(0, 0, make_store()).ok());
  ServerStoreRegistry<FpCyclotomicRing> registry(ring);
  ASSERT_TRUE(registry.AddDoc(1, 0, make_store()).ok());
  ASSERT_TRUE(registry.AddDoc(2, 100, make_store()).ok());
  auto poly_of = [&](ServerHandler* handler, int32_t id) -> const FpPoly& {
    if (handler == &lone) return lone.store(0).value()->tree().nodes[id].poly;
    return id < 100 ? registry.store(1).value()->tree().nodes[id].poly
                    : registry.store(2).value()->tree().nodes[id - 100].poly;
  };

  const size_t block = ServerStoreRegistry<FpCyclotomicRing>::kEvalBlockPoints;
  for (ServerHandler* handler :
       {static_cast<ServerHandler*>(&lone),
        static_cast<ServerHandler*>(&registry)}) {
    for (size_t npts : {block - 1, block, block + 1, 3 * block + 5}) {
      EvalRequest req;
      req.node_ids = handler == &lone ? std::vector<int32_t>{2, 0, 1}
                                      : std::vector<int32_t>{102, 0, 1, 100};
      for (size_t k = 0; k < npts; ++k)
        req.points.push_back(1 + (7 * k) % 66);
      auto resp = handler->HandleEval(req);
      ASSERT_TRUE(resp.ok()) << resp.status().ToString();
      ASSERT_EQ(resp->entries.size(), req.node_ids.size());
      for (size_t j = 0; j < req.node_ids.size(); ++j) {
        const FpPoly& poly = poly_of(handler, req.node_ids[j]);
        ASSERT_EQ(resp->entries[j].node_id, req.node_ids[j]);
        ASSERT_EQ(resp->entries[j].values.size(), npts);
        for (size_t k = 0; k < npts; ++k)
          EXPECT_EQ(resp->entries[j].values[k],
                    ring.EvalAt(poly, req.points[k]).value())
              << "npts=" << npts << " node=" << req.node_ids[j]
              << " k=" << k;
      }
      // A bad point in the last block refuses the whole request.
      req.points.push_back(67);
      EXPECT_FALSE(handler->HandleEval(req).ok()) << npts;
    }
  }
}

TEST_F(SimdEvalTest, ShamirShareStillReconstructs) {
  // Share() evaluates against the scheme's table of party-point powers;
  // shares must stay on the degree-(t-1) polynomial and reconstruct to the
  // secret for every party count.
  const PrimeField f = PrimeField::Create(65537).value();
  ChaChaRng chacha = ChaChaRng::FromString("simd-eval-shamir");
  for (int parties : {2, 3, 4, 5, 9}) {
    const ShamirScheme scheme = ShamirScheme::Create(f, 2, parties).value();
    const uint64_t secret = rng().NextU64() % f.modulus();
    auto shares = scheme.Share(secret, chacha);
    ASSERT_EQ(static_cast<int>(shares.size()), parties);
    EXPECT_EQ(scheme.ReconstructChecked(shares).value(), secret)
        << "parties=" << parties;
  }
}

}  // namespace
}  // namespace polysse
