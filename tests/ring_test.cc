// Tests for the paper's two quotient rings, including its Lemmas 1-3 and
// Theorems 1-2, and the exact worked values of Fig. 2.
#include <gtest/gtest.h>

#include <random>
#include <span>
#include <vector>

#include "poly/fp_conv.h"
#include "ring/fp_cyclotomic_ring.h"
#include "ring/z_quotient_ring.h"

namespace polysse {
namespace {

std::vector<uint8_t> ToVector(std::span<const uint8_t> bytes) {
  return {bytes.begin(), bytes.end()};
}

// ------------------------------------------------- F_p[x]/(x^{p-1}-1) ring

TEST(FpRingTest, CreateValidates) {
  EXPECT_TRUE(FpCyclotomicRing::Create(5).ok());
  EXPECT_FALSE(FpCyclotomicRing::Create(4).ok());
  EXPECT_FALSE(FpCyclotomicRing::Create(2).ok());  // no tag alphabet
}

TEST(FpRingTest, Lemma1ProductOfAllLinearFactorsIsModulus) {
  // Lemma 1: prod_{i=1..p-1} (x - i) == x^{p-1} - 1 (mod p).
  for (uint64_t p : {3ull, 5ull, 7ull, 11ull, 13ull}) {
    PrimeField f = PrimeField::Create(p).value();
    FpPoly prod = FpPoly::One(f);
    for (uint64_t i = 1; i < p; ++i) prod = prod * FpPoly::XMinus(f, i);
    std::vector<int64_t> expected(p, 0);
    expected[0] = -1;
    expected[p - 1] = 1;
    EXPECT_EQ(prod, FpPoly(f, expected)) << "p=" << p;
  }
}

TEST(FpRingTest, Lemma1CorollaryReductionToZero) {
  // In the ring, the product of all p-1 distinct linear factors reduces to 0.
  FpCyclotomicRing ring = FpCyclotomicRing::Create(7).value();
  FpPoly acc = ring.One();
  for (uint64_t i = 1; i <= 6; ++i) {
    acc = ring.Mul(acc, ring.XMinus(i).value());
  }
  EXPECT_TRUE(ring.IsZero(acc));
}

TEST(FpRingTest, Lemma3ProductsAvoidingPMinus1NeverVanish) {
  // Lemma 3: products of (x - i)^{e_i} with i in {1..p-2} are nonzero mod
  // x^{p-1}-1. Exhaustive-ish check for p = 5, 7 with random exponents.
  std::mt19937_64 rng(42);
  for (uint64_t p : {5ull, 7ull}) {
    FpCyclotomicRing ring = FpCyclotomicRing::Create(p).value();
    for (int trial = 0; trial < 200; ++trial) {
      FpPoly acc = ring.One();
      int factors = 1 + static_cast<int>(rng() % 12);
      for (int k = 0; k < factors; ++k) {
        uint64_t i = 1 + rng() % (p - 2);  // in {1..p-2}
        acc = ring.Mul(acc, ring.XMinus(i).value());
      }
      EXPECT_FALSE(ring.IsZero(acc)) << "p=" << p;
    }
  }
}

TEST(FpRingTest, ReduceFoldsExponents) {
  FpCyclotomicRing ring = FpCyclotomicRing::Create(5).value();
  PrimeField f = ring.field();
  // x^5 + 0x^4 + 3x^3 + 3x^2 + 2x + 3 reduces to 3x^3+3x^2+3x+3 (the Fig. 2a
  // root computation: x^5 folds onto x).
  FpPoly raw(f, {3, 2, 3, 3, 0, 1});
  EXPECT_EQ(ring.Reduce(raw), FpPoly(f, {3, 3, 3, 3}));
}

TEST(FpRingTest, Fig2aTreeValues) {
  // name = x+1; client = (x-2)(x-4) = x^2+4x+3; customers = 3x^3+3x^2+3x+3.
  FpCyclotomicRing ring = FpCyclotomicRing::Create(5).value();
  FpPoly name = ring.XMinus(4).value();
  EXPECT_EQ(name.ToString(), "x + 1");
  FpPoly client = ring.Mul(ring.XMinus(2).value(), name);
  EXPECT_EQ(client.ToString(), "x^2 + 4x + 3");
  FpPoly customers = ring.Mul(ring.Mul(ring.XMinus(3).value(), client), client);
  EXPECT_EQ(customers.ToString(), "3x^3 + 3x^2 + 3x + 3");
}

TEST(FpRingTest, EvaluationRespectsReduction) {
  // Reduction mod x^{p-1}-1 must preserve evaluation at every nonzero point.
  std::mt19937_64 rng(77);
  FpCyclotomicRing ring = FpCyclotomicRing::Create(11).value();
  PrimeField f = ring.field();
  for (int i = 0; i < 100; ++i) {
    std::vector<int64_t> coeffs(1 + rng() % 30);
    for (auto& c : coeffs) c = static_cast<int64_t>(rng() % 11);
    FpPoly raw(f, coeffs);
    FpPoly red = ring.Reduce(raw);
    for (uint64_t e = 1; e <= 10; ++e) {
      EXPECT_EQ(raw.Eval(e), ring.EvalAt(red, e).value());
    }
  }
}

TEST(FpRingTest, EvalAtZeroRejected) {
  FpCyclotomicRing ring = FpCyclotomicRing::Create(7).value();
  EXPECT_FALSE(ring.EvalAt(ring.One(), 0).ok());
  EXPECT_FALSE(ring.EvalAt(ring.One(), 7).ok());  // 7 = 0 mod 7
  EXPECT_FALSE(ring.QueryModulus(0).ok());
  EXPECT_EQ(ring.QueryModulus(3).value(), 7u);
}

TEST(FpRingTest, XMinusRejectsZeroTag) {
  FpCyclotomicRing ring = FpCyclotomicRing::Create(7).value();
  EXPECT_FALSE(ring.XMinus(0).ok());
  EXPECT_FALSE(ring.XMinus(7).ok());
  EXPECT_TRUE(ring.XMinus(6).ok());  // p-1 allowed (Fig. 1 uses it)
}

TEST(FpRingTest, Theorem1SolveTagUnique) {
  // f = (x - t) * g with g a product of in-range factors: SolveTag finds t.
  std::mt19937_64 rng(4242);
  for (uint64_t p : {5ull, 11ull, 101ull}) {
    FpCyclotomicRing ring = FpCyclotomicRing::Create(p).value();
    for (int trial = 0; trial < 50; ++trial) {
      FpPoly g = ring.One();
      int children = static_cast<int>(rng() % 6);
      for (int k = 0; k < children; ++k) {
        g = ring.Mul(g, ring.XMinus(1 + rng() % (p - 2)).value());
      }
      uint64_t t = 1 + rng() % (p - 2);
      FpPoly f = ring.Mul(ring.XMinus(t).value(), g);
      auto solved = ring.SolveTag(f, g);
      ASSERT_TRUE(solved.ok()) << solved.status().ToString();
      EXPECT_EQ(*solved, t);
    }
  }
}

TEST(FpRingTest, SolveTagDetectsTamperedServer) {
  FpCyclotomicRing ring = FpCyclotomicRing::Create(11).value();
  FpPoly g = ring.Mul(ring.XMinus(2).value(), ring.XMinus(5).value());
  FpPoly f = ring.Mul(ring.XMinus(7).value(), g);
  // Tamper with one coefficient of f — the Eq. 3 cross-check must fire
  // (a single coefficient flip cannot stay consistent with every equation).
  FpPoly tampered = ring.Add(f, FpPoly::Monomial(ring.field(), 1, 2));
  auto solved = ring.SolveTag(tampered, g);
  EXPECT_FALSE(solved.ok());
  EXPECT_EQ(solved.status().code(), StatusCode::kVerificationFailed);
}

TEST(FpRingTest, SolveTagTrustedWrapFree) {
  FpCyclotomicRing ring = FpCyclotomicRing::Create(11).value();
  // f = (x - 4)(x - 2)(x - 7): subtree of 3 nodes, wrap-free for p = 11.
  FpPoly g = ring.Mul(ring.XMinus(2).value(), ring.XMinus(7).value());
  FpPoly f = ring.Mul(ring.XMinus(4).value(), g);
  uint64_t f0 = ring.ConstTerm(f);
  uint64_t g0 = ring.ConstTerm(g);
  EXPECT_EQ(ring.SolveTagTrusted(f0, g0).value(), 4u);
}

TEST(FpRingTest, RandomElementsAreCanonicalAndDense) {
  FpCyclotomicRing ring = FpCyclotomicRing::Create(13).value();
  std::mt19937_64 rng(1);
  FpPoly e = ring.Random([&] { return rng(); });
  EXPECT_LT(e.degree(), 12);
  // A uniform element of F_13^12 is extremely unlikely to be sparse.
  int nonzero = 0;
  for (uint64_t c : e.coeffs()) nonzero += c != 0;
  EXPECT_GE(nonzero, 6);
}

TEST(FpRingTest, SerializeRejectsOversizedElement) {
  FpCyclotomicRing ring = FpCyclotomicRing::Create(5).value();
  ByteWriter w;
  FpPoly big = FpPoly::Monomial(ring.field(), 1, 10);  // degree 10 >= 4
  big.Serialize(&w);
  ByteReader r(w.span());
  EXPECT_FALSE(ring.Deserialize(&r).ok());
}

// The walk's reused-storage operations: MulInto equals the reduced
// reference product (below and above the schoolbook bound) whatever its
// output vector held before, and so does Mul, which wraps it; the
// coefficient codec equals the polynomial one.
TEST(FpRingTest, ReusedStorageOpsMatchPolynomialOps) {
  std::mt19937_64 rng(7);
  std::vector<uint64_t> out = {5, 5, 5}, coeffs = {9, 9, 9, 9};
  for (uint64_t p : {5u, 67u, 1009u}) {
    FpCyclotomicRing ring = FpCyclotomicRing::Create(p).value();
    const size_t n = ring.DenseCoeffCount();
    for (size_t la : {size_t{0}, size_t{1}, size_t{3}, n / 2, n}) {
      for (size_t lb : {size_t{1}, size_t{2}, n - 1, n}) {
        std::vector<uint64_t> ca(la), cb(lb);
        for (uint64_t& c : ca) c = rng() % p;
        for (uint64_t& c : cb) c = rng() % p;
        const FpPoly a = FpPoly::FromCanonical(ring.field(), ca);
        const FpPoly b = FpPoly::FromCanonical(ring.field(), cb);
        const FpPoly want_product = ring.Reduce(FpPoly::FromCanonical(
            ring.field(), ConvolveSchoolbook(ring.field(), ca, cb)));
        ring.MulInto(a.coeffs(), b.coeffs(), &out);
        EXPECT_EQ(out, want_product.coeffs()) << p << " " << la << "x" << lb;
        EXPECT_EQ(ring.Mul(a, b), want_product) << p << " " << la << "x" << lb;

        // Trailing zeros of a dense row are not encoded.
        std::vector<uint64_t> dense = ca;
        dense.resize(n, 0);
        ByteWriter want, got;
        a.Serialize(&want);
        FpPoly::SerializeCoeffs(dense, &got);
        EXPECT_EQ(ToVector(got.span()), ToVector(want.span()));
        ByteReader in(got.span());
        ASSERT_TRUE(ring.DeserializeCoeffs(&in, &coeffs).ok());
        EXPECT_EQ(coeffs, a.coeffs());
        EXPECT_EQ(in.remaining(), 0u);
      }
    }
  }
  // Refusals are Deserialize's: an element past degree p-2, a coefficient
  // outside the field, a count past the bytes left.
  FpCyclotomicRing ring = FpCyclotomicRing::Create(5).value();
  for (const std::vector<uint8_t>& bytes :
       {std::vector<uint8_t>{5, 1, 1, 1, 1, 1}, std::vector<uint8_t>{2, 1, 7},
        std::vector<uint8_t>{3, 1, 1}}) {
    ByteReader a(bytes), b(bytes);
    const Status want = ring.Deserialize(&a).status();
    ASSERT_FALSE(want.ok());
    EXPECT_EQ(ring.DeserializeCoeffs(&b, &coeffs), want);
  }
}

// ------------------------------------------------------- Z[x]/(r(x)) ring

TEST(ZRingTest, CreateValidates) {
  EXPECT_TRUE(ZQuotientRing::Create(ZPoly({1, 0, 1})).ok());
  EXPECT_FALSE(ZQuotientRing::Create(ZPoly({0, 0, 1})).ok());  // x^2 reducible
  EXPECT_FALSE(ZQuotientRing::Create(ZPoly({1, 2})).ok());     // non-monic
  EXPECT_FALSE(ZQuotientRing::Create(ZPoly({7})).ok());        // constant
  // trust_irreducible bypasses the check.
  EXPECT_TRUE(ZQuotientRing::Create(ZPoly({0, 0, 1}), true).ok());
}

TEST(ZRingTest, Fig2bTreeValues) {
  // name = x-4; client = -6x+7; customers = 265x+45 in Z[x]/(x^2+1).
  ZQuotientRing ring = ZQuotientRing::Create(ZPoly({1, 0, 1})).value();
  ZPoly name = ring.XMinus(4).value();
  EXPECT_EQ(name.ToString(), "x - 4");
  ZPoly client = ring.Mul(ring.XMinus(2).value(), name);
  EXPECT_EQ(client.ToString(), "-6x + 7");
  ZPoly customers = ring.Mul(ring.Mul(ring.XMinus(3).value(), client), client);
  EXPECT_EQ(customers.ToString(), "265x + 45");
}

TEST(ZRingTest, QueryModulusIsREvaluated) {
  // Fig. 6: "everything is calculated modulo r(2) = 2^2 + 1 = 5".
  ZQuotientRing ring = ZQuotientRing::Create(ZPoly({1, 0, 1})).value();
  EXPECT_EQ(ring.QueryModulus(2).value(), 5u);
  EXPECT_EQ(ring.QueryModulus(4).value(), 17u);
  EXPECT_EQ(ring.QueryModulus(1).value(), 2u);
}

TEST(ZRingTest, EvalMatchesFig6) {
  ZQuotientRing ring = ZQuotientRing::Create(ZPoly({1, 0, 1})).value();
  ZPoly name = ring.XMinus(4).value();
  ZPoly client = ring.Mul(ring.XMinus(2).value(), name);
  ZPoly customers = ring.Mul(ring.Mul(ring.XMinus(3).value(), client), client);
  // Sum tree of Fig. 6: name -> 3, client -> 0, customers -> 0 (mod 5).
  EXPECT_EQ(ring.EvalAt(name, 2).value(), 3u);
  EXPECT_EQ(ring.EvalAt(client, 2).value(), 0u);
  EXPECT_EQ(ring.EvalAt(customers, 2).value(), 0u);
}

TEST(ZRingTest, EvaluationRespectsReduction) {
  // f(e) mod r(e) must agree between raw product and reduced residue.
  ZQuotientRing ring = ZQuotientRing::Create(ZPoly({1, 0, 1})).value();
  std::mt19937_64 rng(3);
  for (int trial = 0; trial < 100; ++trial) {
    ZPoly raw = ZPoly::One();
    int factors = 1 + static_cast<int>(rng() % 8);
    for (int k = 0; k < factors; ++k)
      raw = raw * ZPoly::XMinus(BigInt(static_cast<int64_t>(1 + rng() % 20)));
    ZPoly red = ring.Reduce(raw).value();
    for (uint64_t e = 1; e <= 10; ++e) {
      uint64_t m = ring.QueryModulus(e).value();
      EXPECT_EQ(raw.EvalModU64(e, m), ring.EvalAt(red, e).value());
    }
  }
}

TEST(ZRingTest, Theorem2SolveTagUnique) {
  std::mt19937_64 rng(2718);
  ZQuotientRing ring = ZQuotientRing::Create(ZPoly({1, 0, 1})).value();
  for (int trial = 0; trial < 100; ++trial) {
    ZPoly g = ring.One();
    int children = static_cast<int>(rng() % 6);
    for (int k = 0; k < children; ++k)
      g = ring.Mul(g, ring.XMinus(1 + rng() % 50).value());
    uint64_t t = 1 + rng() % 50;
    ZPoly f = ring.Mul(ring.XMinus(t).value(), g);
    auto solved = ring.SolveTag(f, g);
    ASSERT_TRUE(solved.ok()) << solved.status().ToString();
    EXPECT_EQ(*solved, t);
  }
}

TEST(ZRingTest, Theorem2HigherDegreeModulus) {
  // x^4 + x^3 + x^2 + x + 1 (5th cyclotomic, irreducible over Z).
  ZQuotientRing ring =
      ZQuotientRing::Create(ZPoly({1, 1, 1, 1, 1})).value();
  std::mt19937_64 rng(5);
  for (int trial = 0; trial < 50; ++trial) {
    ZPoly g = ring.One();
    for (int k = 0; k < 5; ++k)
      g = ring.Mul(g, ring.XMinus(1 + rng() % 30).value());
    uint64_t t = 1 + rng() % 30;
    ZPoly f = ring.Mul(ring.XMinus(t).value(), g);
    EXPECT_EQ(ring.SolveTag(f, g).value(), t);
  }
}

TEST(ZRingTest, SolveTagDetectsTampering) {
  ZQuotientRing ring = ZQuotientRing::Create(ZPoly({1, 0, 1})).value();
  ZPoly g = ring.Mul(ring.XMinus(2).value(), ring.XMinus(4).value());
  ZPoly f = ring.Mul(ring.XMinus(3).value(), g);
  ZPoly tampered = f + ZPoly({1});
  auto solved = ring.SolveTag(tampered, g);
  EXPECT_FALSE(solved.ok());
  EXPECT_EQ(solved.status().code(), StatusCode::kVerificationFailed);
}

TEST(ZRingTest, SolveTagTrustedWrapFree) {
  // deg r = 3 so products of <= 2 linear factors are wrap-free.
  // x^3 + 2x + 1 has no rational roots -> irreducible over Q (cubic).
  ZQuotientRing ring = ZQuotientRing::Create(ZPoly({1, 2, 0, 1})).value();
  ZPoly g = ring.XMinus(9).value();
  ZPoly f = ring.Mul(ring.XMinus(6).value(), g);
  EXPECT_EQ(
      ring.SolveTagTrusted(ring.ConstTerm(f), ring.ConstTerm(g)).value(), 6u);
}

TEST(ZRingTest, EvalFilterFalsePositiveExistsWithUnsafeTags) {
  // Classic false positive: query e with e - t divisible by r(e).
  // r = x^2+1, e = 2 -> r(e) = 5; tag t = 7 gives (2 - 7) = -5 = 0 mod 5,
  // so the node "looks like" a match even though its tag is 7.
  ZQuotientRing ring = ZQuotientRing::Create(ZPoly({1, 0, 1})).value();
  ZPoly leaf = ring.XMinus(7).value();
  EXPECT_EQ(ring.EvalAt(leaf, 2).value(), 0u);  // false positive!
  // ...but reconstruction (Theorem 2) tells the truth:
  EXPECT_EQ(ring.SolveTag(leaf, ring.One()).value(), 7u);
}

TEST(ZRingTest, SafeTagValuesEliminateFilterFalsePositives) {
  ZQuotientRing ring = ZQuotientRing::Create(ZPoly({1, 0, 1})).value();
  std::vector<uint64_t> safe = ring.SafeTagValues(100, 100);
  ASSERT_FALSE(safe.empty());
  // For every pair of distinct safe values t (tag) and e (query point),
  // the linear factor (x - t) must NOT vanish at e mod r(e).
  for (uint64_t e : safe) {
    for (uint64_t t : safe) {
      if (t == e) continue;
      ZPoly leaf = ring.XMinus(t).value();
      EXPECT_NE(ring.EvalAt(leaf, e).value(), 0u) << "e=" << e << " t=" << t;
    }
  }
}

TEST(ZRingTest, QueryModulusOverflowRejected) {
  // r(e) beyond 64 bits must be reported, not wrapped.
  ZQuotientRing ring =
      ZQuotientRing::Create(ZPoly({1, 1, 1, 1, 1})).value();  // deg 4
  EXPECT_FALSE(ring.QueryModulus(1ull << 17).ok());
  EXPECT_TRUE(ring.QueryModulus(1000).ok());
}

TEST(ZRingTest, RowOpsMatchElementOps) {
  // The walk holds Z elements as rows of deg r coefficients, trailing
  // zeros included; every row op agrees with the element op it stands for.
  ZQuotientRing ring = ZQuotientRing::Create(ZPoly({1, 1, 0, 1})).value();
  const size_t n = ring.DenseCoeffCount();
  ASSERT_EQ(n, 3u);
  const ZQuotientRing::Evaluator ev =
      ring.MakeEvaluator(std::vector<uint64_t>{2, 3}).value();
  std::vector<BigInt> out = {BigInt(5)}, coeffs = {BigInt(9)};
  for (uint64_t seed = 0; seed < 16; ++seed) {
    // Random and RandomInto take the same words from the same stream.
    std::mt19937_64 g1(seed), g2(seed);
    const ZPoly a = ring.Random([&] { return g1(); }, 70);
    std::vector<BigInt> a_row(n);
    ring.RandomInto([&] { return g2(); }, a_row, 70);
    EXPECT_EQ(ring.FromCoeffs(a_row), a);
    EXPECT_EQ(g1(), g2());
    // b has negative and zero coefficients, so its row has trailing zeros
    // for small seeds.
    const ZPoly b = seed % 2 ? ring.XMinus(seed + 1).value()
                             : ring.Sub(ring.One(), a);
    std::vector<BigInt> b_row = b.coeffs();
    b_row.resize(n);

    ring.MulInto(a_row, b_row, &out);
    EXPECT_EQ(out, ring.Mul(a, b).coeffs()) << seed;
    const ZPoly f = ring.Mul(ring.XMinus(seed + 2).value(), b);
    std::vector<BigInt> f_row = f.coeffs();
    f_row.resize(n);
    const Result<uint64_t> want_tag = ring.SolveTag(f, b);
    const Result<uint64_t> got_tag = ring.SolveTag(f_row, b_row);
    ASSERT_EQ(got_tag.ok(), want_tag.ok()) << seed;
    if (want_tag.ok()) {
      EXPECT_EQ(*got_tag, *want_tag) << seed;
    }
    for (size_t i = 0; i < ev.size(); ++i)
      EXPECT_EQ(ev.At(std::span<const BigInt>(b_row), i), ev.At(b, i));

    // Trailing zeros of a row are not encoded, and the bytes decode back.
    ByteWriter want, got;
    b.Serialize(&want);
    ZPoly::SerializeCoeffs(b_row, &got);
    EXPECT_EQ(ToVector(got.span()), ToVector(want.span()));
    ByteReader in(got.span());
    ASSERT_TRUE(ring.DeserializeCoeffs(&in, &coeffs).ok());
    EXPECT_EQ(coeffs, b.coeffs());
    EXPECT_EQ(in.remaining(), 0u);
  }
  // Refusals are Deserialize's: an element of degree deg r, a count past
  // the bytes left, a truncated coefficient.
  ByteWriter too_long;
  ZPoly({1, 2, 3, 4}).Serialize(&too_long);
  for (const std::vector<uint8_t>& bytes :
       {ToVector(too_long.span()), std::vector<uint8_t>{9, 0},
        std::vector<uint8_t>{1, 1, 3, 7}}) {
    ByteReader a(bytes), b(bytes);
    const Status want = ring.Deserialize(&a).status();
    ASSERT_FALSE(want.ok());
    EXPECT_EQ(ring.DeserializeCoeffs(&b, &coeffs), want);
  }
}

}  // namespace
}  // namespace polysse
