// E13 — microbenchmarks of the ring kernels every experiment sits on:
// element multiply / evaluate / share / SolveTag in both rings, BigInt
// arithmetic, and the PRF share derivation with the SHA-256 and ChaCha20
// kernels beneath it. google-benchmark binary.
#include <benchmark/benchmark.h>

#include "bigint/bigint.h"
#include "core/sharing.h"
#include "crypto/prf.h"
#include "field/simd_eval.h"
#include "nt/modular.h"
#include "poly/fp_conv.h"
#include "ring/fp_cyclotomic_ring.h"
#include "ring/z_quotient_ring.h"
#include "util/bytes.h"
#include "util/cpu_features.h"

namespace polysse {
namespace {

// ------------------------------------------- word-level modular kernels --
//
// Dependent chains (each product feeds the next) so the benchmark measures
// the latency that Horner evaluation and convolution inner loops actually
// pay, not pipelined throughput. The Montgomery/plain pair is the ">= 2x on
// modular-multiplication-bound cases" acceptance gate of the fast-path PR.

void BM_MulModPlainChain(benchmark::State& state) {
  const uint64_t m = (1ull << 61) - 1;
  uint64_t x = 1234567890123456789ull % m;
  const uint64_t c = 987654321098765432ull % m;
  for (auto _ : state) {
    x = MulMod(x, c, m);
    benchmark::DoNotOptimize(x);
  }
}
BENCHMARK(BM_MulModPlainChain);

void BM_MulModMontgomeryChain(benchmark::State& state) {
  const uint64_t m = (1ull << 61) - 1;
  const Montgomery mont(m);
  uint64_t x = mont.ToMont(1234567890123456789ull % m);
  const uint64_t c = mont.ToMont(987654321098765432ull % m);
  for (auto _ : state) {
    x = mont.Mul(x, c);
    benchmark::DoNotOptimize(x);
  }
}
BENCHMARK(BM_MulModMontgomeryChain);

// ------------------------------------------------ convolution kernels --
//
// Reference (plain schoolbook) vs. fast (Montgomery schoolbook + Karatsuba)
// on identical coefficient vectors; the crossover documented in BENCH.md
// comes from this pair.

FpPoly RandomDensePoly(const PrimeField& field, size_t n, const char* seed) {
  ChaChaRng rng = ChaChaRng::FromString(seed);
  std::vector<uint64_t> coeffs(n);
  for (size_t i = 0; i < n; ++i) coeffs[i] = field.Uniform(rng);
  return FpPoly::FromCanonical(field, std::move(coeffs));
}

void BM_FpPolyMulReference(benchmark::State& state) {
  const PrimeField field = PrimeField::Create((1ull << 61) - 1).value();
  const size_t n = static_cast<size_t>(state.range(0));
  FpPoly a = RandomDensePoly(field, n, "conv-a");
  FpPoly b = RandomDensePoly(field, n, "conv-b");
  FpMulPath prev = SetFpMulPath(FpMulPath::kReference);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a * b);
  }
  SetFpMulPath(prev);
  state.SetLabel("plain schoolbook");
}
BENCHMARK(BM_FpPolyMulReference)->Arg(16)->Arg(64)->Arg(256)->Arg(1024);

void BM_FpPolyMulFast(benchmark::State& state) {
  const PrimeField field = PrimeField::Create((1ull << 61) - 1).value();
  const size_t n = static_cast<size_t>(state.range(0));
  FpPoly a = RandomDensePoly(field, n, "conv-a");
  FpPoly b = RandomDensePoly(field, n, "conv-b");
  FpMulPath prev = SetFpMulPath(FpMulPath::kFast);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a * b);
  }
  SetFpMulPath(prev);
  state.SetLabel("Montgomery + Karatsuba");
}
BENCHMARK(BM_FpPolyMulFast)->Arg(16)->Arg(64)->Arg(256)->Arg(1024);

ZPoly RandomZPolyLimbs(size_t n, int limbs, const char* seed) {
  ChaChaRng rng = ChaChaRng::FromString(seed);
  std::vector<BigInt> coeffs(n);
  for (size_t i = 0; i < n; ++i) {
    std::vector<uint8_t> bytes(static_cast<size_t>(limbs) * 8);
    rng.Fill(bytes);
    coeffs[i] = BigInt::FromLittleEndianBytes(bytes);
  }
  return ZPoly(std::move(coeffs));
}

void BM_ZPolyMulReference(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  ZPoly a = RandomZPolyLimbs(n, 4, "zconv-a");
  ZPoly b = RandomZPolyLimbs(n, 4, "zconv-b");
  ZMulPath prev = SetZMulPath(ZMulPath::kReference);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a * b);
  }
  SetZMulPath(prev);
}
BENCHMARK(BM_ZPolyMulReference)->Arg(16)->Arg(64)->Arg(256);

void BM_ZPolyMulFast(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  ZPoly a = RandomZPolyLimbs(n, 4, "zconv-a");
  ZPoly b = RandomZPolyLimbs(n, 4, "zconv-b");
  ZMulPath prev = SetZMulPath(ZMulPath::kFast);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a * b);
  }
  SetZMulPath(prev);
}
BENCHMARK(BM_ZPolyMulFast)->Arg(16)->Arg(64)->Arg(256);

// ------------------------------------------- NTT vs. Karatsuba crossover --
//
// Same coefficient vectors through the middle and top convolution tiers on
// an NTT-friendly modulus; the NTT crossover in BENCH.md and the default
// NTT threshold in fp_conv.cc come from this pair.

void BM_FpPolyMulKaratsuba(benchmark::State& state) {
  const PrimeField field = PrimeField::Create(998244353).value();
  const size_t n = static_cast<size_t>(state.range(0));
  FpPoly a = RandomDensePoly(field, n, "ntt-a");
  FpPoly b = RandomDensePoly(field, n, "ntt-b");
  FpMulPath prev = SetFpMulPath(FpMulPath::kKaratsuba);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a * b);
  }
  SetFpMulPath(prev);
  state.SetLabel("Karatsuba forced, p=998244353");
}
BENCHMARK(BM_FpPolyMulKaratsuba)->Arg(64)->Arg(128)->Arg(256)->Arg(1024)->Arg(4096);

void BM_FpPolyMulNtt(benchmark::State& state) {
  const PrimeField field = PrimeField::Create(998244353).value();
  const size_t n = static_cast<size_t>(state.range(0));
  FpPoly a = RandomDensePoly(field, n, "ntt-a");
  FpPoly b = RandomDensePoly(field, n, "ntt-b");
  FpMulPath prev = SetFpMulPath(FpMulPath::kFast);
  size_t prev_t = SetFpNttThreshold(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a * b);
  }
  SetFpNttThreshold(prev_t);
  SetFpMulPath(prev);
  state.SetLabel("NTT forced, p=998244353");
}
BENCHMARK(BM_FpPolyMulNtt)->Arg(64)->Arg(128)->Arg(256)->Arg(1024)->Arg(4096);

// ------------------------------------------------- batch share evaluation --
//
// The EvalRequest hot path: dot products of a coefficient vector with
// tabled point powers (field/simd_eval.h). Tables are built outside the
// timed loop, as the server builds one per request block and the walk one
// per query point; BM_PointPowersBuild times that build for one server
// block. The label names the kernel SimdEnabled picked
// (POLYSSE_DISABLE_AVX2=1 measures the scalar loop).

std::vector<uint64_t> FirstPoints(size_t n) {
  std::vector<uint64_t> points(n);
  for (size_t i = 0; i < n; ++i) points[i] = 2 + i;
  return points;
}

const char* KernelLabel(const PointPowers& powers) {
  return powers.UsesSimd() ? "AVX2 dot product" : "scalar dot product";
}

// p = 67, one dense share (66 coefficients) at the 8 points of a
// batch-tcp-wan request.
void BM_PointPowersEval8_p67(benchmark::State& state) {
  const PrimeField field = PrimeField::Create(67).value();
  FpPoly a = RandomDensePoly(field, 66, "beval");
  const PointPowers powers(field, FirstPoints(8), 66);
  for (auto _ : state) {
    uint64_t acc = 0;
    for (size_t i = 0; i < powers.size(); ++i)
      acc += powers.Eval(a.coeffs(), i);
    benchmark::DoNotOptimize(acc);
  }
  state.SetLabel(KernelLabel(powers));
}
BENCHMARK(BM_PointPowersEval8_p67);

// p = 998244353, one coefficient vector at four points (chunked: 18
// products per reduction).
void BM_PointPowersEval4(benchmark::State& state) {
  const PrimeField field = PrimeField::Create(998244353).value();
  const size_t n = static_cast<size_t>(state.range(0));
  FpPoly a = RandomDensePoly(field, n, "beval");
  const PointPowers powers(field, FirstPoints(4), n);
  for (auto _ : state) {
    uint64_t acc = 0;
    for (size_t i = 0; i < powers.size(); ++i)
      acc += powers.Eval(a.coeffs(), i);
    benchmark::DoNotOptimize(acc);
  }
  state.SetLabel(KernelLabel(powers));
}
BENCHMARK(BM_PointPowersEval4)->Arg(64)->Arg(256)->Arg(1024)->Arg(4096);

// One server block: 16 points x 66 powers at p = 67.
void BM_PointPowersBuild16_p67(benchmark::State& state) {
  const PrimeField field = PrimeField::Create(67).value();
  const std::vector<uint64_t> points = FirstPoints(16);
  for (auto _ : state) {
    const PointPowers powers(field, points, 66);
    benchmark::DoNotOptimize(&powers);
  }
}
BENCHMARK(BM_PointPowersBuild16_p67);

// ----------------------------------------------------------- F_p ring --

void BM_FpRingMul(benchmark::State& state) {
  const uint64_t p = static_cast<uint64_t>(state.range(0));
  FpCyclotomicRing ring = FpCyclotomicRing::Create(p).value();
  ChaChaRng rng = ChaChaRng::FromString("fpmul");
  FpPoly a = ring.Random(rng);
  FpPoly b = ring.Random(rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ring.Mul(a, b));
  }
  state.SetLabel("p=" + std::to_string(p));
}
// 67 is the end-to-end benchmark's ring (bench/e2e). 257 and 1009 contrast
// the cyclic-NTT shortcut (p-1 = 2^8) against a same-magnitude modulus that
// must take Karatsuba + fold (1008 = 2^4 * 63).
BENCHMARK(BM_FpRingMul)->Arg(11)->Arg(67)->Arg(101)->Arg(257)->Arg(1009);

void BM_FpRingEval(benchmark::State& state) {
  const uint64_t p = static_cast<uint64_t>(state.range(0));
  FpCyclotomicRing ring = FpCyclotomicRing::Create(p).value();
  ChaChaRng rng = ChaChaRng::FromString("fpeval");
  FpPoly a = ring.Random(rng);
  uint64_t e = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ring.EvalAt(a, e).value());
    e = e % (p - 1) + 1;
  }
}
BENCHMARK(BM_FpRingEval)->Arg(11)->Arg(101)->Arg(1009)->Arg(65537);

void BM_FpSolveTag(benchmark::State& state) {
  const uint64_t p = static_cast<uint64_t>(state.range(0));
  FpCyclotomicRing ring = FpCyclotomicRing::Create(p).value();
  FpPoly g = ring.One();
  for (uint64_t t = 1; t <= 6; ++t) g = ring.Mul(g, ring.XMinus(t).value());
  FpPoly f = ring.Mul(ring.XMinus(7).value(), g);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ring.SolveTag(f, g).value());
  }
}
BENCHMARK(BM_FpSolveTag)->Arg(11)->Arg(101)->Arg(1009);

// p = 67: the verified-mode work on one zero candidate with four children
// (Theorem 1). The children's product, started from the first child, then
// SolveTag against the node's residue. The children hold 1, 3, 9 and 70 tag
// factors; the last wraps the ring, as a large subtree does.
void BM_FpReconstruct67(benchmark::State& state) {
  FpCyclotomicRing ring = FpCyclotomicRing::Create(67).value();
  std::vector<FpPoly> children;
  uint64_t t = 0;
  for (int factors : {1, 3, 9, 70}) {
    FpPoly q = ring.One();
    for (int i = 0; i < factors; ++i)
      q = ring.Mul(q, ring.XMinus(1 + t++ % ring.MaxTagValue()).value());
    children.push_back(std::move(q));
  }
  FpPoly g = children[0];
  for (size_t i = 1; i < children.size(); ++i) g = ring.Mul(g, children[i]);
  const FpPoly f = ring.Mul(ring.XMinus(7).value(), g);
  for (auto _ : state) {
    FpPoly product = children[0];
    for (size_t i = 1; i < children.size(); ++i)
      product = ring.Mul(product, children[i]);
    benchmark::DoNotOptimize(ring.SolveTag(f, product).value());
  }
}
BENCHMARK(BM_FpReconstruct67);

// p = 67: one dense residue (66 coefficients) through its wire form, as a
// fetch payload, a walk's byte arena and a store file carry it.
void BM_FpPolyCodec67(benchmark::State& state) {
  FpCyclotomicRing ring = FpCyclotomicRing::Create(67).value();
  ChaChaRng rng = ChaChaRng::FromString("codec");
  const FpPoly a = ring.Random(rng);
  ByteWriter out;
  for (auto _ : state) {
    out.Clear();
    ring.Serialize(a, &out);
    ByteReader in(out.span());
    benchmark::DoNotOptimize(ring.Deserialize(&in).value());
  }
}
BENCHMARK(BM_FpPolyCodec67);

void BM_FpShareDerive(benchmark::State& state) {
  const uint64_t p = static_cast<uint64_t>(state.range(0));
  FpCyclotomicRing ring = FpCyclotomicRing::Create(p).value();
  DeterministicPrf prf = DeterministicPrf::FromString("derive");
  int i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        DeriveClientShare(ring, prf, "0/1/" + std::to_string(i++ % 64), {}));
  }
  state.SetLabel("seed-only client cost per node");
}
// 67 is the end-to-end benchmark's ring (bench/e2e).
BENCHMARK(BM_FpShareDerive)->Arg(11)->Arg(67)->Arg(101)->Arg(1009);

// ------------------------------------------------------------- Z ring --

ZPoly ChainProduct(const ZQuotientRing& ring, int factors) {
  ZPoly acc = ring.One();
  for (int i = 0; i < factors; ++i) {
    acc = ring.Mul(acc, ring.XMinus(2 + (i % 40)).value());
  }
  return acc;
}

void BM_ZRingMulAfterChain(benchmark::State& state) {
  // Multiplying residues whose coefficients grew from `range` linear
  // factors — the §5 coefficient-growth cost in action.
  ZQuotientRing ring = ZQuotientRing::Create(ZPoly({1, 0, 1})).value();
  ZPoly a = ChainProduct(ring, static_cast<int>(state.range(0)));
  ZPoly b = ChainProduct(ring, static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(ring.Mul(a, b));
  }
  state.SetLabel("coeff_bits~" + std::to_string(a.MaxCoeffBits()));
}
BENCHMARK(BM_ZRingMulAfterChain)->Arg(8)->Arg(64)->Arg(512);

void BM_ZRingEval(benchmark::State& state) {
  ZQuotientRing ring = ZQuotientRing::Create(ZPoly({1, 0, 1})).value();
  ZPoly a = ChainProduct(ring, static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(ring.EvalAt(a, 6).value());
  }
}
BENCHMARK(BM_ZRingEval)->Arg(8)->Arg(64)->Arg(512);

void BM_ZSolveTag(benchmark::State& state) {
  ZQuotientRing ring = ZQuotientRing::Create(ZPoly({1, 0, 1})).value();
  ZPoly g = ChainProduct(ring, static_cast<int>(state.range(0)));
  ZPoly f = ring.Mul(ring.XMinus(9).value(), g);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ring.SolveTag(f, g).value());
  }
}
BENCHMARK(BM_ZSolveTag)->Arg(8)->Arg(64)->Arg(512);

// -------------------------------------------------------------- BigInt --

BigInt RandomBig(int limbs, const char* seed) {
  ChaChaRng rng = ChaChaRng::FromString(seed);
  std::vector<uint8_t> bytes(limbs * 8);
  rng.Fill(bytes);
  return BigInt::FromLittleEndianBytes(bytes);
}

void BM_BigIntMul(benchmark::State& state) {
  BigInt a = RandomBig(static_cast<int>(state.range(0)), "a");
  BigInt b = RandomBig(static_cast<int>(state.range(0)), "b");
  for (auto _ : state) {
    benchmark::DoNotOptimize(a * b);
  }
  state.SetLabel(std::to_string(state.range(0)) + " limbs");
}
BENCHMARK(BM_BigIntMul)->Arg(2)->Arg(16)->Arg(64)->Arg(256);

void BM_BigIntDivRem(benchmark::State& state) {
  BigInt a = RandomBig(static_cast<int>(state.range(0)) * 2, "num");
  BigInt b = RandomBig(static_cast<int>(state.range(0)), "den");
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.DivRem(b));
  }
}
BENCHMARK(BM_BigIntDivRem)->Arg(2)->Arg(16)->Arg(64);

void BM_BigIntModU64(benchmark::State& state) {
  BigInt a = RandomBig(static_cast<int>(state.range(0)), "mod");
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.ModU64(1000003));
  }
}
BENCHMARK(BM_BigIntModU64)->Arg(2)->Arg(16)->Arg(64);

// ---------------------------------------------------------------- PRF --

void BM_PrfStream(benchmark::State& state) {
  DeterministicPrf prf = DeterministicPrf::FromString("bench");
  int i = 0;
  for (auto _ : state) {
    ChaChaRng rng = prf.Stream("label/" + std::to_string(i++ % 1024));
    benchmark::DoNotOptimize(rng.NextU64());
  }
}
BENCHMARK(BM_PrfStream);

// One HMAC of a 20-byte label, the length of a collection's share label:
// the PRF key derivation of every stream.
void BM_HmacShortLabel(benchmark::State& state) {
  const HmacSha256Key mac(Sha256::Hash("bench key"));
  const std::string label = "share/d12.1/0/3/1/2";
  std::span<const uint8_t> message(
      reinterpret_cast<const uint8_t*>(label.data()), 20);
  for (auto _ : state) benchmark::DoNotOptimize(mac.Mac(message));
  state.SetLabel(SimdEnabled(SimdIsa::kShaNi) ? "SHA-NI" : "scalar");
}
BENCHMARK(BM_HmacShortLabel);

// One PrimeField::Uniform per iteration from one long stream: the
// single-word draw of Shamir sharing and the Z ring's Random, which
// refills eight blocks at a time.
void BM_UniformStream(benchmark::State& state) {
  const PrimeField field = PrimeField::Create(67).value();
  ChaChaRng rng = ChaChaRng::FromString("uniform stream");
  for (auto _ : state) benchmark::DoNotOptimize(field.Uniform(rng));
}
BENCHMARK(BM_UniformStream);

// The 66 coefficients of a p = 67 client share from a fresh stream (no
// HMAC): one bulk draw of the keystream it covers, rejection and Barrett
// reduction.
void BM_UniformFill67(benchmark::State& state) {
  const PrimeField field = PrimeField::Create(67).value();
  const std::array<uint8_t, ChaCha20::kKeySize> key = Sha256::Hash("fill");
  std::vector<uint64_t> row(66);
  for (auto _ : state) {
    ChaChaRng rng(key);
    field.UniformFill(rng, row);
    benchmark::DoNotOptimize(row.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_UniformFill67);

void BM_Sha256Block(benchmark::State& state) {
  std::vector<uint8_t> data(static_cast<size_t>(state.range(0)));
  for (size_t i = 0; i < data.size(); ++i) data[i] = static_cast<uint8_t>(i);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Sha256::Hash(data));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
  state.SetLabel(SimdEnabled(SimdIsa::kShaNi) ? "SHA-NI" : "scalar");
}
BENCHMARK(BM_Sha256Block)->Arg(64)->Arg(4096);

void BM_ChaCha20Keystream(benchmark::State& state) {
  ChaChaRng rng = ChaChaRng::FromString("keystream");
  std::vector<uint8_t> buf(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    rng.Fill(buf);
    benchmark::DoNotOptimize(buf.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
  state.SetLabel(SimdEnabled(SimdIsa::kAvx2) ? "AVX2, 8 blocks per pass"
                                             : "scalar, 1 block per pass");
}
BENCHMARK(BM_ChaCha20Keystream)->Arg(4096);

// A bulk draw of `range` blocks from a fresh stream: one-block passes below
// ChaCha20's wide-tail crossover, one eight-block pass from it on. The
// crossover is the first block count where the eight-block pass wins.
void BM_KeystreamDraw(benchmark::State& state) {
  const std::array<uint8_t, ChaCha20::kKeySize> key = Sha256::Hash("draw");
  const std::array<uint8_t, ChaCha20::kNonceSize> nonce{};
  std::vector<uint8_t> buf(static_cast<size_t>(state.range(0)) *
                           ChaCha20::kBlockSize);
  uint32_t counter = 0;
  for (auto _ : state) {
    ChaCha20 cipher(key, nonce, counter++);
    cipher.Keystream(buf);
    benchmark::DoNotOptimize(buf.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_KeystreamDraw)->DenseRange(1, 8);

}  // namespace
}  // namespace polysse

BENCHMARK_MAIN();
