#include "field/simd_eval.h"

#include <algorithm>
#include <iterator>
#include <utility>

#include "util/check.h"
#include "util/cpu_features.h"

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace polysse {
namespace {

// s mod p by Barrett reduction with r = floor((2^64-1) / p): the quotient
// estimate floor(s * r / 2^64) is floor(s / p) or one less, so one
// conditional subtract finishes.
inline uint64_t BarrettReduce(uint64_t s, uint64_t p, uint64_t r) {
  const uint64_t q = static_cast<uint64_t>(
      (static_cast<unsigned __int128>(s) * r) >> 64);
  const uint64_t rem = s - q * p;
  return rem >= p ? rem - p : rem;
}

// sum_{j<n} c[j] * w[j] mod p, one reduction per `chunk` products.
uint64_t DotScalar(const uint64_t* c, const uint64_t* w, size_t n,
                   uint64_t chunk, uint64_t p, uint64_t r) {
  uint64_t total = 0;
  size_t j = 0;
  while (j < n) {
    const size_t end = n - j <= chunk ? n : j + chunk;
    uint64_t s = 0;
    for (; j < end; ++j) s += c[j] * w[j];
    total += BarrettReduce(s, p, r);
    if (total >= p) total -= p;
  }
  return total;
}

// A convolution's product coefficients out[k] = sum_i a[i] * b[k-i], eight
// consecutive k per block. `padded` is b with kLanes-1 zeros on each side,
// so lane l of the block at k0 reads b[k0+l-i] for a[i] from one window
// per i, every lane runs over the same i, and no lane needs a horizontal
// sum. Each lane gains one product per i, so a block reduces its lanes
// once per `chunk` values of i. A block visits at most na values of i, so
// a should be the shorter operand. This is the scalar kernel;
// ConvolveAvx2 below is the same loop on four-lane registers.
constexpr size_t kLanes = 8;
constexpr size_t kPad = kLanes - 1;

void ConvolveScalar(const uint64_t* a, size_t na, const uint64_t* padded,
                    size_t nb, uint64_t* out, uint64_t chunk, uint64_t p,
                    uint64_t r) {
  const size_t nout = na + nb - 1;
  for (size_t k0 = 0; k0 < nout; k0 += kLanes) {
    const size_t lo = k0 + 1 >= nb ? k0 + 1 - nb : 0;
    const size_t hi = std::min(na - 1, k0 + kPad);
    uint64_t totals[kLanes] = {};
    for (size_t i = lo; i <= hi;) {
      const size_t end = hi + 1 - i <= chunk ? hi + 1 : i + chunk;
      uint64_t sums[kLanes] = {};
      for (; i < end; ++i) {
        const uint64_t* w = padded + kPad + k0 - i;
        for (size_t l = 0; l < kLanes; ++l) sums[l] += a[i] * w[l];
      }
      for (size_t l = 0; l < kLanes; ++l) {
        totals[l] += BarrettReduce(sums[l], p, r);
        if (totals[l] >= p) totals[l] -= p;
      }
    }
    std::copy(totals, totals + std::min(kLanes, nout - k0), out + k0);
  }
}

#if defined(__x86_64__)

// DotScalar on eight 64-bit lanes (two accumulators of four). Each pass
// adds one 32x32->64 product to every lane, so a chunk is chunk / 8 passes
// (>= 1: the caller checks chunk >= 8) and the eight lanes of a chunk sum
// to at most chunk products, which fits. The n % 8 tail joins the last
// chunk when its budget allows, so a vector of up to `chunk` products
// reduces exactly once.
__attribute__((target("avx2"))) uint64_t DotAvx2(const uint64_t* c,
                                                 const uint64_t* w, size_t n,
                                                 uint64_t chunk, uint64_t p,
                                                 uint64_t r) {
  const uint64_t passes_per_chunk = chunk / 8;
  const size_t vec_end = n - n % 8;
  uint64_t total = 0;
  size_t j = 0;
  while (j < vec_end) {
    const uint64_t passes =
        std::min<uint64_t>(passes_per_chunk, (vec_end - j) / 8);
    __m256i a0 = _mm256_setzero_si256();
    __m256i a1 = _mm256_setzero_si256();
    for (uint64_t k = 0; k < passes; ++k, j += 8) {
      const __m256i c0 =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(c + j));
      const __m256i w0 =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(w + j));
      const __m256i c1 =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(c + j + 4));
      const __m256i w1 =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(w + j + 4));
      a0 = _mm256_add_epi64(a0, _mm256_mul_epu32(c0, w0));
      a1 = _mm256_add_epi64(a1, _mm256_mul_epu32(c1, w1));
    }
    const __m256i a = _mm256_add_epi64(a0, a1);
    const __m128i h = _mm_add_epi64(_mm256_castsi256_si128(a),
                                    _mm256_extracti128_si256(a, 1));
    uint64_t s = static_cast<uint64_t>(_mm_cvtsi128_si64(h)) +
                 static_cast<uint64_t>(_mm_extract_epi64(h, 1));
    if (j == vec_end && 8 * passes + (n - j) <= chunk)
      for (; j < n; ++j) s += c[j] * w[j];
    total += BarrettReduce(s, p, r);
    if (total >= p) total -= p;
  }
  if (j < n) {
    total += DotScalar(c + j, w + j, n - j, chunk, p, r);
    if (total >= p) total -= p;
  }
  return total;
}

// ConvolveScalar on four-lane registers: one broadcast, two window loads
// and two 32x32->64-bit multiplies per i.
__attribute__((target("avx2"))) void ConvolveAvx2(
    const uint64_t* a, size_t na, const uint64_t* padded, size_t nb,
    uint64_t* out, uint64_t chunk, uint64_t p, uint64_t r) {
  const size_t nout = na + nb - 1;
  for (size_t k0 = 0; k0 < nout; k0 += kLanes) {
    const size_t lo = k0 + 1 >= nb ? k0 + 1 - nb : 0;
    const size_t hi = std::min(na - 1, k0 + kPad);
    uint64_t totals[kLanes] = {};
    for (size_t i = lo; i <= hi;) {
      const size_t end = hi + 1 - i <= chunk ? hi + 1 : i + chunk;
      __m256i s0 = _mm256_setzero_si256();
      __m256i s1 = _mm256_setzero_si256();
      for (; i < end; ++i) {
        const __m256i ai = _mm256_set1_epi64x(static_cast<int64_t>(a[i]));
        const __m256i* w =
            reinterpret_cast<const __m256i*>(padded + kPad + k0 - i);
        s0 = _mm256_add_epi64(s0, _mm256_mul_epu32(ai, _mm256_loadu_si256(w)));
        s1 = _mm256_add_epi64(s1,
                              _mm256_mul_epu32(ai, _mm256_loadu_si256(w + 1)));
      }
      uint64_t sums[kLanes];
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(sums), s0);
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(sums + 4), s1);
      for (size_t l = 0; l < kLanes; ++l) {
        totals[l] += BarrettReduce(sums[l], p, r);
        if (totals[l] >= p) totals[l] -= p;
      }
    }
    std::copy(totals, totals + std::min(kLanes, nout - k0), out + k0);
  }
}

#endif  // __x86_64__

}  // namespace

LazyDot::LazyDot(const PrimeField& field) : p_(field.modulus()) {
  const uint64_t top = p_ - 1;  // the largest canonical operand
  chunk_ = (top >> 32) != 0 ? 0 : UINT64_MAX / (top * top);
  reciprocal_ = UINT64_MAX / p_;
  simd_ = chunk_ >= 8 && SimdEnabled(SimdIsa::kAvx2);
}

uint64_t LazyDot::Reduce(uint64_t s) const {
  return BarrettReduce(s, p_, reciprocal_);
}

uint64_t LazyDot::operator()(const uint64_t* a, const uint64_t* b,
                             size_t n) const {
  POLYSSE_DCHECK(enabled());
#if defined(__x86_64__)
  if (simd_) return DotAvx2(a, b, n, chunk_, p_, reciprocal_);
#endif
  return DotScalar(a, b, n, chunk_, p_, reciprocal_);
}

void LazyDot::Convolve(std::span<const uint64_t> a,
                       std::span<const uint64_t> b, uint64_t* out) const {
  POLYSSE_DCHECK(enabled() && !a.empty() && !b.empty());
  if (a.size() > b.size()) std::swap(a, b);
  const size_t nb = b.size();
  // b with kPad zeros on each side: every window the kernels read stays in
  // bounds. Operands up to the default Karatsuba threshold (96) pad on the
  // stack.
  uint64_t on_stack[96 + 2 * kPad];
  std::vector<uint64_t> on_heap;
  uint64_t* padded = on_stack;
  if (nb + 2 * kPad > std::size(on_stack)) {
    on_heap.resize(nb + 2 * kPad);
    padded = on_heap.data();
  }
  std::fill(padded, padded + kPad, 0);
  std::copy(b.begin(), b.end(), padded + kPad);
  std::fill(padded + kPad + nb, padded + nb + 2 * kPad, 0);
#if defined(__x86_64__)
  if (simd_) {
    ConvolveAvx2(a.data(), a.size(), padded, nb, out, chunk_, p_,
                 reciprocal_);
    return;
  }
#endif
  ConvolveScalar(a.data(), a.size(), padded, nb, out, chunk_, p_,
                 reciprocal_);
}

PointPowers::PointPowers(const PrimeField& field,
                         std::span<const uint64_t> points, size_t width)
    : field_(field), width_(width), dot_(field) {
  points_.reserve(points.size());
  for (uint64_t x : points) points_.push_back(field.FromUInt64(x));
  if (!dot_.enabled() || width_ == 0) return;
  powers_.resize(points_.size() * width_);
  // Power by power across all points: each row's chain of multiplies is
  // dependent, the rows are not, so they overlap.
  for (size_t i = 0; i < points_.size(); ++i) powers_[i * width_] = 1;
  for (size_t j = 1; j < width_; ++j)
    for (size_t i = 0; i < points_.size(); ++i)
      powers_[i * width_ + j] =
          dot_.Reduce(powers_[i * width_ + j - 1] * points_[i]);
}

uint64_t PointPowers::Eval(std::span<const uint64_t> coeffs, size_t i) const {
  POLYSSE_DCHECK(i < points_.size());
  const size_t n = coeffs.size();
  if (n == 0) return 0;
  if (!dot_.enabled() || n > width_)
    return field_.HornerEval(coeffs, points_[i]);
  return dot_(coeffs.data(), powers_.data() + i * width_, n);
}

}  // namespace polysse
