#include "field/simd_eval.h"

#include <algorithm>

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

#endif  // __x86_64__

}  // namespace

PointPowers::PointPowers(const PrimeField& field,
                         std::span<const uint64_t> points, size_t width)
    : field_(field), width_(width) {
  const uint64_t p = field.modulus();
  points_.reserve(points.size());
  for (uint64_t x : points) points_.push_back(field.FromUInt64(x));
  const uint64_t top = p - 1;  // the largest canonical operand
  chunk_ = (top >> 32) != 0 ? 0 : UINT64_MAX / (top * top);
  reciprocal_ = UINT64_MAX / p;
  simd_ = chunk_ >= 8 && SimdEnabled(SimdIsa::kAvx2);
  if (chunk_ == 0 || width_ == 0) return;
  powers_.resize(points_.size() * width_);
  // Power by power across all points: each row's chain of multiplies is
  // dependent, the rows are not, so they overlap.
  for (size_t i = 0; i < points_.size(); ++i) powers_[i * width_] = 1;
  for (size_t j = 1; j < width_; ++j)
    for (size_t i = 0; i < points_.size(); ++i)
      powers_[i * width_ + j] = BarrettReduce(
          powers_[i * width_ + j - 1] * points_[i], p, reciprocal_);
}

uint64_t PointPowers::Eval(std::span<const uint64_t> coeffs, size_t i) const {
  POLYSSE_DCHECK(i < points_.size());
  const size_t n = coeffs.size();
  if (n == 0) return 0;
  if (chunk_ == 0 || n > width_) return field_.HornerEval(coeffs, points_[i]);
  const uint64_t* row = powers_.data() + i * width_;
  const uint64_t p = field_.modulus();
#if defined(__x86_64__)
  if (simd_) return DotAvx2(coeffs.data(), row, n, chunk_, p, reciprocal_);
#endif
  return DotScalar(coeffs.data(), row, n, chunk_, p, reciprocal_);
}

}  // namespace polysse
