#include "field/simd_eval.h"

#include <atomic>

#include "util/check.h"
#include "util/cpu_features.h"

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace polysse {
namespace {

std::atomic<BatchEvalPath> g_batch_eval_path{BatchEvalPath::kAuto};

#if defined(__x86_64__)

// -(m^-1) mod 2^32 by Newton iteration: each step doubles the number of
// correct low bits, five steps cover 32 from the 5 bits x = m gives (m odd).
uint32_t NegInvModR32(uint32_t m) {
  uint32_t x = m;
  for (int i = 0; i < 5; ++i) x *= 2 - m * x;
  return ~x + 1;  // -(m^-1)
}

// Horner-evaluates the canonical coefficient vector at four points per
// 256-bit sweep, one point per 64-bit lane, in 32-bit Montgomery arithmetic
// (R = 2^32). Lane state: acc < m in the low 32 bits of each lane; xm[k] is
// points[k] in Montgomery form. Per coefficient:
//   t = acc * xm            (< m^2 < 2^62, fits the lane)
//   q = (t * neg_inv) mod R
//   r = (t + q*m) / R       (< 2m; t + q*m < m^2 + R*m < 2^64 for m < 2^31)
// then one conditional subtract back below m, add the coefficient, subtract
// again. Signed 64-bit compares are safe: every intermediate is < 2^63.
__attribute__((target("avx2"))) void HornerEval4Avx2(
    const uint64_t* coeffs, size_t n, uint32_t m, uint32_t neg_inv,
    const uint64_t xm[4], uint64_t out[4]) {
  const __m256i vm = _mm256_set1_epi64x(static_cast<int64_t>(m));
  const __m256i vninv = _mm256_set1_epi64x(static_cast<int64_t>(neg_inv));
  const __m256i vxm =
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(xm));
  __m256i acc = _mm256_setzero_si256();
  for (size_t i = n; i-- > 0;) {
    const __m256i t = _mm256_mul_epu32(acc, vxm);
    const __m256i q = _mm256_mul_epu32(t, vninv);  // low 32 bits per lane
    const __m256i qm = _mm256_mul_epu32(q, vm);
    __m256i r = _mm256_srli_epi64(_mm256_add_epi64(t, qm), 32);
    // r < 2m: subtract m from lanes where r >= m.
    __m256i ge = _mm256_andnot_si256(_mm256_cmpgt_epi64(vm, r), vm);
    r = _mm256_sub_epi64(r, ge);
    // acc = r + coeffs[i], folded below m the same way.
    acc = _mm256_add_epi64(
        r, _mm256_set1_epi64x(static_cast<int64_t>(coeffs[i])));
    ge = _mm256_andnot_si256(_mm256_cmpgt_epi64(vm, acc), vm);
    acc = _mm256_sub_epi64(acc, ge);
  }
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(out), acc);
}

#endif  // __x86_64__

}  // namespace

BatchEvalPath SetBatchEvalPath(BatchEvalPath path) {
  return g_batch_eval_path.exchange(path, std::memory_order_relaxed);
}

BatchEvalPath GetBatchEvalPath() {
  return g_batch_eval_path.load(std::memory_order_relaxed);
}

bool BatchEvalUsesSimd(const PrimeField& field) {
  const uint64_t p = field.modulus();
  return GetBatchEvalPath() == BatchEvalPath::kAuto &&
         SimdEnabled(SimdIsa::kAvx2) &&
         (p & 1) != 0 && p < (uint64_t{1} << 31);
}

void BatchHornerEval(const PrimeField& field, std::span<const uint64_t> coeffs,
                     std::span<const uint64_t> points,
                     std::span<uint64_t> out) {
  POLYSSE_CHECK(points.size() == out.size());
  size_t i = 0;
#if defined(__x86_64__)
  if (points.size() >= 4 && BatchEvalUsesSimd(field)) {
    const uint64_t p = field.modulus();
    const uint32_t m = static_cast<uint32_t>(p);
    const uint32_t neg_inv = NegInvModR32(m);
    for (; i + 4 <= points.size(); i += 4) {
      // ToMont for R = 2^32: (x << 32) mod m, exact in uint64 since x < 2^31.
      uint64_t xm[4];
      for (int k = 0; k < 4; ++k) xm[k] = ((points[i + k] % p) << 32) % p;
      HornerEval4Avx2(coeffs.data(), coeffs.size(), m, neg_inv, xm,
                      out.data() + i);
    }
  }
#endif
  for (; i < points.size(); ++i)
    out[i] = field.HornerEval(coeffs, points[i]);
}

}  // namespace polysse
