#include "poly/fp_conv.h"

#include <algorithm>
#include <atomic>
#include <utility>

#include "field/simd_eval.h"
#include "nt/ntt.h"
#include "poly/karatsuba.h"
#include "util/check.h"

namespace polysse {
namespace {

// Crossover between schoolbook and Karatsuba, in coefficients of the
// shorter operand. Tuned on the ring_ops microbench (see BENCH.md): both
// lazy base cases keep beating a Karatsuba split up to about a hundred
// coefficients, so every product in the p = 67 ring is one schoolbook pass.
constexpr size_t kDefaultKaratsubaThreshold = 96;

// Crossover between Karatsuba and the NTT, in coefficients of the shorter
// operand. The NTT pays three N log N passes plus padding to a power of two;
// over the lazy-reduction Karatsuba it wins only once operands reach a few
// thousand coefficients (see BENCH.md's crossover table). The cyclic ring
// product (TryCyclicNttConvolve) uses the same bound.
constexpr size_t kDefaultNttThreshold = 4096;

// The knobs are flipped by tests that run against pooled executors, so they
// are relaxed atomics: no ordering is promised between a flip and a multiply
// on another thread, but every multiply reads one coherent value.
std::atomic<FpMulPath> g_mul_path{FpMulPath::kFast};
std::atomic<size_t> g_karatsuba_threshold{kDefaultKaratsubaThreshold};
std::atomic<size_t> g_ntt_threshold{kDefaultNttThreshold};

/// Schoolbook for p-1 >= 2^32, where not even one product fits 64 bits:
/// the shorter operand is converted to Montgomery form once, products are
/// summed unreduced in 128 bits, and REDC(sum of mont(a_i) * b_j) = the sum
/// of a_i * b_j. A sum of floor(2^64 / p) products stays below p * 2^64,
/// REDC's input bound, so each coefficient takes one REDC per that many
/// products instead of one per product.
std::vector<uint64_t> SchoolbookMont(const Montgomery& mont,
                                     const PrimeField& field,
                                     std::span<const uint64_t> a,
                                     std::span<const uint64_t> b) {
  if (a.size() > b.size()) std::swap(a, b);
  const size_t na = a.size(), nb = b.size();
  std::vector<uint64_t> am(na);
  for (size_t i = 0; i < na; ++i) am[i] = mont.ToMont(a[i]);
  const size_t chunk = UINT64_MAX / field.modulus();  // >= 2: p < 2^63
  std::vector<uint64_t> out(na + nb - 1);
  for (size_t k = 0; k < out.size(); ++k) {
    const size_t lo = k + 1 >= nb ? k + 1 - nb : 0;
    const size_t hi = std::min(k, na - 1);
    uint64_t total = 0;
    for (size_t i = lo; i <= hi;) {
      const size_t end = hi + 1 - i <= chunk ? hi + 1 : i + chunk;
      unsigned __int128 sum = 0;
      for (; i < end; ++i)
        sum += static_cast<unsigned __int128>(am[i]) * b[k - i];
      total = field.Add(total, mont.Reduce(sum));
    }
    out[k] = total;
  }
  return out;
}

/// Adapter feeding the shared Karatsuba skeleton (poly/karatsuba.h) the F_p
/// ring ops and the schoolbook base case: lazy-reduction dot products
/// (field/simd_eval.h), every product coefficient summed unreduced and
/// reduced once per chunk, or Montgomery when p-1 >= 2^32.
struct FpKaratsubaOps {
  const PrimeField& field;
  LazyDot dot;

  /// The base case into out's storage: the lazy kernel writes every product
  /// coefficient in place.
  void SchoolbookInto(std::span<const uint64_t> a, std::span<const uint64_t> b,
                      std::vector<uint64_t>* out) const {
    if (dot.enabled()) {
      out->resize(a.size() + b.size() - 1);
      dot.Convolve(a, b, out->data());
      return;
    }
    // p-1 >= 2^32 makes p odd, so the Montgomery context exists.
    *out = SchoolbookMont(*field.mont(), field, a, b);
  }
  std::vector<uint64_t> Schoolbook(std::span<const uint64_t> a,
                                   std::span<const uint64_t> b) const {
    std::vector<uint64_t> out;
    SchoolbookInto(a, b, &out);
    return out;
  }
  uint64_t Add(const uint64_t& x, const uint64_t& y) const {
    return field.Add(x, y);
  }
  uint64_t Sub(const uint64_t& x, const uint64_t& y) const {
    return field.Sub(x, y);
  }
};

uint64_t NextPow2(uint64_t n) {
  uint64_t v = 1;
  while (v < n) v <<= 1;
  return v;
}

/// The NTT tier engages when the shorter operand clears the threshold AND
/// the modulus admits a transform covering the padded product.
bool NttEligible(const PrimeField& field, size_t na, size_t nb) {
  const size_t shorter = std::min(na, nb);
  if (shorter < g_ntt_threshold.load(std::memory_order_relaxed)) return false;
  return NttMaxLength(field.modulus()) >= NextPow2(na + nb - 1);
}

/// The fast tiers on non-empty operands, into out's storage: the NTT when
/// `ntt` allows it and the operands qualify, Karatsuba above the
/// threshold, and the schoolbook base case at or below it, which writes
/// straight into out.
void FastInto(const PrimeField& field, std::span<const uint64_t> a,
              std::span<const uint64_t> b, bool ntt,
              std::vector<uint64_t>* out) {
  if (ntt && NttEligible(field, a.size(), b.size())) {
    *out = Ntt::ForPrime(field.modulus())->Convolve(a, b);
    return;
  }
  const FpKaratsubaOps ops{field, LazyDot(field)};
  const size_t threshold = GetFpKaratsubaThreshold();
  if (std::min(a.size(), b.size()) <= threshold) {
    ops.SchoolbookInto(a, b, out);
    return;
  }
  *out = KaratsubaMul(ops, a, b, threshold);
}

}  // namespace

FpMulPath SetFpMulPath(FpMulPath path) {
  return g_mul_path.exchange(path, std::memory_order_relaxed);
}

FpMulPath GetFpMulPath() { return g_mul_path.load(std::memory_order_relaxed); }

size_t SetFpKaratsubaThreshold(size_t threshold) {
  return g_karatsuba_threshold.exchange(
      threshold == 0 ? kDefaultKaratsubaThreshold : threshold,
      std::memory_order_relaxed);
}

size_t GetFpKaratsubaThreshold() {
  return g_karatsuba_threshold.load(std::memory_order_relaxed);
}

size_t SetFpNttThreshold(size_t threshold) {
  return g_ntt_threshold.exchange(
      threshold == 0 ? kDefaultNttThreshold : threshold,
      std::memory_order_relaxed);
}

size_t GetFpNttThreshold() {
  return g_ntt_threshold.load(std::memory_order_relaxed);
}

std::vector<uint64_t> ConvolveSchoolbook(const PrimeField& field,
                                         std::span<const uint64_t> a,
                                         std::span<const uint64_t> b) {
  if (a.empty() || b.empty()) return {};
  std::vector<uint64_t> out(a.size() + b.size() - 1, 0);
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i] == 0) continue;
    for (size_t j = 0; j < b.size(); ++j)
      out[i + j] = field.Add(out[i + j], field.Mul(a[i], b[j]));
  }
  return out;
}

std::vector<uint64_t> ConvolveKaratsuba(const PrimeField& field,
                                        std::span<const uint64_t> a,
                                        std::span<const uint64_t> b) {
  std::vector<uint64_t> out;
  if (!a.empty() && !b.empty()) FastInto(field, a, b, /*ntt=*/false, &out);
  return out;
}

std::vector<uint64_t> ConvolveFast(const PrimeField& field,
                                   std::span<const uint64_t> a,
                                   std::span<const uint64_t> b) {
  std::vector<uint64_t> out;
  if (!a.empty() && !b.empty()) FastInto(field, a, b, /*ntt=*/true, &out);
  return out;
}

void ConvolveInto(const PrimeField& field, std::span<const uint64_t> a,
                  std::span<const uint64_t> b, std::vector<uint64_t>* out) {
  out->clear();
  if (a.empty() || b.empty()) return;
  switch (GetFpMulPath()) {
    case FpMulPath::kFast:
      FastInto(field, a, b, /*ntt=*/true, out);
      return;
    case FpMulPath::kKaratsuba:
      FastInto(field, a, b, /*ntt=*/false, out);
      return;
    case FpMulPath::kReference:
      *out = ConvolveSchoolbook(field, a, b);
      return;
  }
}

std::optional<std::vector<uint64_t>> TryCyclicNttConvolve(
    const PrimeField& field, std::span<const uint64_t> a,
    std::span<const uint64_t> b, uint64_t n) {
  if (GetFpMulPath() != FpMulPath::kFast) return std::nullopt;
  if (a.empty() || b.empty() || a.size() > n || b.size() > n)
    return std::nullopt;
  if (n < GetFpNttThreshold()) return std::nullopt;
  if ((n & (n - 1)) != 0 || NttMaxLength(field.modulus()) < n)
    return std::nullopt;
  return Ntt::ForPrime(field.modulus())->CyclicConvolve(a, b, n);
}

}  // namespace polysse
