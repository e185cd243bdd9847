// Coefficient-vector convolution kernels over F_p: the quadratic reference
// and the three-tier fast path:
//   1. schoolbook at or below the Karatsuba threshold. Each product
//      coefficient is one lazy-reduction dot product (field/simd_eval.h):
//      unreduced 64-bit products, reduced once per coefficient, or once per
//      floor((2^64-1)/(p-1)^2) products when fewer fit; AVX2 or scalar as
//      SimdEnabled(kAvx2) says. When p-1 >= 2^32 no product fits 64 bits
//      and the base case is Montgomery instead: the shorter operand is
//      converted once, products are summed in 128 bits, one REDC per
//      floor(2^64/p) of them;
//   2. Karatsuba above the threshold;
//   3. radix-2 NTT above the NTT crossover, when the modulus is NTT-friendly
//      at the required transform length.
// FpPoly::operator* and FpCyclotomicRing::Mul/MulInto dispatch here through
// ConvolveInto; the reference and Karatsuba paths and the knobs stay
// exported so the differential suite and the bench harness can pit all
// three implementations against each other on identical inputs.
#ifndef POLYSSE_POLY_FP_CONV_H_
#define POLYSSE_POLY_FP_CONV_H_

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "field/prime_field.h"

namespace polysse {

/// Which implementation FpPoly::operator* uses. kFast is the default (full
/// schoolbook -> Karatsuba -> NTT dispatch); kKaratsuba disables the NTT
/// tier so the sub-quadratic path stays forceable; kReference forces the
/// plain quadratic kernel so golden vectors can be asserted against every
/// path. Global test/bench knob; reads and writes are relaxed atomics, so
/// flipping it is safe against concurrent multiplies (each multiply sees
/// one coherent path), but tests that flip it own the ordering.
enum class FpMulPath { kFast, kKaratsuba, kReference };

/// Sets the multiplication path; returns the previous one.
FpMulPath SetFpMulPath(FpMulPath path);
FpMulPath GetFpMulPath();

/// Karatsuba crossover in coefficient count: operand pairs whose shorter
/// side is at or below the threshold multiply by schoolbook.
/// Returns the previous value; passing 0 restores the tuned default
/// (values >= 1 are used as-is). Test/bench knob, atomic like the path.
size_t SetFpKaratsubaThreshold(size_t threshold);
size_t GetFpKaratsubaThreshold();

/// NTT crossover in coefficient count: operand pairs whose shorter side is
/// at or above the threshold take the NTT tier, provided the modulus admits
/// a transform of the required length (2^v2(p-1) >= padded product size) —
/// otherwise Karatsuba serves regardless of size. Same contract as the
/// Karatsuba knob: 0 restores the tuned default, atomic.
size_t SetFpNttThreshold(size_t threshold);
size_t GetFpNttThreshold();

/// Reference quadratic convolution in the plain domain (one hardware
/// division per inner product). Returns the a.size()+b.size()-1 raw product
/// coefficients, not normalized; empty when either input is empty.
std::vector<uint64_t> ConvolveSchoolbook(const PrimeField& field,
                                         std::span<const uint64_t> a,
                                         std::span<const uint64_t> b);

/// The sub-quadratic tier alone: Karatsuba above the threshold, schoolbook
/// (tier 1 above) below it.
/// Same contract as ConvolveSchoolbook. This is both the kKaratsuba forced
/// path and the fallback when the modulus is not NTT-friendly.
std::vector<uint64_t> ConvolveKaratsuba(const PrimeField& field,
                                        std::span<const uint64_t> a,
                                        std::span<const uint64_t> b);

/// Full fast dispatch: NTT when the size clears the NTT threshold and the
/// modulus supports the padded transform length, Karatsuba/schoolbook
/// otherwise. Same contract as ConvolveSchoolbook.
std::vector<uint64_t> ConvolveFast(const PrimeField& field,
                                   std::span<const uint64_t> a,
                                   std::span<const uint64_t> b);

/// The product on the path GetFpMulPath() selects (ConvolveFast,
/// ConvolveKaratsuba or ConvolveSchoolbook), into out's storage: the
/// schoolbook tier writes in place, so a caller that keeps `out` across
/// products of at most the Karatsuba threshold allocates nothing. Same
/// coefficients as the selected function; out is cleared when either
/// input is empty.
void ConvolveInto(const PrimeField& field, std::span<const uint64_t> a,
                  std::span<const uint64_t> b, std::vector<uint64_t>* out);

/// Cyclic convolution of length n — the product in F_p[x]/(x^n - 1) — via a
/// no-padding NTT, for FpCyclotomicRing::Mul where n = p-1 is the ring's
/// natural fold length. Engages only when the current path is kFast, n is a
/// power of two the modulus supports, n clears the NTT threshold, and both
/// operands fit in n coefficients; nullopt tells the caller to fall back to
/// linear multiply + fold.
std::optional<std::vector<uint64_t>> TryCyclicNttConvolve(
    const PrimeField& field, std::span<const uint64_t> a,
    std::span<const uint64_t> b, uint64_t n);

}  // namespace polysse

#endif  // POLYSSE_POLY_FP_CONV_H_
