// Vectorized multi-point Horner evaluation over F_p: an AVX2 kernel that
// REDC-multiplies four evaluation points per instruction sweep, selected by
// runtime CPUID dispatch with PrimeField::HornerEval as the scalar fallback.
//
// The lane kernel runs 32-bit Montgomery arithmetic (R = 2^32) so each
// 64-bit SIMD lane holds one point's accumulator and every lane product fits
// a single VPMULUDQ — which is why it requires an odd modulus below 2^31.
// That bound is the library's serving regime: the field modulus tracks the
// tag-alphabet size (nt/primes.h PrimeForAlphabet), orders of magnitude
// below 2^31. Larger or even moduli take the scalar path with identical
// results; the differential battery in tests/simd_eval_test.cc and
// tests/arith_differential_test.cc pins the equivalence.
#ifndef POLYSSE_FIELD_SIMD_EVAL_H_
#define POLYSSE_FIELD_SIMD_EVAL_H_

#include <cstdint>
#include <span>

#include "field/prime_field.h"

namespace polysse {

/// Which kernel BatchHornerEval uses. kAuto (the default) picks the AVX2
/// lane kernel whenever the CPU supports AVX2, the environment variable
/// POLYSSE_DISABLE_AVX2 is unset (or "0"), and the modulus qualifies;
/// kScalar forces the scalar path. Global knob, relaxed atomic — same
/// contract as the mul-path knobs in poly/fp_conv.h.
enum class BatchEvalPath { kAuto, kScalar };

/// Sets the batch-evaluation path; returns the previous one.
BatchEvalPath SetBatchEvalPath(BatchEvalPath path);
BatchEvalPath GetBatchEvalPath();

/// True when BatchHornerEval would run the AVX2 lane kernel for this field:
/// path kAuto, SimdEnabled(SimdIsa::kAvx2) (util/cpu_features.h: CPUID
/// minus the POLYSSE_DISABLE_AVX2 override), odd modulus < 2^31. Exposed so
/// tests and the bench harness can assert which kernel they measured.
bool BatchEvalUsesSimd(const PrimeField& field);

/// out[i] = sum_j coeffs[j] * points[i]^j over the field, for every i.
/// Coefficients must be canonical; points may be any uint64 (reduced mod p
/// first, exactly like PrimeField::HornerEval). points and out must have
/// equal sizes and may alias. Four points per AVX2 sweep; the remainder and
/// every non-qualifying case run scalar Horner.
void BatchHornerEval(const PrimeField& field, std::span<const uint64_t> coeffs,
                     std::span<const uint64_t> points,
                     std::span<uint64_t> out);

}  // namespace polysse

#endif  // POLYSSE_FIELD_SIMD_EVAL_H_
