// Runtime selection of the SIMD kernels: the AVX2 point-power dot product
// (field/simd_eval.h), the 8-block AVX2 ChaCha20 keystream and the SHA-NI
// SHA-256 compression (crypto/). Each kernel produces exactly the bytes of
// its scalar reference, so the choice changes speed, never output. Setting
// POLYSSE_DISABLE_AVX2 (to anything but "" or "0") forces every kernel onto
// its scalar path, which is how the tests and the generic-arch CI job cover
// the scalar code on any host.
#ifndef POLYSSE_UTIL_CPU_FEATURES_H_
#define POLYSSE_UTIL_CPU_FEATURES_H_

namespace polysse {

/// Instruction-set extensions a kernel can require.
enum class SimdIsa { kAvx2, kShaNi };

/// True when CPUID reports `isa` and POLYSSE_DISABLE_AVX2 is unset or "0".
/// Both are read once per process (the ctest registrations that set the
/// override run in a fresh process). Always false off x86-64.
bool SimdEnabled(SimdIsa isa);

}  // namespace polysse

#endif  // POLYSSE_UTIL_CPU_FEATURES_H_
