#include "util/cpu_features.h"

#include <cstdlib>

#if defined(__x86_64__)
#include <cpuid.h>
#endif

namespace polysse {

#if defined(__x86_64__)
namespace {

bool OverrideSet() {
  const char* env = std::getenv("POLYSSE_DISABLE_AVX2");
  return env != nullptr && env[0] != '\0' &&
         !(env[0] == '0' && env[1] == '\0');
}

// The SHA-NI kernel also uses SSSE3 byte shuffles and the SSE4.1 blend.
// Read through <cpuid.h> rather than __builtin_cpu_supports, whose "sha"
// name not every compiler accepts.
bool ShaNiSupported() {
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (__get_cpuid(1, &eax, &ebx, &ecx, &edx) == 0) return false;
  const bool ssse3 = (ecx & bit_SSSE3) != 0;
  const bool sse41 = (ecx & bit_SSE4_1) != 0;
  if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) == 0) return false;
  return ssse3 && sse41 && (ebx & bit_SHA) != 0;
}

}  // namespace

bool SimdEnabled(SimdIsa isa) {
  static const bool disabled = OverrideSet();
  // __builtin_cpu_supports also checks that the OS saves the YMM state.
  static const bool avx2 = !disabled && __builtin_cpu_supports("avx2");
  static const bool sha_ni = !disabled && ShaNiSupported();
  return isa == SimdIsa::kAvx2 ? avx2 : sha_ni;
}

#else

bool SimdEnabled(SimdIsa) { return false; }

#endif  // __x86_64__

}  // namespace polysse
