// Fixture: a walk that forks on its ring twice without saying why. The
// ZQuotientRing named in this comment, and the one in the string below,
// are not forks.
#ifndef FIXTURE_QUERY_SESSION_H_
#define FIXTURE_QUERY_SESSION_H_

#include <type_traits>

namespace polysse {

template <typename Ring>
class QuerySession {
 public:
  int Combine(int a, int b) const {
    if constexpr (kExact) return a + b;
    return std::is_same_v<Ring, FpCyclotomicRing> ? a : b;
  }
  const char* Name() const { return "ZQuotientRing"; }

 private:
  static constexpr bool kExact = true;
};

}  // namespace polysse

#endif  // FIXTURE_QUERY_SESSION_H_
