// Fixture: a walk written once over its ring, with its one real difference
// from FpCyclotomicRing marked where it forks, on the line above and on the
// line itself.
#ifndef FIXTURE_QUERY_SESSION_H_
#define FIXTURE_QUERY_SESSION_H_

#include <type_traits>

namespace polysse {

template <typename Ring>
class QuerySession {
 public:
  int Combine(int a, int b) const {
    // polysse-lint: allow(ring-fork): only this ring's filter is exact.
    if constexpr (kExact) return a + b;
    return std::is_same_v<Ring, FpCyclotomicRing> ? a : b;  // polysse-lint: allow(ring-fork)
  }

 private:
  static constexpr bool kExact = true;
};

}  // namespace polysse

#endif  // FIXTURE_QUERY_SESSION_H_
