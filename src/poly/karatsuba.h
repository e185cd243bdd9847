// The Karatsuba recursion skeleton, shared by the two coefficient rings:
// fp_conv.cc instantiates it with word coefficients and the F_p
// schoolbook base case, z_poly.cc with BigInt coefficients. The Ops
// parameter supplies the base-case product and the ring's add/sub, so the
// split logic — threshold gate, unbalanced-operand branch, half-sum middle
// term — lives exactly once.
#ifndef POLYSSE_POLY_KARATSUBA_H_
#define POLYSSE_POLY_KARATSUBA_H_

#include <algorithm>
#include <span>
#include <utility>
#include <vector>

namespace polysse {
namespace karatsuba_internal {

template <typename Ops, typename T>
void AddInto(const Ops& ops, std::span<const T> src, size_t at,
             std::vector<T>& out) {
  for (size_t i = 0; i < src.size(); ++i)
    out[at + i] = ops.Add(out[at + i], src[i]);
}

}  // namespace karatsuba_internal

/// Product of non-empty coefficient spans `a` and `b`: Ops::Schoolbook when
/// the shorter operand is at or below `threshold` (>= 1), Karatsuba above
/// it. Returns the a.size()+b.size()-1 raw product coefficients.
///
/// Ops must provide (T is the coefficient type, T{} its zero):
///   std::vector<T> Schoolbook(std::span<const T>, std::span<const T>) const
///   T Add(const T&, const T&) const
///   T Sub(const T&, const T&) const
template <typename Ops, typename T>
std::vector<T> KaratsubaMul(const Ops& ops, std::span<const T> a,
                            std::span<const T> b, size_t threshold) {
  using karatsuba_internal::AddInto;
  if (std::min(a.size(), b.size()) <= threshold) return ops.Schoolbook(a, b);
  if (a.size() < b.size()) std::swap(a, b);
  const size_t h = a.size() / 2;
  if (b.size() <= h) {
    // Unbalanced operands: split only the longer one. Karatsuba saves
    // nothing until the halves are comparable.
    std::vector<T> out(a.size() + b.size() - 1);
    const std::vector<T> lo = KaratsubaMul(ops, a.first(h), b, threshold);
    const std::vector<T> hi = KaratsubaMul(ops, a.subspan(h), b, threshold);
    AddInto(ops, std::span<const T>(lo), 0, out);
    AddInto(ops, std::span<const T>(hi), h, out);
    return out;
  }
  // Karatsuba on (a0 + a1 x^h)(b0 + b1 x^h): three products of ~half size,
  // with the middle term (a0+a1)(b0+b1) - z0 - z2.
  const std::span<const T> a0 = a.first(h), a1 = a.subspan(h);
  const std::span<const T> b0 = b.first(h), b1 = b.subspan(h);
  const std::vector<T> z0 = KaratsubaMul(ops, a0, b0, threshold);
  const std::vector<T> z2 = KaratsubaMul(ops, a1, b1, threshold);
  std::vector<T> as(std::max(a0.size(), a1.size()));
  for (size_t i = 0; i < as.size(); ++i)
    as[i] = ops.Add(i < a0.size() ? a0[i] : T{}, i < a1.size() ? a1[i] : T{});
  std::vector<T> bs(std::max(b0.size(), b1.size()));
  for (size_t i = 0; i < bs.size(); ++i)
    bs[i] = ops.Add(i < b0.size() ? b0[i] : T{}, i < b1.size() ? b1[i] : T{});
  std::vector<T> z1 = KaratsubaMul(ops, std::span<const T>(as),
                                   std::span<const T>(bs), threshold);
  for (size_t i = 0; i < z0.size(); ++i) z1[i] = ops.Sub(z1[i], z0[i]);
  for (size_t i = 0; i < z2.size(); ++i) z1[i] = ops.Sub(z1[i], z2[i]);
  std::vector<T> out(a.size() + b.size() - 1);
  AddInto(ops, std::span<const T>(z0), 0, out);
  AddInto(ops, std::span<const T>(z1), h, out);
  AddInto(ops, std::span<const T>(z2), 2 * h, out);
  return out;
}

}  // namespace polysse

#endif  // POLYSSE_POLY_KARATSUBA_H_
