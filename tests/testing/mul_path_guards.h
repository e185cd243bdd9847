// Scoped guards for the global multiplication-path and Karatsuba-threshold
// knobs, so a test can force the reference kernel or a deep-recursion
// threshold and reliably restore the default even on early exit. Shared by
// the differential, golden-vector, and e2e suites.
#ifndef POLYSSE_TESTS_TESTING_MUL_PATH_GUARDS_H_
#define POLYSSE_TESTS_TESTING_MUL_PATH_GUARDS_H_

#include <cstddef>

#include "poly/fp_conv.h"
#include "poly/z_poly.h"

namespace polysse {
namespace testing {

class ScopedFpMulPath {
 public:
  explicit ScopedFpMulPath(FpMulPath path) : prev_(SetFpMulPath(path)) {}
  ~ScopedFpMulPath() { SetFpMulPath(prev_); }
  ScopedFpMulPath(const ScopedFpMulPath&) = delete;
  ScopedFpMulPath& operator=(const ScopedFpMulPath&) = delete;

 private:
  FpMulPath prev_;
};

class ScopedZMulPath {
 public:
  explicit ScopedZMulPath(ZMulPath path) : prev_(SetZMulPath(path)) {}
  ~ScopedZMulPath() { SetZMulPath(prev_); }
  ScopedZMulPath(const ScopedZMulPath&) = delete;
  ScopedZMulPath& operator=(const ScopedZMulPath&) = delete;

 private:
  ZMulPath prev_;
};

class ScopedFpKaratsubaThreshold {
 public:
  explicit ScopedFpKaratsubaThreshold(size_t t)
      : prev_(SetFpKaratsubaThreshold(t)) {}
  ~ScopedFpKaratsubaThreshold() { SetFpKaratsubaThreshold(prev_); }
  ScopedFpKaratsubaThreshold(const ScopedFpKaratsubaThreshold&) = delete;
  ScopedFpKaratsubaThreshold& operator=(const ScopedFpKaratsubaThreshold&) =
      delete;

 private:
  size_t prev_;
};

class ScopedFpNttThreshold {
 public:
  explicit ScopedFpNttThreshold(size_t t) : prev_(SetFpNttThreshold(t)) {}
  ~ScopedFpNttThreshold() { SetFpNttThreshold(prev_); }
  ScopedFpNttThreshold(const ScopedFpNttThreshold&) = delete;
  ScopedFpNttThreshold& operator=(const ScopedFpNttThreshold&) = delete;

 private:
  size_t prev_;
};

class ScopedZKaratsubaThreshold {
 public:
  explicit ScopedZKaratsubaThreshold(size_t t)
      : prev_(SetZKaratsubaThreshold(t)) {}
  ~ScopedZKaratsubaThreshold() { SetZKaratsubaThreshold(prev_); }
  ScopedZKaratsubaThreshold(const ScopedZKaratsubaThreshold&) = delete;
  ScopedZKaratsubaThreshold& operator=(const ScopedZKaratsubaThreshold&) =
      delete;

 private:
  size_t prev_;
};

}  // namespace testing
}  // namespace polysse

#endif  // POLYSSE_TESTS_TESTING_MUL_PATH_GUARDS_H_
