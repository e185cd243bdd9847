// Append-only storage for many small byte strings that all die together,
// such as the encoded polynomials one query walk collects. Blobs are copied
// into fixed-size blocks and named by 32-bit handles; nothing is freed one
// by one, and growing never moves what is already stored. Destroying (or
// reassigning) the arena releases every block at once.
#ifndef POLYSSE_UTIL_BYTE_ARENA_H_
#define POLYSSE_UTIL_BYTE_ARENA_H_

#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <vector>

#include "util/status.h"

namespace polysse {

class ByteArena {
 public:
  using Ref = uint32_t;
  /// A handle no blob ever gets.
  static constexpr Ref kNone = UINT32_MAX;

  /// Copies `bytes` in and returns their handle. A blob that does not fit
  /// in the current block's tail starts a new block (or, when longer than a
  /// block, a run of block slots of its own). OutOfRange once the handles
  /// would pass 4 GiB.
  Result<Ref> Put(std::span<const uint8_t> bytes) {
    const uint64_t need = sizeof(uint32_t) + bytes.size();
    uint64_t at = used_;
    const uint64_t capacity = uint64_t{slots_.size()} * kBlockBytes;
    if (need > capacity - at) {
      const uint64_t blocks = (need + kBlockBytes - 1) / kBlockBytes;
      at = capacity;
      if (at + blocks * kBlockBytes > kNone)
        return Status::OutOfRange("byte arena is full");
      owned_.push_back(
          std::unique_ptr<uint8_t[]>(new uint8_t[blocks * kBlockBytes]));
      for (uint64_t b = 0; b < blocks; ++b)
        slots_.push_back(owned_.back().get() + b * kBlockBytes);
    }
    uint8_t* p = Address(static_cast<Ref>(at));
    const uint32_t n = static_cast<uint32_t>(bytes.size());
    std::memcpy(p, &n, sizeof n);
    if (n > 0) std::memcpy(p + sizeof n, bytes.data(), n);
    used_ = at + need;
    return static_cast<Ref>(at);
  }

  /// The bytes stored under `ref` (valid until the arena goes).
  std::span<const uint8_t> Get(Ref ref) const {
    const uint8_t* p = Address(ref);
    uint32_t n;
    std::memcpy(&n, p, sizeof n);
    return {p + sizeof n, n};
  }

 private:
  static constexpr uint64_t kBlockBytes = 32 * 1024;

  uint8_t* Address(Ref ref) const {
    return slots_[ref / kBlockBytes] + ref % kBlockBytes;
  }

  std::vector<std::unique_ptr<uint8_t[]>> owned_;
  /// Start of every kBlockBytes slot of the handle space; a blob longer
  /// than a block spans consecutive slots of one allocation.
  std::vector<uint8_t*> slots_;
  uint64_t used_ = 0;  ///< the next free handle
};

}  // namespace polysse

#endif  // POLYSSE_UTIL_BYTE_ARENA_H_
