// Byte-level serialization primitives used by on-disk layouts, the wire
// protocol (bandwidth accounting) and the storage model of DESIGN.md E7.
// All multi-byte integers are little-endian; varints are LEB128.
#ifndef POLYSSE_UTIL_BYTES_H_
#define POLYSSE_UTIL_BYTES_H_

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace polysse {

/// Append-only buffer of bytes with typed Put* helpers.
class ByteWriter {
 public:
  ByteWriter() = default;

  void PutU8(uint8_t v) { buf_.push_back(v); }
  void PutU16(uint16_t v) { PutLittleEndian(v, 2); }
  void PutU32(uint32_t v) { PutLittleEndian(v, 4); }
  void PutU64(uint64_t v) { PutLittleEndian(v, 8); }

  /// LEB128 unsigned varint: 1 byte for values < 128.
  void PutVarint64(uint64_t v);
  /// Zig-zag signed varint.
  void PutVarintSigned64(int64_t v);
  /// The bytes of PutVarint64 for every value in turn, written in one pass.
  /// A run whose values are all below 128 (every coefficient at p <= 128)
  /// is copied one byte per value.
  void PutVarints(std::span<const uint64_t> values);

  void PutBytes(std::span<const uint8_t> bytes) {
    buf_.insert(buf_.end(), bytes.begin(), bytes.end());
  }
  void PutString(std::string_view s) {
    const auto* p = reinterpret_cast<const uint8_t*>(s.data());
    buf_.insert(buf_.end(), p, p + s.size());
  }
  /// Varint length followed by the raw bytes.
  void PutLengthPrefixed(std::span<const uint8_t> bytes) {
    PutVarint64(bytes.size());
    PutBytes(bytes);
  }
  void PutLengthPrefixedString(std::string_view s) {
    PutVarint64(s.size());
    PutString(s);
  }

  size_t size() const { return buf_.size(); }
  bool empty() const { return buf_.empty(); }
  const std::vector<uint8_t>& bytes() const { return buf_; }
  std::span<const uint8_t> span() const { return buf_; }

  /// Moves the accumulated bytes out, leaving the writer empty.
  std::vector<uint8_t> Take() { return std::move(buf_); }
  /// Empties the writer but keeps its buffer, so one writer can encode many
  /// short strings without reallocating.
  void Clear() { buf_.clear(); }
  /// Makes room for `n` more bytes up front (a large message then grows
  /// its buffer once instead of doubling its way there).
  void Reserve(size_t n) { buf_.reserve(buf_.size() + n); }

  /// Bytes PutVarint64(v) writes.
  static size_t VarintSize(uint64_t v) {
    size_t n = 1;
    while (v >= 0x80) {
      v >>= 7;
      ++n;
    }
    return n;
  }

 private:
  void PutLittleEndian(uint64_t v, int n) {
    for (int i = 0; i < n; ++i) buf_.push_back(static_cast<uint8_t>(v >> (8 * i)));
  }

  std::vector<uint8_t> buf_;
};

/// Sequential reader over a byte span. Does not own the bytes.
class ByteReader {
 public:
  explicit ByteReader(std::span<const uint8_t> data) : data_(data) {}

  Result<uint8_t> GetU8();
  Result<uint16_t> GetU16();
  Result<uint32_t> GetU32();
  Result<uint64_t> GetU64();
  Result<uint64_t> GetVarint64();
  Result<int64_t> GetVarintSigned64();
  /// Reads out.size() varints exactly as that many GetVarint64 calls would:
  /// the same values, the same error, and the same position after it (on an
  /// error, out holds the values read before it and nothing past them).
  /// Runs of single-byte varints are decoded eight at a time.
  Status GetVarints(std::span<uint64_t> out);
  /// Reads exactly n bytes.
  Result<std::vector<uint8_t>> GetBytes(size_t n);
  /// Varint length followed by that many bytes.
  Result<std::vector<uint8_t>> GetLengthPrefixed();
  Result<std::string> GetLengthPrefixedString();

  size_t remaining() const { return data_.size() - pos_; }
  bool AtEnd() const { return pos_ == data_.size(); }
  size_t position() const { return pos_; }

 private:
  Result<uint64_t> GetLittleEndian(int n);

  std::span<const uint8_t> data_;
  size_t pos_ = 0;
};

}  // namespace polysse

#endif  // POLYSSE_UTIL_BYTES_H_
