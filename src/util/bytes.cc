#include "util/bytes.h"

namespace polysse {

namespace {
Status Truncated(const char* what) {
  return Status::Corruption(std::string("truncated input reading ") + what);
}

enum class VarintFault { kNone, kTruncated, kOverflow, kTooLong };

// Decodes the LEB128 varint at data[*pos] into *v, moving *pos past every
// byte it read, also when it fails (*v is then left alone). A 10th byte
// above 1 would overflow 64 bits; an 11th byte is never read.
inline VarintFault DecodeVarint(const uint8_t* data, size_t size, size_t* pos,
                                uint64_t* v) {
  uint64_t acc = 0;
  size_t at = *pos;
  for (int shift = 0; shift < 64; shift += 7) {
    if (at == size) {
      *pos = at;
      return VarintFault::kTruncated;
    }
    const uint8_t byte = data[at++];
    acc |= static_cast<uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) {
      *pos = at;
      if (shift == 63 && byte > 1) return VarintFault::kOverflow;
      *v = acc;
      return VarintFault::kNone;
    }
  }
  *pos = at;
  return VarintFault::kTooLong;
}

Status VarintStatus(VarintFault fault) {
  switch (fault) {
    case VarintFault::kNone:
      break;
    case VarintFault::kTruncated:
      return Truncated("varint");
    case VarintFault::kOverflow:
      return Status::Corruption("varint overflows 64 bits");
    case VarintFault::kTooLong:
      return Status::Corruption("varint longer than 10 bytes");
  }
  return Status::Ok();
}
}  // namespace

void ByteWriter::PutVarint64(uint64_t v) {
  while (v >= 0x80) {
    buf_.push_back(static_cast<uint8_t>(v) | 0x80);
    v >>= 7;
  }
  buf_.push_back(static_cast<uint8_t>(v));
}

void ByteWriter::PutVarints(std::span<const uint64_t> values) {
  uint64_t any = 0;
  for (uint64_t v : values) any |= v;
  const size_t at = buf_.size();
  if (any < 0x80) {
    buf_.resize(at + values.size());
    uint8_t* dst = buf_.data() + at;
    for (size_t i = 0; i < values.size(); ++i)
      dst[i] = static_cast<uint8_t>(values[i]);
    return;
  }
  size_t bytes = 0;
  for (uint64_t v : values) bytes += VarintSize(v);
  buf_.resize(at + bytes);
  uint8_t* dst = buf_.data() + at;
  for (uint64_t v : values) {
    while (v >= 0x80) {
      *dst++ = static_cast<uint8_t>(v) | 0x80;
      v >>= 7;
    }
    *dst++ = static_cast<uint8_t>(v);
  }
}

void ByteWriter::PutVarintSigned64(int64_t v) {
  // Zig-zag: maps small-magnitude signed values to small unsigned values.
  PutVarint64((static_cast<uint64_t>(v) << 1) ^ static_cast<uint64_t>(v >> 63));
}

Result<uint64_t> ByteReader::GetLittleEndian(int n) {
  if (remaining() < static_cast<size_t>(n)) return Truncated("fixed int");
  uint64_t v = 0;
  for (int i = 0; i < n; ++i) v |= static_cast<uint64_t>(data_[pos_ + i]) << (8 * i);
  pos_ += n;
  return v;
}

Result<uint8_t> ByteReader::GetU8() {
  ASSIGN_OR_RETURN(uint64_t v, GetLittleEndian(1));
  return static_cast<uint8_t>(v);
}
Result<uint16_t> ByteReader::GetU16() {
  ASSIGN_OR_RETURN(uint64_t v, GetLittleEndian(2));
  return static_cast<uint16_t>(v);
}
Result<uint32_t> ByteReader::GetU32() {
  ASSIGN_OR_RETURN(uint64_t v, GetLittleEndian(4));
  return static_cast<uint32_t>(v);
}
Result<uint64_t> ByteReader::GetU64() { return GetLittleEndian(8); }

Result<uint64_t> ByteReader::GetVarint64() {
  uint64_t v = 0;
  const VarintFault fault = DecodeVarint(data_.data(), data_.size(), &pos_, &v);
  if (fault != VarintFault::kNone) return VarintStatus(fault);
  return v;
}

Status ByteReader::GetVarints(std::span<uint64_t> out) {
  const uint8_t* data = data_.data();
  const size_t size = data_.size();
  size_t i = 0;
  while (i < out.size()) {
    // Eight single-byte varints at once when none of the next eight bytes
    // carries a continuation bit.
    if (out.size() - i >= 8 && size - pos_ >= 8) {
      uint64_t word;
      std::memcpy(&word, data + pos_, sizeof word);
      if ((word & 0x8080808080808080ull) == 0) {
        for (size_t k = 0; k < 8; ++k) out[i + k] = data[pos_ + k];
        i += 8;
        pos_ += 8;
        continue;
      }
    }
    const VarintFault fault = DecodeVarint(data, size, &pos_, &out[i]);
    if (fault != VarintFault::kNone) return VarintStatus(fault);
    ++i;
  }
  return Status::Ok();
}

Result<int64_t> ByteReader::GetVarintSigned64() {
  ASSIGN_OR_RETURN(uint64_t z, GetVarint64());
  return static_cast<int64_t>((z >> 1) ^ (~(z & 1) + 1));
}

Result<std::vector<uint8_t>> ByteReader::GetBytes(size_t n) {
  if (remaining() < n) return Truncated("raw bytes");
  std::vector<uint8_t> out(data_.begin() + pos_, data_.begin() + pos_ + n);
  pos_ += n;
  return out;
}

Result<std::vector<uint8_t>> ByteReader::GetLengthPrefixed() {
  ASSIGN_OR_RETURN(uint64_t n, GetVarint64());
  if (n > remaining()) return Truncated("length-prefixed bytes");
  return GetBytes(n);
}

Result<std::string> ByteReader::GetLengthPrefixedString() {
  ASSIGN_OR_RETURN(std::vector<uint8_t> bytes, GetLengthPrefixed());
  return std::string(bytes.begin(), bytes.end());
}

}  // namespace polysse
