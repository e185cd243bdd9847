#include "crypto/bloom.h"

#include "crypto/sha256.h"

namespace polysse {

size_t BloomFilter::popcount() const {
  size_t n = 0;
  for (bool b : bits_) n += b;
  return n;
}

std::vector<std::array<uint8_t, 32>> BloomWordTrapdoors(
    const DeterministicPrf& prf, int num_hashes, const std::string& word) {
  std::vector<std::array<uint8_t, 32>> out;
  out.reserve(num_hashes);
  for (int j = 0; j < num_hashes; ++j) {
    // Build the HMAC message in a named string so the span length is the
    // string's own: the old inline expression passed
    // word.size() + 8 + len(j), one past the real "bloom/<j>/<word>"
    // length, silently hashing the temporary's NUL terminator.
    const std::string message = "bloom/" + std::to_string(j) + "/" + word;
    out.push_back(HmacSha256(
        std::span<const uint8_t>(prf.seed().data(), prf.seed().size()),
        std::span<const uint8_t>(
            reinterpret_cast<const uint8_t*>(message.data()),
            message.size())));
  }
  return out;
}

size_t BloomPosition(const std::array<uint8_t, 32>& trapdoor,
                     const std::string& salt) {
  auto codeword = HmacSha256(
      std::span<const uint8_t>(trapdoor.data(), trapdoor.size()),
      std::span<const uint8_t>(reinterpret_cast<const uint8_t*>(salt.data()),
                               salt.size()));
  size_t pos = 0;
  for (int i = 0; i < 8; ++i) pos = pos << 8 | codeword[i];
  return pos;
}

DocBloomFilter DocBloomFilter::Build(const DeterministicPrf& seed,
                                     const std::string& salt,
                                     const std::vector<std::string>& words,
                                     const Options& options) {
  DocBloomFilter out(salt, BloomFilter(options.bits_per_doc));
  for (const std::string& w : words) {
    for (const auto& trapdoor :
         BloomWordTrapdoors(seed, options.num_hashes, w)) {
      out.filter_.Set(BloomPosition(trapdoor, salt));
    }
  }
  return out;
}

std::vector<std::array<uint8_t, 32>> DocBloomFilter::QueryTrapdoors(
    const DeterministicPrf& seed, const std::string& word,
    const Options& options) {
  return BloomWordTrapdoors(seed, options.num_hashes, word);
}

bool DocBloomFilter::MayContain(
    const std::vector<std::array<uint8_t, 32>>& trapdoors) const {
  for (const auto& trapdoor : trapdoors) {
    if (!filter_.Test(BloomPosition(trapdoor, salt_))) return false;
  }
  return true;
}

}  // namespace polysse
