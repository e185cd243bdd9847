// Keyed Bloom-filter primitives, shared between the per-node Goh-style
// secure index (index/bloom_index.h) and the collection query path's
// per-document pre-filter (core/collection.h). They live in crypto/ — below
// both users in the layer DAG — because the construction is pure keyed
// hashing: no XML, no indexes, no protocol.
//
// Codeword derivation follows Goh's two-level construction [Goh 2003]:
//   trapdoor_j(w)  = HMAC(K_j, w)            (client secret, per query word)
//   codeword_j     = HMAC(trapdoor_j, salt)  (testable given the trapdoors)
// so a holder of the trapdoors can test membership without the key, and
// identical words under different salts map to unlinkable bits.
#ifndef POLYSSE_CRYPTO_BLOOM_H_
#define POLYSSE_CRYPTO_BLOOM_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "crypto/prf.h"

namespace polysse {

/// A fixed-size Bloom filter over keyed codewords.
class BloomFilter {
 public:
  explicit BloomFilter(size_t bits) : bits_(bits, false) {}

  void Set(size_t position) { bits_[position % bits_.size()] = true; }
  bool Test(size_t position) const { return bits_[position % bits_.size()]; }
  size_t bit_count() const { return bits_.size(); }
  size_t popcount() const;

 private:
  std::vector<bool> bits_;
};

/// Goh's level-1 derivation: HMAC(seed, "bloom/<j>/<word>") for j in
/// [0, num_hashes). The exact message bytes are pinned by a regression test
/// (index_test) — changing them silently invalidates every built filter.
std::vector<std::array<uint8_t, 32>> BloomWordTrapdoors(
    const DeterministicPrf& prf, int num_hashes, const std::string& word);

/// Level-2 derivation: the filter position of one trapdoor under `salt`
/// (a node path for the per-node index, a share prefix for the per-doc
/// pre-filter).
size_t BloomPosition(const std::array<uint8_t, 32>& trapdoor,
                     const std::string& salt);

/// One whole-document Bloom filter over a word set (e.g. a document's
/// distinct tags), salted per document so identical words set unlinkable
/// bits across documents. The collection query path uses it as a
/// pre-filter: a document whose filter rejects every queried word can
/// never match (no false negatives), so it is skipped before the shared
/// BFS frontier even forms; false positives only cost walk work.
class DocBloomFilter {
 public:
  struct Options {
    size_t bits_per_doc = 512;  ///< filter size m
    int num_hashes = 4;         ///< r independent codeword keys
  };

  /// Builds the filter for one document: `salt` must be unique per
  /// document (the share prefix is a natural choice), `words` its indexed
  /// word set.
  static DocBloomFilter Build(const DeterministicPrf& seed,
                              const std::string& salt,
                              const std::vector<std::string>& words,
                              const Options& options);

  /// The query-side half of one word's test, computed once per query and
  /// reused against every document's filter.
  static std::vector<std::array<uint8_t, 32>> QueryTrapdoors(
      const DeterministicPrf& seed, const std::string& word,
      const Options& options);

  /// False means the word is definitively absent from the document.
  bool MayContain(
      const std::vector<std::array<uint8_t, 32>>& trapdoors) const;

  size_t bit_count() const { return filter_.bit_count(); }

 private:
  DocBloomFilter(std::string salt, BloomFilter filter)
      : salt_(std::move(salt)), filter_(std::move(filter)) {}

  std::string salt_;
  BloomFilter filter_;
};

}  // namespace polysse

#endif  // POLYSSE_CRYPTO_BLOOM_H_
