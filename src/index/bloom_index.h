// The other §6 pointer, implemented: a Goh-style secure index [Goh 2003,
// paper ref 18]. Each element carries a Bloom filter of keyed word
// codewords; a query sends r trapdoors and the server tests each filter —
// constant-size per-node test, tunable false-positive rate, no ordering
// leak between words.
//
// Codeword derivation follows Goh's two-level construction:
//   trapdoor_j(w)  = HMAC(K_j, w)            (client secret, per query word)
//   codeword_j     = HMAC(trapdoor_j, path)  (server-computable per node)
// so the server can test membership given only the trapdoors, and identical
// words in different nodes map to unlinkable bits.
#ifndef POLYSSE_INDEX_BLOOM_INDEX_H_
#define POLYSSE_INDEX_BLOOM_INDEX_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "crypto/bloom.h"
#include "crypto/prf.h"
#include "util/status.h"
#include "xml/xml_node.h"

namespace polysse {

// BloomFilter, DocBloomFilter, and the two-level codeword derivations live
// in crypto/bloom.h (pure keyed hashing, below both this index and the
// collection pre-filter in the layer DAG); this header keeps the XML-aware
// per-node index built on top of them.

/// Per-node secure index over element text words.
class BloomIndex {
 public:
  struct Options {
    size_t bits_per_node = 256;  ///< filter size m
    int num_hashes = 4;          ///< r independent codeword keys
  };

  struct QueryStatsB {
    size_t nodes_tested = 0;
    size_t candidates = 0;       ///< Bloom-positive nodes
    size_t false_positives = 0;  ///< Bloom-positive but word absent
    size_t bytes_up = 0;         ///< r trapdoors
  };

  struct QueryResult {
    std::vector<std::string> candidate_paths;  ///< Bloom-positive (unverified)
    std::vector<std::string> verified_paths;   ///< confirmed against plaintext
    QueryStatsB stats;
  };

  /// Builds per-node filters for a document.
  static BloomIndex Build(const XmlNode& document, const DeterministicPrf& seed,
                          const Options& options);
  static BloomIndex Build(const XmlNode& document,
                          const DeterministicPrf& seed);

  /// Word query; `document` is consulted only to report the true
  /// false-positive count (a real client would verify via PayloadStore).
  QueryResult Search(const std::string& word, const XmlNode& document) const;

  size_t PersistedBytes() const;

 private:
  struct NodeFilter {
    std::string path;
    BloomFilter filter;
  };

  BloomIndex(DeterministicPrf prf, Options options,
             std::vector<NodeFilter> nodes)
      : prf_(std::move(prf)), options_(options), nodes_(std::move(nodes)) {}

  std::vector<std::array<uint8_t, 32>> Trapdoors(const std::string& word) const;

  DeterministicPrf prf_;
  Options options_;
  std::vector<NodeFilter> nodes_;
};

}  // namespace polysse

#endif  // POLYSSE_INDEX_BLOOM_INDEX_H_
