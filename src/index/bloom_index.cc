#include "index/bloom_index.h"

#include "index/data_poly_index.h"

namespace polysse {

std::vector<std::array<uint8_t, 32>> BloomIndex::Trapdoors(
    const std::string& word) const {
  return BloomWordTrapdoors(prf_, options_.num_hashes, word);
}

BloomIndex BloomIndex::Build(const XmlNode& document,
                             const DeterministicPrf& seed) {
  return Build(document, seed, Options{});
}

BloomIndex BloomIndex::Build(const XmlNode& document,
                             const DeterministicPrf& seed,
                             const Options& options) {
  BloomIndex index(seed, options, {});
  document.Preorder([&](const XmlNode& n, const std::vector<int>& path) {
    NodeFilter nf{PathToString(path), BloomFilter(options.bits_per_node)};
    for (const std::string& w : TokenizeWords(n.text())) {
      for (const auto& trapdoor : index.Trapdoors(w)) {
        nf.filter.Set(BloomPosition(trapdoor, nf.path));
      }
    }
    index.nodes_.push_back(std::move(nf));
  });
  return index;
}

BloomIndex::QueryResult BloomIndex::Search(const std::string& word,
                                           const XmlNode& document) const {
  QueryResult out;
  auto trapdoors = Trapdoors(word);
  out.stats.bytes_up = trapdoors.size() * 32;
  std::string needle = word;
  for (auto& c : needle)
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));

  for (const NodeFilter& nf : nodes_) {
    ++out.stats.nodes_tested;
    bool positive = true;
    for (const auto& trapdoor : trapdoors) {
      if (!nf.filter.Test(BloomPosition(trapdoor, nf.path))) {
        positive = false;
        break;
      }
    }
    if (!positive) continue;
    ++out.stats.candidates;
    out.candidate_paths.push_back(nf.path);
    // Ground truth for FP accounting.
    std::vector<int> path;
    for (const char* p = nf.path.c_str(); *p;) {
      path.push_back(std::atoi(p));
      while (*p && *p != '/') ++p;
      if (*p == '/') ++p;
    }
    const XmlNode* xn = document.AtPath(path);
    bool truly_present = false;
    if (xn != nullptr) {
      for (const std::string& w : TokenizeWords(xn->text())) {
        if (w == needle) {
          truly_present = true;
          break;
        }
      }
    }
    if (truly_present) {
      out.verified_paths.push_back(nf.path);
    } else {
      ++out.stats.false_positives;
    }
  }
  return out;
}

size_t BloomIndex::PersistedBytes() const {
  size_t bytes = 0;
  for (const NodeFilter& nf : nodes_) {
    bytes += nf.filter.bit_count() / 8 + nf.path.size();
  }
  return bytes;
}

}  // namespace polysse
