// Seeded inputs of the end-to-end benchmark and the plaintext oracle every
// answer is checked against. The program under test only ever receives what
// these generate: documents, tag names and verify modes.
#ifndef POLYSSE_BENCH_E2E_INPUTS_H_
#define POLYSSE_BENCH_E2E_INPUTS_H_

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/collection.h"
#include "crypto/prf.h"
#include "xml/xml_generator.h"

namespace polysse::bench {

inline constexpr size_t kDocNodes = 250;
inline constexpr size_t kTagAlphabet = 40;

/// The inputs of one run. The documents are the same for every seed: a
/// BFS walk lasts as many rounds as the deepest matching path is long, so
/// per-seed tree shapes would move the round and message counts by ~10%
/// between seeds without any change in the code. The seed draws everything
/// else — the client's secret seed (hence every share and the tag map), the
/// query stream and its verify modes.
class Inputs {
 public:
  explicit Inputs(uint64_t seed)
      : prf_(DeterministicPrf::FromString("polysse-bench/" +
                                          std::to_string(seed))),
        corpus_prf_(DeterministicPrf::FromString("polysse-bench/corpus")) {}

  /// Document `id`: kDocNodes elements, tags uniform over kTagAlphabet.
  /// Documents added during a run use ids past the initial corpus, so every
  /// id names one fixed document.
  XmlNode Document(DocId id) const {
    XmlGeneratorOptions gen;
    gen.num_nodes = kDocNodes;
    gen.max_fanout = 4;
    gen.tag_alphabet = kTagAlphabet;
    gen.seed = corpus_prf_.ValueU64("doc/" + std::to_string(id));
    return GenerateXmlTree(gen);
  }

  ChaChaRng Stream(const std::string& label) const {
    return prf_.Stream(label);
  }

  /// The client master seed the owner outsources under.
  DeterministicPrf ClientSeed() const {
    ChaChaRng rng = prf_.Stream("client-seed");
    std::array<uint8_t, DeterministicPrf::kSeedSize> seed{};
    rng.Fill(seed);
    return DeterministicPrf(seed);
  }

 private:
  DeterministicPrf prf_;
  DeterministicPrf corpus_prf_;
};

/// Zipf-distributed tag names, stratified: each block of kBlock draws holds
/// every rank exactly as often as its Zipf weight says (largest-remainder
/// rounding), shuffled. The mix a run sees is therefore the distribution
/// itself rather than a sample of it, which keeps per-op averages steady
/// across seeds. The rank-to-tag assignment is drawn from the seed.
class TagStream {
 public:
  static constexpr size_t kBlock = 200;

  TagStream(ChaChaRng rng, double zipf_s) : rng_(std::move(rng)) {
    std::vector<size_t> tags(kTagAlphabet);
    for (size_t i = 0; i < tags.size(); ++i) tags[i] = i;
    Shuffle(&tags);
    std::vector<double> weight(kTagAlphabet);
    double total = 0;
    for (size_t r = 0; r < kTagAlphabet; ++r)
      total += weight[r] = 1.0 / std::pow(static_cast<double>(r + 1), zipf_s);
    std::vector<std::pair<double, size_t>> remainders;
    size_t placed = 0;
    for (size_t r = 0; r < kTagAlphabet; ++r) {
      const double share = weight[r] / total * kBlock;
      const size_t whole = static_cast<size_t>(share);
      block_.insert(block_.end(), whole, tags[r]);
      placed += whole;
      remainders.emplace_back(share - static_cast<double>(whole), r);
    }
    std::sort(remainders.begin(), remainders.end(),
              [](const auto& a, const auto& b) { return a.first > b.first; });
    for (size_t i = 0; placed < kBlock; ++i, ++placed)
      block_.push_back(tags[remainders[i].second]);
    next_ = block_.size();
  }

  std::string Next() {
    if (next_ == block_.size()) {
      Shuffle(&block_);
      next_ = 0;
    }
    return "tag" + std::to_string(block_[next_++]);
  }

 private:
  void Shuffle(std::vector<size_t>* v) {
    for (size_t i = v->size(); i > 1; --i)
      std::swap((*v)[i - 1], (*v)[rng_.NextBelow(i)]);
  }

  ChaChaRng rng_;
  std::vector<size_t> block_;
  size_t next_ = 0;
};

/// Plaintext ground truth per live document: for every tag, the child-index
/// paths of its elements in document order — the same order and path
/// format the collection facades report.
class Oracle {
 public:
  void AddDoc(DocId id, const XmlNode& doc) {
    auto& by_tag = docs_[id];
    doc.Preorder([&](const XmlNode& n, const std::vector<int>& path) {
      by_tag[n.name()].push_back(PathToString(path));
    });
  }
  void RemoveDoc(DocId id) { docs_.erase(id); }

  /// Checks one query's per-document answer. Verified and trusted answers
  /// must equal the truth; optimistic ones must satisfy
  /// matches ⊆ truth ⊆ matches ∪ possible. Returns "" when correct,
  /// otherwise what was wrong.
  std::string Check(const std::string& tag, VerifyMode mode,
                    const std::map<DocId, LookupResult>& per_doc) const {
    for (const auto& [id, result] : per_doc) {
      if (!docs_.count(id))
        return "answer names doc " + std::to_string(id) +
               ", which is not live";
    }
    static const std::vector<std::string> kNone;
    for (const auto& [id, by_tag] : docs_) {
      auto t = by_tag.find(tag);
      const std::vector<std::string>& truth =
          t == by_tag.end() ? kNone : t->second;
      std::vector<std::string> matches, possible;
      if (auto r = per_doc.find(id); r != per_doc.end()) {
        for (const MatchedNode& m : r->second.matches)
          matches.push_back(m.path);
        for (const MatchedNode& m : r->second.possible)
          possible.push_back(m.path);
      }
      if (mode != VerifyMode::kOptimistic) {
        if (matches != truth || !possible.empty())
          return "doc " + std::to_string(id) + " //" + tag +
                 ": answer differs from the plaintext truth";
        continue;
      }
      std::vector<std::string> sorted_truth = truth;
      std::sort(sorted_truth.begin(), sorted_truth.end());
      std::sort(matches.begin(), matches.end());
      std::vector<std::string> either = matches;
      either.insert(either.end(), possible.begin(), possible.end());
      std::sort(either.begin(), either.end());
      if (!std::includes(sorted_truth.begin(), sorted_truth.end(),
                         matches.begin(), matches.end()) ||
          !std::includes(either.begin(), either.end(), sorted_truth.begin(),
                         sorted_truth.end()))
        return "doc " + std::to_string(id) + " //" + tag +
               ": optimistic answer violates matches <= truth <= "
               "matches + possible";
    }
    return "";
  }

 private:
  std::map<DocId, std::map<std::string, std::vector<std::string>>> docs_;
};

}  // namespace polysse::bench

#endif  // POLYSSE_BENCH_E2E_INPUTS_H_
