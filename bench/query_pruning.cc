// E8 — the efficiency claim of §4.3/§5: "a branch can be marked as a
// dead-end in a very early stage. Thus, only a small portion of the tree
// has to be examined."
//
// Sweeps tree size, fan-out and tag selectivity; reports the fraction of
// the server tree actually visited vs a full traversal, plus answer
// correctness against the plaintext oracle, plus the Z-ring evaluation-
// filter false-positive rate with unsafe vs safe tag mappings.
#include <cstdio>

#include "baseline/plaintext_search.h"
#include "core/outsource.h"
#include "core/query_session.h"
#include "testing/deploy_helpers.h"
#include "xml/xml_generator.h"

int main() {
  using namespace polysse;
  using namespace polysse::testing;
  std::printf("=== E8 / query pruning: visited fraction and correctness ===\n\n");
  DeterministicPrf seed = DeterministicPrf::FromString("pruning-bench");

  std::printf("%6s %7s %9s | %8s %8s %10s %8s | %7s\n", "nodes", "fanout",
              "alphabet", "tag", "matches", "visited", "fraction", "correct");
  for (size_t n : {100u, 1000u, 10000u, 50000u}) {
    for (int fanout : {2, 8}) {
      XmlGeneratorOptions gen;
      gen.num_nodes = n;
      gen.max_fanout = fanout;
      gen.tag_alphabet = 16;
      gen.zipf_s = 1.2;  // realistic skew: some tags rare, some everywhere
      gen.seed = n + fanout;
      XmlNode doc = GenerateXmlTree(gen);
      auto dep = MakeFpDeployment(doc, seed);
      if (!dep.ok()) continue;
      TestSession<FpCyclotomicRing> session(&dep->client, dep->server.get());

      // Query the most common and the rarest tag present.
      std::vector<std::string> tags = doc.DistinctTags();
      for (const std::string& tag : {tags.front(), tags.back()}) {
        auto r = session.Lookup(tag, VerifyMode::kOptimistic);
        if (!r.ok()) continue;
        auto oracle = PlaintextLookup(doc, tag);
        // Optimistic matches+possible must cover the oracle set.
        size_t covered = r->matches.size() + r->possible.size();
        bool correct = covered >= oracle.match_paths.size();
        std::printf("%6zu %7d %9zu | %8s %8zu %10zu %8.3f | %7s\n", n,
                    fanout, tags.size(), tag.c_str(),
                    oracle.match_paths.size(), r->stats.nodes_visited,
                    r->stats.VisitedFraction(), correct ? "yes" : "NO");
      }
    }
  }

  // Ablation (DESIGN.md §5): pruning ON vs OFF. "Off" evaluates the whole
  // shared tree in one request — what a server without the smart index
  // would have to do for every query.
  std::printf("\n--- ablation: pruned walk vs exhaustive evaluation ---\n");
  std::printf("%7s %10s | %12s %12s | %12s %12s\n", "nodes", "tag",
              "pruned:evals", "pruned:B_dn", "exhaust:evals", "exhaust:B_dn");
  for (size_t n : {1000u, 10000u}) {
    XmlGeneratorOptions gen;
    gen.num_nodes = n;
    gen.tag_alphabet = 16;
    gen.zipf_s = 1.2;
    gen.seed = n + 1;
    XmlNode doc = GenerateXmlTree(gen);
    auto dep = MakeFpDeployment(doc, seed);
    if (!dep.ok()) continue;
    TestSession<FpCyclotomicRing> session(&dep->client, dep->server.get());
    const std::string tag = doc.DistinctTags().back();
    auto e = dep->client.tag_map().Value(tag);
    if (!e.ok()) continue;

    auto pruned = session.Lookup(tag, VerifyMode::kOptimistic);
    if (!pruned.ok()) continue;

    // Exhaustive: one request naming every node (no dead-branch cutoff).
    const size_t evals_before = dep->server->stats().evals;
    EvalRequest all;
    all.points = {*e};
    for (size_t i = 0; i < dep->store().size(); ++i)
      all.node_ids.push_back(static_cast<int32_t>(i));
    ByteWriter up;
    all.Serialize(&up);
    auto resp = dep->server->HandleEval(all);
    size_t exhaust_bytes = 0;
    if (resp.ok()) {
      ByteWriter down;
      resp->Serialize(&down);
      exhaust_bytes = down.size();
    }
    std::printf("%7zu %10s | %12zu %12zu | %12zu %12zu\n", n, tag.c_str(),
                pruned->stats.server_evals,
                pruned->stats.transport.bytes_down,
                dep->server->stats().evals - evals_before, exhaust_bytes);
  }

  std::printf("\n--- Z-ring evaluation-filter false positives "
              "(unsafe vs safe tag values) ---\n");
  // Unsafe: sequential values 1..k (r(e)-divisibility collisions possible).
  // Safe: ZQuotientRing::SafeTagValues.
  XmlGeneratorOptions gen;
  gen.num_nodes = 400;
  gen.tag_alphabet = 12;
  gen.seed = 77;
  XmlNode doc = GenerateXmlTree(gen);
  ZQuotientRing ring = ZQuotientRing::Create(ZPoly({1, 0, 1})).value();

  auto run_mapping = [&](const TagMap& map, const char* label) {
    PolyTree<ZQuotientRing> data = BuildPolyTree(ring, map, doc).value();
    SharedTrees<ZQuotientRing> shares = SplitShares(ring, data, seed);
    auto server = OneDocRegistry(ring, std::move(shares.server));
    auto client = ClientContext<ZQuotientRing>::SeedOnly(ring, map, seed);
    TestSession<ZQuotientRing> session(&client, server.get());
    size_t total_fp = 0, total_matches = 0;
    for (const std::string& tag : doc.DistinctTags()) {
      auto r = session.Lookup(tag, VerifyMode::kVerified);
      if (!r.ok()) continue;
      total_fp += r->stats.false_positives_removed;
      total_matches += r->matches.size();
    }
    std::printf("%-24s: %zu verified matches, %zu filter false positives "
                "removed by Theorem-2 reconstruction\n",
                label, total_matches, total_fp);
  };

  {
    std::vector<std::pair<std::string, uint64_t>> pairs;
    uint64_t v = 1;
    for (const std::string& t : doc.DistinctTags()) pairs.push_back({t, v++});
    run_mapping(TagMap::FromExplicit(pairs).value(), "unsafe sequential 1..k");
  }
  {
    TagMap::Options opt;
    opt.allowed_values = ring.SafeTagValues(4096, 4096);
    run_mapping(TagMap::Build(doc.DistinctTags(), opt, seed).value(),
                "safe (r(t) prime, large)");
  }
  std::printf("\nshape check (paper): visited fraction << 1 for rare tags "
              "and shrinks with document size.\n");
  return 0;
}
