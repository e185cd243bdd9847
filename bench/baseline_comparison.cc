// E11 — the paper's positioning: interactive tree search vs (1) the intro's
// strawman "download the whole database locally" and (2) linear-scan
// searchable encryption in the spirit of ref [2] (Song-Wagner-Perrig),
// with plaintext search as the cost floor.
//
// Reports per-query work and bandwidth, plus wall-clock time, across
// document sizes. Shape expectation: polysse touches O(answer-related)
// nodes; the baselines pay Theta(n) in scan work (SWP) or Theta(store) in
// bandwidth (download).
#include <chrono>
#include <cstdio>

#include "baseline/naive_download.h"
#include "baseline/plaintext_search.h"
#include "baseline/swp_linear.h"
#include "core/outsource.h"
#include "core/query_session.h"
#include "testing/deploy_helpers.h"
#include "xml/xml_generator.h"

namespace {
double MsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}
}  // namespace

int main() {
  using namespace polysse;
  using namespace polysse::testing;
  std::printf("=== E11 / baselines: polysse vs download-all vs SWP-linear "
              "vs plaintext ===\n\n");
  DeterministicPrf seed = DeterministicPrf::FromString("baseline-bench");

  std::printf("%7s %-10s | %9s %9s %12s %9s | %8s\n", "nodes", "scheme",
              "matches", "scanned", "bytes_down", "ms/query", "correct");
  for (size_t n : {100u, 1000u, 10000u}) {
    XmlGeneratorOptions gen;
    gen.num_nodes = n;
    gen.tag_alphabet = 16;
    gen.zipf_s = 1.0;
    gen.seed = n;
    XmlNode doc = GenerateXmlTree(gen);
    const std::string tag = doc.DistinctTags().back();  // a rare tag
    auto oracle = PlaintextLookup(doc, tag);

    // Plaintext floor.
    {
      auto t0 = std::chrono::steady_clock::now();
      auto r = PlaintextLookup(doc, tag);
      std::printf("%7zu %-10s | %9zu %9zu %12s %9.3f | %8s\n", n, "plain",
                  r.match_paths.size(), r.stats.nodes_scanned, "-", MsSince(t0),
                  "yes");
    }
    // polysse interactive (verified).
    {
      auto dep = MakeFpDeployment(doc, seed);
      if (dep.ok()) {
        TestSession<FpCyclotomicRing> session(&dep->client, dep->server.get());
        auto t0 = std::chrono::steady_clock::now();
        auto r = session.Lookup(tag, VerifyMode::kVerified);
        double ms = MsSince(t0);
        if (r.ok()) {
          std::printf("%7zu %-10s | %9zu %9zu %12zu %9.3f | %8s\n", n,
                      "polysse", r->matches.size(), r->stats.nodes_visited,
                      r->stats.transport.bytes_down, ms,
                      r->matches.size() == oracle.match_paths.size() ? "yes"
                                                                     : "NO");
        }
        // Naive download (the intro's strawman) on the same deployment.
        auto t1 = std::chrono::steady_clock::now();
        auto nd = NaiveDownloadLookup(&dep->client, dep->server.get(),
                                      dep->store().tree(), tag);
        double nd_ms = MsSince(t1);
        if (nd.ok()) {
          std::printf("%7zu %-10s | %9zu %9zu %12zu %9.3f | %8s\n", n,
                      "download", nd->match_paths.size(),
                      nd->stats.nodes_scanned, nd->stats.bytes_down, nd_ms,
                      nd->match_paths.size() == oracle.match_paths.size()
                          ? "yes" : "NO");
        }
      }
    }
    // SWP-style linear scan.
    {
      SwpLinearClient client(seed);
      SwpLinearServer server = client.Outsource(doc);
      auto t0 = std::chrono::steady_clock::now();
      auto r = client.Lookup(server, tag);
      std::printf("%7zu %-10s | %9zu %9zu %12zu %9.3f | %8s\n", n, "swp-scan",
                  r.match_paths.size(), r.stats.nodes_scanned,
                  r.stats.bytes_down, MsSince(t0),
                  r.match_paths.size() == oracle.match_paths.size() ? "yes"
                                                                    : "NO");
    }
    std::printf("\n");
  }
  std::printf("shape check (paper): polysse's scanned-node count stays far "
              "below n for selective queries while swp-scan is exactly n "
              "and download moves the entire store.\n");
  return 0;
}
