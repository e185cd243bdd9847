// E10 — §4.3 closing remark: trusting the server, "only the constant factor
// (without x) of each polynomial stored on the server has to be
// transmitted. This reduces bandwidth and increases efficiency but
// decreases security."
//
// Reports bytes down per query for the three verify modes in both rings,
// plus the trusted mode's fallback count on nodes whose polynomial wraps
// the ring (where constant-only reconstruction is unsound).
#include <cstdio>

#include "core/outsource.h"
#include "core/query_session.h"
#include "testing/deploy_helpers.h"
#include "xml/xml_generator.h"

int main() {
  using namespace polysse;
  using namespace polysse::testing;
  std::printf("=== E10 / bandwidth: verified vs trusted const-only vs "
              "optimistic ===\n\n");
  DeterministicPrf seed = DeterministicPrf::FromString("bandwidth-bench");

  std::printf("%-14s %6s | %12s %12s %12s | %9s %9s\n", "ring", "nodes",
              "optimistic", "verified", "const-only", "recon", "fallbacks");
  for (size_t n : {50u, 400u, 2000u}) {
    XmlGeneratorOptions gen;
    gen.num_nodes = n;
    gen.tag_alphabet = 10;
    gen.seed = n;
    XmlNode doc = GenerateXmlTree(gen);
    const std::string tag = doc.DistinctTags()[2];

    {
      FpOutsourceOptions fopt;
      fopt.p = 101;  // n <= 99 wrap-free; larger documents wrap
      auto dep = MakeFpDeployment(doc, seed, fopt);
      if (dep.ok()) {
        TestSession<FpCyclotomicRing> session(&dep->client, dep->server.get());
        auto opt = session.Lookup(tag, VerifyMode::kOptimistic);
        auto ver = session.Lookup(tag, VerifyMode::kVerified);
        auto tru = session.Lookup(tag, VerifyMode::kTrustedConstOnly);
        if (opt.ok() && ver.ok() && tru.ok()) {
          std::printf("%-14s %6zu | %12zu %12zu %12zu | %9zu %9zu\n",
                      "Fp p=101", n, opt->stats.transport.bytes_down,
                      ver->stats.transport.bytes_down,
                      tru->stats.transport.bytes_down,
                      ver->stats.reconstructions,
                      tru->stats.trusted_fallbacks);
        }
      }
    }
    {
      auto dep = MakeZDeployment(doc, seed);
      if (dep.ok()) {
        TestSession<ZQuotientRing> session(&dep->client, dep->server.get());
        auto opt = session.Lookup(tag, VerifyMode::kOptimistic);
        auto ver = session.Lookup(tag, VerifyMode::kVerified);
        auto tru = session.Lookup(tag, VerifyMode::kTrustedConstOnly);
        if (opt.ok() && ver.ok() && tru.ok()) {
          std::printf("%-14s %6zu | %12zu %12zu %12zu | %9zu %9zu\n",
                      "Z[x]/(x^2+1)", n, opt->stats.transport.bytes_down,
                      ver->stats.transport.bytes_down,
                      tru->stats.transport.bytes_down,
                      ver->stats.reconstructions,
                      tru->stats.trusted_fallbacks);
        }
      }
    }
  }
  std::printf("\nshape check (paper): const-only sits between optimistic and "
              "verified; the gap to verified widens with polynomial size "
              "(large p or large Z coefficients). Wrapped nodes force "
              "full-polynomial fallbacks.\n");
  return 0;
}
