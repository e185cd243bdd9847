// E5/E6 — Figures 5 & 6: the query 'x = 2' (i.e. //client) evaluated over
// the shared trees. Prints the client / server / sum evaluation trees; the
// paper's sum tree is {customers: 0, client: 0, name: 3} in both rings
// (Fig. 6 computes mod r(2) = 5).
#include <cstdio>
#include <vector>

#include "core/client_context.h"
#include "core/query_session.h"
#include "testing/deploy_helpers.h"
#include "core/sharing.h"
#include "xml/xml_generator.h"

namespace {
const char* NodeLabel(size_t i) {
  static const char* kLabels[] = {"customers", "client", "name", "client",
                                  "name"};
  return kLabels[i];
}
}  // namespace

int main() {
  using namespace polysse;
  std::printf("=== E5+E6 / Figures 5 & 6: query 'x = 2' (//client) ===\n\n");

  TagMap map = TagMap::FromExplicit(Fig1TagMapping()).value();
  XmlNode doc = MakeFig1Document();
  DeterministicPrf prf = DeterministicPrf::FromString("fig5-fig6-seed");
  const uint64_t e = 2;  // map(client)
  bool all_ok = true;

  // Expected sum tree from the paper (preorder).
  const uint64_t kExpectedSum[] = {0, 0, 3, 0, 3};

  auto run = [&](auto ring, const char* title) {
    using Ring = decltype(ring);
    std::printf("--- %s ---\n", title);
    auto data = BuildPolyTree(ring, map, doc).value();
    auto shares = SplitShares(ring, data, prf);
    uint64_t m = ring.QueryModulus(e).value();
    std::printf("arithmetic mod %llu\n", static_cast<unsigned long long>(m));
    std::printf("%-9s | %7s %7s %5s | paper\n", "node", "client", "server",
                "sum");
    for (size_t i = 0; i < data.size(); ++i) {
      uint64_t cv = ring.EvalAt(shares.client.nodes[i].poly, e).value();
      uint64_t sv = ring.EvalAt(shares.server.nodes[i].poly, e).value();
      uint64_t sum = (cv + sv) % m;
      bool ok = sum == kExpectedSum[i];
      all_ok &= ok;
      std::printf("%-9s | %7llu %7llu %5llu | %5llu %s\n", NodeLabel(i),
                  static_cast<unsigned long long>(cv),
                  static_cast<unsigned long long>(sv),
                  static_cast<unsigned long long>(sum),
                  static_cast<unsigned long long>(kExpectedSum[i]),
                  ok ? "OK" : "MISMATCH");
    }

    // Full protocol run on top of the same shares: the two client elements
    // are the answers ("each zero element without zero sub element").
    auto server = testing::OneDocRegistry(ring, std::move(shares.server));
    auto client = ClientContext<Ring>::SeedOnly(ring, map, prf);
    testing::TestSession<Ring> session(&client, server.get());
    auto result = session.Lookup("client", VerifyMode::kVerified).value();
    std::printf("protocol answer: %zu matches at paths", result.matches.size());
    for (const auto& mth : result.matches) std::printf(" \"%s\"", mth.path.c_str());
    std::printf("  (dead branch 'name' pruned: %zu of %zu nodes zero)\n\n",
                result.stats.zero_candidates, result.stats.total_server_nodes);
    all_ok &= result.matches.size() == 2;
  };

  run(FpCyclotomicRing::Create(5).value(),
      "Fig. 5: F_5[x]/(x^4 - 1), evaluate at x = 2 mod p = 5");
  run(ZQuotientRing::Create(ZPoly({1, 0, 1})).value(),
      "Fig. 6: Z[x]/(x^2 + 1), evaluate at x = 2 mod r(2) = 5");

  std::printf("figures 5 and 6 reproduced: %s\n", all_ok ? "YES" : "NO");
  return all_ok ? 0 : 1;
}
