// E12 — the §4.2 multi-server extension: additive client+k-server splits
// and Shamir t-of-n sharing. Reports setup cost, per-eval cost, and the
// seed-only client's share re-derivation cost (the thin-client trade-off).
#include <chrono>
#include <cstdio>

#include "core/multi_server.h"
#include "core/outsource.h"
#include "core/sharing.h"
#include "mpc/shamir.h"
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
  std::printf("=== E12 / multi-server extension (§4.2) ===\n\n");
  DeterministicPrf seed = DeterministicPrf::FromString("ms-bench");

  XmlGeneratorOptions gen;
  gen.num_nodes = 500;
  gen.tag_alphabet = 12;
  gen.seed = 33;
  XmlNode doc = GenerateXmlTree(gen);
  FpCyclotomicRing ring = FpCyclotomicRing::Create(101).value();
  TagMap::Options mopt;
  mopt.max_value = ring.MaxTagValue();
  TagMap map = TagMap::Build(doc.DistinctTags(), mopt, seed).value();
  PolyTree<FpCyclotomicRing> data = BuildPolyTree(ring, map, doc).value();
  const uint64_t e = map.Value(doc.DistinctTags()[1]).value();

  std::printf("--- additive client + k servers ---\n");
  std::printf("%3s | %10s | %12s | %10s\n", "k", "setup ms", "store B/srv",
              "eval ms");
  for (int k : {1, 2, 3, 5, 7}) {
    auto t0 = std::chrono::steady_clock::now();
    auto servers = SplitSharesAcrossServers(ring, data, seed, k).value();
    double setup = MsSince(t0);
    size_t store_bytes = 0;
    for (const auto& node : servers[0].nodes)
      store_bytes += ring.SerializedSize(node.poly);

    auto t1 = std::chrono::steady_clock::now();
    size_t checks = 0;
    for (size_t i = 0; i < data.size(); i += 7) {
      uint64_t combined =
          ring.EvalAt(DeriveClientShare(ring, seed, data.nodes[i].path, {}), e)
              .value();
      for (int s = 0; s < k; ++s)
        combined = ring.field().Add(
            combined, ring.EvalAt(servers[s].nodes[i].poly, e).value());
      if (combined != ring.EvalAt(data.nodes[i].poly, e).value()) {
        std::printf("MISMATCH at node %zu\n", i);
        return 1;
      }
      ++checks;
    }
    std::printf("%3d | %10.2f | %12zu | %10.3f  (%zu nodes checked)\n", k,
                setup, store_bytes, MsSince(t1), checks);
  }

  std::printf("\n--- Shamir t-of-n (client holds nothing but the tag map) ---\n");
  std::printf("%6s | %10s | %10s\n", "t/n", "setup ms", "eval ms");
  for (auto [t, n] : std::vector<std::pair<int, int>>{{2, 3}, {3, 5}, {5, 7}}) {
    ChaChaRng rng = ChaChaRng::FromString("msr" + std::to_string(t));
    auto t0 = std::chrono::steady_clock::now();
    auto servers = SplitSharesShamir(ring, data, t, n, rng);
    double setup = MsSince(t0);
    if (!servers.ok()) continue;
    // The first t servers (x = 1..t) answer.
    std::vector<uint64_t> xs;
    for (int s = 1; s <= t; ++s) xs.push_back(static_cast<uint64_t>(s));
    const std::vector<uint64_t> w =
        LagrangeWeightsAtZero(ring.field(), xs).value();
    auto t1 = std::chrono::steady_clock::now();
    for (size_t i = 0; i < data.size(); i += 7) {
      uint64_t combined = 0;
      for (int s = 0; s < t; ++s)
        combined = ring.field().Add(
            combined,
            ring.field().Mul(
                w[s], ring.EvalAt((*servers)[s].nodes[i].poly, e).value()));
      if (combined != ring.EvalAt(data.nodes[i].poly, e).value()) {
        std::printf("MISMATCH\n");
        return 1;
      }
    }
    std::printf("%3d/%-3d| %10.2f | %10.3f\n", t, n, setup, MsSince(t1));
  }
  std::printf("\nshape check: additive setup is linear in k; Shamir setup "
              "pays t-degree sharing per coefficient but any t of n servers "
              "suffice (availability), and t-1 learn nothing.\n");

  // --- parallel fan-out: the point of the thread-pooled executor. Every
  // endpoint sleeps L per call (FaultInjectingEndpoint latency); sequential
  // dispatch pays ~k*L per round, the pooled executor ~L, so a whole
  // verified lookup (several rounds + fetches) shrinks by ~k.
  std::printf("\n--- parallel fan-out: k latency-L servers, one verified "
              "lookup ---\n");
  std::printf("%3s | %6s | %10s | %10s | %7s\n", "k", "L ms", "seq ms",
              "pooled ms", "speedup");
  const std::string fanout_tag = doc.DistinctTags()[1];
  for (int k : {2, 4, 8}) {
    const uint32_t latency_us = 3000;
    auto timed_lookup = [&](int workers) {
      DeployShape deploy;
      deploy.scheme = ShareScheme::kAdditive;
      deploy.num_servers = k;
      deploy.worker_threads = workers;
      auto col = testing::OneDocFpCollection(doc, seed, deploy).value();
      FaultConfig lag;
      lag.latency_us = latency_us;
      for (int s = 0; s < k; ++s) col->InjectFaults(s, lag);
      auto t0 = std::chrono::steady_clock::now();
      auto r = col->SearchDoc(0, fanout_tag, VerifyMode::kVerified);
      if (!r.ok()) {
        std::printf("lookup failed: %s\n", r.status().ToString().c_str());
        return -1.0;
      }
      return MsSince(t0);
    };
    const double seq_ms = timed_lookup(0);
    const double pooled_ms = timed_lookup(k);
    std::printf("%3d | %6.1f | %10.1f | %10.1f | %6.2fx\n", k,
                latency_us / 1000.0, seq_ms, pooled_ms, seq_ms / pooled_ms);
  }
  std::printf("\nshape check: pooled wall time tracks ONE server's latency "
              "per round (~L), sequential tracks the sum (~k*L); the "
              "speedup approaches k as L dominates compute.\n");
  return 0;
}
