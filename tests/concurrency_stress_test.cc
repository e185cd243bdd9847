// Concurrency stress battery for the parallel multi-server runtime. Run
// under ThreadSanitizer (preset debug-tsan) to certify the fan-out path:
//  * SearchMany on an 8-thread pool x {2-party, additive, Shamir} x every
//    verify mode must be bit-identical to the inline sequential executor;
//  * many client threads hammering their own sessions over SHARED stores
//    and endpoints must neither race nor diverge from the oracle answers;
//  * pooled fan-out over genuinely sleeping (latency-injected) endpoints
//    overlaps the per-server waits.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "testing/deploy_helpers.h"
#include "testing/query_helpers.h"
#include "xml/xml_generator.h"

namespace polysse {
namespace {

using testing::OneDocFpCollection;
using testing::SortedMatchPaths;

constexpr VerifyMode kAllModes[] = {VerifyMode::kOptimistic,
                                    VerifyMode::kVerified,
                                    VerifyMode::kTrustedConstOnly};

XmlNode MakeDoc(uint64_t seed, size_t num_nodes = 120, size_t alphabet = 10) {
  XmlGeneratorOptions gen;
  gen.num_nodes = num_nodes;
  gen.tag_alphabet = alphabet;
  gen.max_fanout = 4;
  gen.seed = seed;
  return GenerateXmlTree(gen);
}

std::vector<DeployShape> AllSchemes() {
  DeployShape two_party;
  DeployShape additive;
  additive.scheme = ShareScheme::kAdditive;
  additive.num_servers = 4;
  DeployShape shamir;
  shamir.scheme = ShareScheme::kShamir;
  shamir.num_servers = 5;
  shamir.threshold = 3;
  return {two_party, additive, shamir};
}

TEST(ConcurrencyStressTest, PooledSearchManyBitIdenticalToInlineAllSchemes) {
  XmlNode doc = MakeDoc(401);
  DeterministicPrf seed = DeterministicPrf::FromString("stress-identical");
  std::vector<std::string> tags = doc.DistinctTags();

  for (DeployShape deploy : AllSchemes()) {
    // Inline oracle.
    auto inline_col = OneDocFpCollection(doc, seed, deploy).value();
    // Pooled twin: same deployment, 8 fan-out workers.
    deploy.worker_threads = 8;
    auto pooled_col = OneDocFpCollection(doc, seed, deploy).value();

    std::vector<Query> queries;
    for (size_t i = 0; i < tags.size(); ++i)
      queries.push_back({tags[i], kAllModes[i % 3]});

    for (int round = 0; round < 4; ++round) {
      auto a = inline_col->SearchMany(queries);
      auto b = pooled_col->SearchMany(queries);
      ASSERT_TRUE(a.ok()) << a.status().ToString();
      ASSERT_TRUE(b.ok()) << b.status().ToString();
      ASSERT_EQ(a->size(), b->size());
      for (size_t i = 0; i < a->size(); ++i) {
        LookupResult& x = (*a)[i].per_doc[0];
        LookupResult& y = (*b)[i].per_doc[0];
        EXPECT_EQ(SortedMatchPaths(x.matches), SortedMatchPaths(y.matches))
            << "scheme " << static_cast<int>(deploy.scheme) << " //"
            << queries[i].tag;
        EXPECT_EQ(SortedMatchPaths(x.possible), SortedMatchPaths(y.possible))
            << "scheme " << static_cast<int>(deploy.scheme) << " //"
            << queries[i].tag;
      }
      // Protocol-level costs are identical too: parallelism must change
      // wall time only, never what crosses the wire.
      const QueryStats& sa = (*a)[0].stats;
      const QueryStats& sb = (*b)[0].stats;
      EXPECT_EQ(sa.server_evals, sb.server_evals);
      EXPECT_EQ(sa.rounds, sb.rounds);
      EXPECT_EQ(sa.transport.bytes_down, sb.transport.bytes_down);
    }
  }
}

TEST(ConcurrencyStressTest, ManyClientThreadsOverSharedStores) {
  // 8+ client threads, each with a private session, all talking to the
  // SAME endpoints and servers of one collection — the contention surface
  // is the servers' counters, the endpoints' counters and the shared pool.
  // Each server's request counters must grow by exactly the rounds the
  // sessions report: one request per chosen server per round.
  XmlNode doc = MakeDoc(402, 150, 12);
  DeterministicPrf seed = DeterministicPrf::FromString("stress-shared");

  for (DeployShape deploy : AllSchemes()) {
    deploy.worker_threads = 8;
    auto col = OneDocFpCollection(doc, seed, deploy).value();
    std::vector<std::string> tags = doc.DistinctTags();

    // Oracle answers from the collection's own (single-threaded) walks.
    std::vector<std::vector<std::string>> oracle;
    for (const std::string& tag : tags)
      oracle.push_back(SortedMatchPaths(
          col->SearchDoc(0, tag, VerifyMode::kVerified).value().matches));

    // One endpoint set for every client thread: a LoopbackEndpoint over
    // each of the collection's server handlers, fanned out on the
    // collection's own pool.
    std::vector<std::unique_ptr<LoopbackEndpoint>> loopbacks;
    std::vector<ServerEndpoint*> eps;
    for (size_t s = 0; s < col->num_servers(); ++s) {
      loopbacks.push_back(std::make_unique<LoopbackEndpoint>(col->handler(s)));
      eps.push_back(loopbacks.back().get());
    }
    EndpointGroup group = EndpointGroup::TwoParty(eps[0]);
    if (deploy.scheme == ShareScheme::kAdditive)
      group = EndpointGroup::Additive(eps);
    if (deploy.scheme == ShareScheme::kShamir)
      group = EndpointGroup::Shamir(eps, deploy.threshold);
    group.executor = col->executor();
    ASSERT_NE(group.executor, nullptr);
    std::vector<FpStoreRegistry::Stats> before;
    for (size_t s = 0; s < col->num_servers(); ++s)
      before.push_back(col->registry(s)->stats());
    std::atomic<int> mismatches{0};
    std::atomic<int> failures{0};
    std::atomic<size_t> rounds{0};
    std::atomic<size_t> fetch_rounds{0};
    std::vector<std::thread> clients;
    clients.reserve(9);
    for (int c = 0; c < 9; ++c) {
      clients.emplace_back([&, c] {
        // Each thread copies the thin-client state and runs its own
        // session over the SHARED endpoint group.
        ClientContext<FpCyclotomicRing> client = col->client();
        QuerySession<FpCyclotomicRing> session(&client, group);
        for (size_t q = 0; q < tags.size(); ++q) {
          const size_t i = (q + static_cast<size_t>(c)) % tags.size();
          auto r = session.Lookup(tags[i], kAllModes[q % 3]);
          if (!r.ok()) {
            failures.fetch_add(1, std::memory_order_relaxed);
            continue;
          }
          rounds.fetch_add(r->stats.rounds, std::memory_order_relaxed);
          fetch_rounds.fetch_add(r->stats.fetch_rounds,
                                 std::memory_order_relaxed);
          if (kAllModes[q % 3] == VerifyMode::kOptimistic) continue;
          if (SortedMatchPaths(r->matches) != oracle[i])
            mismatches.fetch_add(1, std::memory_order_relaxed);
        }
      });
    }
    for (std::thread& t : clients) t.join();
    EXPECT_EQ(failures.load(), 0)
        << "scheme " << static_cast<int>(deploy.scheme);
    EXPECT_EQ(mismatches.load(), 0)
        << "scheme " << static_cast<int>(deploy.scheme);
    for (size_t s = 0; s < col->num_servers(); ++s) {
      // Shamir asks its first `threshold` servers; nothing fails over.
      const bool asked = deploy.scheme != ShareScheme::kShamir ||
                         s < static_cast<size_t>(deploy.threshold);
      const FpStoreRegistry::Stats after = col->registry(s)->stats();
      EXPECT_EQ(after.eval_requests - before[s].eval_requests,
                asked ? rounds.load() : 0u)
          << "scheme " << static_cast<int>(deploy.scheme) << " server " << s;
      EXPECT_EQ(after.fetch_requests - before[s].fetch_requests,
                asked ? fetch_rounds.load() : 0u)
          << "scheme " << static_cast<int>(deploy.scheme) << " server " << s;
    }
  }
}

TEST(ConcurrencyStressTest, PooledFanOutOverlapsInjectedLatency) {
  // 4 additive servers, each sleeping 10 ms per call: a lookup's rounds
  // cost ~4x10 ms sequentially but ~10 ms pooled. Asserting pooled strictly
  // beats sequential leaves a 4x margin, safe even on noisy CI machines.
  XmlNode doc = MakeDoc(403, 30, 4);
  DeterministicPrf seed = DeterministicPrf::FromString("stress-latency");
  DeployShape deploy;
  deploy.scheme = ShareScheme::kAdditive;
  deploy.num_servers = 4;
  const std::string tag = doc.DistinctTags()[1];

  auto timed_lookup = [&](FpCollection& col) {
    FaultConfig lag;
    lag.latency_us = 10'000;
    for (size_t s = 0; s < 4; ++s) col.InjectFaults(s, lag);
    const auto start = std::chrono::steady_clock::now();
    auto r = col.SearchDoc(0, tag, VerifyMode::kVerified);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start)
        .count();
  };

  auto seq_col = OneDocFpCollection(doc, seed, deploy).value();
  const double sequential_ms = timed_lookup(*seq_col);
  deploy.worker_threads = 4;
  auto pooled_col = OneDocFpCollection(doc, seed, deploy).value();
  const double pooled_ms = timed_lookup(*pooled_col);

  EXPECT_LT(pooled_ms, sequential_ms)
      << "4 servers x 10ms latency must overlap under the pooled executor";
}

}  // namespace
}  // namespace polysse
