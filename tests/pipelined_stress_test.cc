// Many-client macro stress: N client threads hammer one pipelined
// SocketServer with M multi-tag queries each, every answer checked against
// an in-process oracle. Runs under the `stress` ctest label; prints
// queries/sec so BENCH.md numbers can be refreshed from a run.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "net/socket_endpoint.h"
#include "testing/deploy_helpers.h"
#include "testing/query_helpers.h"
#include "xml/xml_generator.h"

namespace polysse {
namespace {

using testing::FpDeployment;
using testing::MakeFpDeployment;
using testing::SortedMatchPaths;
using testing::TestSession;

TEST(PipelinedStressTest, ManyClientsManyPipelinedQueries) {
  XmlGeneratorOptions gen;
  gen.num_nodes = 120;
  gen.tag_alphabet = 7;
  gen.max_fanout = 4;
  gen.seed = 501;
  XmlNode doc = GenerateXmlTree(gen);
  DeterministicPrf seed = DeterministicPrf::FromString("pipe-stress");
  FpDeployment dep = MakeFpDeployment(doc, seed).value();

  constexpr int kClients = 8;
  constexpr int kQueriesPerClient = 24;
  SocketServer::Options sopts;
  sopts.worker_threads = 4;
  auto server = SocketServer::Listen(dep.server.get(), 0, sopts);
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  // Oracle answers, computed once, single-threaded.
  FpDeployment oracle_dep = MakeFpDeployment(doc, seed).value();
  TestSession<FpCyclotomicRing> oracle(&oracle_dep.client,
                                       oracle_dep.server.get());
  const std::vector<std::string> tags = doc.DistinctTags();
  const std::vector<VerifyMode> modes = {VerifyMode::kOptimistic,
                                         VerifyMode::kVerified,
                                         VerifyMode::kTrustedConstOnly};
  std::vector<std::vector<std::vector<std::string>>> want(modes.size());
  for (size_t m = 0; m < modes.size(); ++m) {
    auto o = oracle.LookupMany(tags, modes[m]).value();
    for (const auto& r : o.per_tag) {
      want[m].push_back(SortedMatchPaths(r.matches));
    }
  }

  // Each client thread: its own TCP connection and session, M pipelined
  // multi-tag lookups cycling through the verify modes.
  std::atomic<size_t> mismatches{0}, failures{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  const auto start = std::chrono::steady_clock::now();
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      auto ep = SocketEndpoint::Connect("127.0.0.1", (*server)->port());
      if (!ep.ok()) {
        failures.fetch_add(kQueriesPerClient, std::memory_order_relaxed);
        return;
      }
      QuerySession<FpCyclotomicRing> session(
          &dep.client, EndpointGroup::TwoParty(ep->get()));
      for (int q = 0; q < kQueriesPerClient; ++q) {
        const size_t m = static_cast<size_t>(c + q) % modes.size();
        auto got = session.LookupMany(tags, modes[m]);
        if (!got.ok()) {
          failures.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        for (size_t i = 0; i < tags.size(); ++i) {
          if (SortedMatchPaths(got->per_tag[i].matches) != want[m][i]) {
            mismatches.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  const double wall_ms =
      std::chrono::duration_cast<std::chrono::duration<double, std::milli>>(
          std::chrono::steady_clock::now() - start)
          .count();

  EXPECT_EQ(failures.load(), 0u);
  EXPECT_EQ(mismatches.load(), 0u);
  EXPECT_EQ((*server)->connections_accepted(),
            static_cast<uint64_t>(kClients));
  EXPECT_EQ((*server)->pipelined_connections(),
            static_cast<uint64_t>(kClients));

  // Each LookupMany is one multi-tag query; report throughput normalized
  // to the server's worker-thread count for BENCH.md.
  const double total_queries = double(kClients) * kQueriesPerClient;
  const double qps = total_queries / (wall_ms / 1000.0);
  std::printf(
      "[stress] clients=%d queries/client=%d tags/query=%zu wall_ms=%.1f "
      "qps=%.1f qps_per_server_core=%.1f\n",
      kClients, kQueriesPerClient, tags.size(), wall_ms, qps,
      qps / sopts.worker_threads);
}

}  // namespace
}  // namespace polysse
