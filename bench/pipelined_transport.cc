// Pipelined transport experiment: a 16-query verified lookup batch over a
// real loopback TCP link with 3 ms of injected per-request latency (the
// regime of a WAN hop), three client strategies:
//
//   sequential-rr : 16 separate Lookups, one request in flight at a time
//                   (the endpoint sits behind a no-fault
//                   FaultInjectingEndpoint, which hides pipelining) — the
//                   natural pre-pipelining baseline.
//   batched-rr    : one LookupBatch (shared frontier) through the same
//                   decorator: one request at a time, fetches after the walk.
//   pipelined     : one LookupBatch straight over the pipelined endpoint —
//                   next round's Evals overlap the previous rounds'
//                   in-flight Fetches.
//   shamir-2of3   : the pipelined LookupBatch against a Shamir 2-of-3
//                   group, three delayed servers on their own TCP ports,
//                   with no executor. Each round goes to two servers.
//
//   pipelined_transport [--json PATH]
//
// All four must return bit-identical answers (checked against an
// in-process oracle; a mismatch is a hard failure). The deterministic
// counters (rounds, messages) go into the bench/baselines entry schema so
// CI can pin them at --threshold-pct 0; wall times are report-only. Two
// floors are enforced: pipelined at least 2x faster than sequential-rr,
// and the 2-of-3 walk at most 1.5x the 1-server pipelined wall time —
// a round must reach both of its servers before the client waits on
// either, so it costs one delayed round trip, not two.
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
using testing::OneDocFpCollection;
using testing::SortedMatchPaths;
using testing::TestSession;

constexpr int kQueries = 16;
constexpr int kLatencyMs = 3;
/// Ceiling on the 2-of-3 walk's wall time over the 1-server pipelined one.
constexpr double kShamirWallCeiling = 1.5;

/// Wraps the share store and sleeps kLatencyMs before answering — the
/// stand-in for a 3 ms network RTT. Sleeps run on the server's worker
/// threads, so concurrent (pipelined) requests overlap their waits, exactly
/// as concurrent frames overlap propagation delay on a real link.
class DelayedHandler : public ServerHandler {
 public:
  explicit DelayedHandler(ServerHandler* inner) : inner_(inner) {}
  Result<EvalResponse> HandleEval(const EvalRequest& req) override {
    std::this_thread::sleep_for(std::chrono::milliseconds(kLatencyMs));
    return inner_->HandleEval(req);
  }
  Result<FetchResponse> HandleFetch(const FetchRequest& req) override {
    std::this_thread::sleep_for(std::chrono::milliseconds(kLatencyMs));
    return inner_->HandleFetch(req);
  }

 private:
  ServerHandler* inner_;
};

struct RunCost {
  double wall_us = 0;
  size_t rounds = 0;
  size_t fetch_rounds = 0;
  size_t messages_up = 0;
  std::vector<std::vector<std::string>> matches;  // per query, sorted paths
};

double MedianWallUs(std::vector<double> walls) {
  std::sort(walls.begin(), walls.end());
  return walls[walls.size() / 2];
}

int Run(const std::string& json_path) {
  XmlGeneratorOptions gen;
  gen.num_nodes = 300;
  gen.tag_alphabet = 9;
  gen.max_fanout = 4;
  gen.seed = 77;
  XmlNode doc = GenerateXmlTree(gen);
  DeterministicPrf seed = DeterministicPrf::FromString("pipe-bench");
  FpDeployment dep = MakeFpDeployment(doc, seed).value();
  DelayedHandler delayed(dep.server.get());

  SocketServer::Options sopts;
  sopts.worker_threads = kQueries;  // latency overlaps, never queues
  auto server = SocketServer::Listen(&delayed, 0, sopts).value();

  // 16 queries cycling the document's distinct tags.
  const std::vector<std::string> all_tags = doc.DistinctTags();
  std::vector<std::string> tags;
  for (int q = 0; q < kQueries; ++q) tags.push_back(all_tags[q % all_tags.size()]);

  // Oracle answers (in-process, no latency).
  FpDeployment oracle_dep = MakeFpDeployment(doc, seed).value();
  TestSession<FpCyclotomicRing> oracle(&oracle_dep.client,
                                       oracle_dep.server.get());
  std::vector<std::vector<std::string>> want;
  {
    auto o = oracle.LookupMany(tags, VerifyMode::kVerified).value();
    for (const auto& r : o.per_tag) want.push_back(SortedMatchPaths(r.matches));
  }

  // The same document split Shamir 2-of-3, each server behind its own
  // delay and TCP port.
  DeployShape shamir_deploy;
  shamir_deploy.scheme = ShareScheme::kShamir;
  shamir_deploy.num_servers = 3;
  shamir_deploy.threshold = 2;
  auto shamir = OneDocFpCollection(doc, seed, shamir_deploy).value();
  std::vector<std::unique_ptr<DelayedHandler>> shamir_delayed;
  std::vector<std::unique_ptr<SocketServer>> shamir_servers;
  for (size_t s = 0; s < 3; ++s) {
    shamir_delayed.push_back(
        std::make_unique<DelayedHandler>(shamir->handler(s)));
    shamir_servers.push_back(
        SocketServer::Listen(shamir_delayed.back().get(), 0, sopts).value());
  }
  ClientContext<FpCyclotomicRing> shamir_client = shamir->client();

  // One measured strategy run: fresh endpoints + fresh session (no cache
  // carry-over), median wall of 3 after a warmup.
  auto measure_with = [&](auto&& one) -> RunCost {
    one();  // warmup (dials the connections, touches the stores)
    std::vector<double> walls;
    RunCost cost;
    for (int i = 0; i < 3; ++i) {
      cost = one();
      walls.push_back(cost.wall_us);
    }
    cost.wall_us = MedianWallUs(walls);
    return cost;
  };
  auto batch_cost = [](const MultiLookupResult& r, RunCost* cost) {
    cost->rounds = r.stats.rounds;
    cost->fetch_rounds = r.stats.fetch_rounds;
    cost->messages_up = r.stats.transport.messages_up;
    for (const auto& per : r.per_tag)
      cost->matches.push_back(SortedMatchPaths(per.matches));
  };
  auto measure = [&](bool pipeline, bool batched) -> RunCost {
    return measure_with([&]() -> RunCost {
      auto socket = SocketEndpoint::Connect("127.0.0.1", server->port()).value();
      FaultInjectingEndpoint one_at_a_time(socket.get(), FaultConfig{});
      ServerEndpoint* ep =
          pipeline ? static_cast<ServerEndpoint*>(socket.get()) : &one_at_a_time;
      RunCost cost;
      auto t0 = std::chrono::steady_clock::now();
      if (batched) {
        QuerySession<FpCyclotomicRing> session(&dep.client,
                                               EndpointGroup::TwoParty(ep));
        batch_cost(session.LookupMany(tags, VerifyMode::kVerified).value(),
                   &cost);
      } else {
        // Fresh session per query: each pays full price, like 16
        // independent request-response clients sharing one link.
        for (const std::string& tag : tags) {
          QuerySession<FpCyclotomicRing> session(&dep.client,
                                                 EndpointGroup::TwoParty(ep));
          auto r = session.Lookup(tag, VerifyMode::kVerified).value();
          cost.rounds += r.stats.rounds;
          cost.fetch_rounds += r.stats.fetch_rounds;
          cost.messages_up += r.stats.transport.messages_up;
          cost.matches.push_back(SortedMatchPaths(r.matches));
        }
      }
      cost.wall_us = std::chrono::duration<double, std::micro>(
                         std::chrono::steady_clock::now() - t0)
                         .count();
      return cost;
    });
  };
  auto measure_shamir = [&]() -> RunCost {
    return measure_with([&]() -> RunCost {
      std::vector<std::unique_ptr<SocketEndpoint>> sockets;
      std::vector<ServerEndpoint*> eps;
      for (const auto& server : shamir_servers) {
        sockets.push_back(
            SocketEndpoint::Connect("127.0.0.1", server->port()).value());
        eps.push_back(sockets.back().get());
      }
      RunCost cost;
      auto t0 = std::chrono::steady_clock::now();
      QuerySession<FpCyclotomicRing> session(&shamir_client,
                                             EndpointGroup::Shamir(eps, 2));
      batch_cost(session.LookupMany(tags, VerifyMode::kVerified).value(),
                 &cost);
      cost.wall_us = std::chrono::duration<double, std::micro>(
                         std::chrono::steady_clock::now() - t0)
                         .count();
      return cost;
    });
  };

  const RunCost seq = measure(/*pipeline=*/false, /*batched=*/false);
  const RunCost rr = measure(/*pipeline=*/false, /*batched=*/true);
  const RunCost piped = measure(/*pipeline=*/true, /*batched=*/true);
  const RunCost shamir_cost = measure_shamir();

  // Bit-identical or bust.
  for (const RunCost* c : {&seq, &rr, &piped, &shamir_cost}) {
    if (c->matches != want) {
      std::fprintf(stderr, "ANSWER MISMATCH against in-process oracle\n");
      return 1;
    }
  }

  std::printf(
      "%d-query verified lookup batch, loopback TCP + %d ms injected "
      "per-request latency, %d server workers.\n\n",
      kQueries, kLatencyMs, kQueries);
  std::printf("%-14s | %8s | %6s | %6s | %8s | %8s\n", "strategy", "wall ms",
              "rounds", "fetchR", "msgs up", "speedup");
  auto row = [&](const char* name, const RunCost& c) {
    std::printf("%-14s | %8.1f | %6zu | %6zu | %8zu | %7.2fx\n", name,
                c.wall_us / 1000.0, c.rounds, c.fetch_rounds, c.messages_up,
                seq.wall_us / c.wall_us);
  };
  row("sequential-rr", seq);
  row("batched-rr", rr);
  row("pipelined", piped);
  row("shamir-2of3", shamir_cost);
  std::printf(
      "\nshape check: each sequential-rr message pays the full %d ms in "
      "series; the shared frontier collapses the message count, and tagged "
      "frames then overlap each round's fetches with the walk. The "
      "acceptance bar is pipelined >= 2x over sequential-rr; typical runs "
      "land near the message-count ratio (%.0fx).\n",
      kLatencyMs, double(seq.messages_up) / double(piped.messages_up));

  const double speedup = seq.wall_us / piped.wall_us;
  if (speedup < 2.0) {
    std::fprintf(stderr, "FAIL: pipelined speedup %.2fx < 2x floor\n", speedup);
    return 1;
  }
  const double shamir_ratio = shamir_cost.wall_us / piped.wall_us;
  std::printf(
      "shamir-2of3 / pipelined wall: %.2fx (ceiling %.1fx: each round is "
      "on the wire at both servers before the client waits)\n",
      shamir_ratio, kShamirWallCeiling);
  if (shamir_ratio > kShamirWallCeiling) {
    std::fprintf(stderr, "FAIL: shamir-2of3 wall %.2fx pipelined > %.1fx\n",
                 shamir_ratio, kShamirWallCeiling);
    return 1;
  }

  if (!json_path.empty()) {
    std::FILE* f = std::fopen(json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    std::fprintf(
        f,
        "{\n  \"bench\": \"pipelined_transport\",\n  \"entries\": {\n"
        "    \"sequential_rr_rounds\": %.1f,\n"
        "    \"sequential_rr_messages\": %.1f,\n"
        "    \"batched_rr_rounds\": %.1f,\n"
        "    \"batched_rr_fetch_rounds\": %.1f,\n"
        "    \"batched_rr_messages\": %.1f,\n"
        "    \"pipelined_rounds\": %.1f,\n"
        "    \"pipelined_fetch_rounds\": %.1f,\n"
        "    \"pipelined_messages\": %.1f,\n"
        "    \"sequential_rr_wall_us\": %.1f,\n"
        "    \"batched_rr_wall_us\": %.1f,\n"
        "    \"pipelined_wall_us\": %.1f,\n"
        "    \"pipelined_speedup_x100\": %.1f,\n"
        "    \"shamir_2of3_rounds\": %.1f,\n"
        "    \"shamir_2of3_fetch_rounds\": %.1f,\n"
        "    \"shamir_2of3_messages\": %.1f,\n"
        "    \"shamir_2of3_wall_us\": %.1f,\n"
        "    \"shamir_2of3_wall_ratio_x100\": %.1f\n"
        "  }\n}\n",
        double(seq.rounds), double(seq.messages_up), double(rr.rounds),
        double(rr.fetch_rounds), double(rr.messages_up), double(piped.rounds),
        double(piped.fetch_rounds), double(piped.messages_up), seq.wall_us,
        rr.wall_us, piped.wall_us, speedup * 100.0,
        double(shamir_cost.rounds), double(shamir_cost.fetch_rounds),
        double(shamir_cost.messages_up), shamir_cost.wall_us,
        shamir_ratio * 100.0);
    std::fclose(f);
    std::printf("wrote %s\n", json_path.c_str());
  }
  return 0;
}

}  // namespace
}  // namespace polysse

int main(int argc, char** argv) {
  std::string json_path;
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::string(argv[i]) == "--json") json_path = argv[i + 1];
  }
  return polysse::Run(json_path);
}
