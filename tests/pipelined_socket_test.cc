// E2e battery for the tagged-frame pipelined runtime: tag round-trip
// parity with the plan-then-fetch schedule in both rings, one round
// reaching every server of a multi-server group before the client waits,
// one failover per dead server on both fetch schedules, out-of-order
// completion, kind interleaving on one connection, refusal of connections
// that skip the hello, flood guards on both sides of the wire, and the
// Stop()-during-in-flight-writes drain contract. The whole file is also a
// TSan target (CI runs it under the debug-tsan preset): submitters, the
// endpoint reader thread, the server event loop and its worker pool all
// race here on purpose.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "baseline/plaintext_search.h"
#include "net/socket_endpoint.h"
#include "testing/deploy_helpers.h"
#include "testing/query_helpers.h"
#include "xml/xml_generator.h"

namespace polysse {
namespace {

using testing::FpDeployment;
using testing::MakeFpDeployment;
using testing::MakeZDeployment;
using testing::OneDocFpCollection;
using testing::Sorted;
using testing::SortedMatchPaths;
using testing::TestSession;
using testing::ZDeployment;

XmlNode MakeDoc(uint64_t seed, size_t num_nodes = 60) {
  XmlGeneratorOptions gen;
  gen.num_nodes = num_nodes;
  gen.tag_alphabet = 7;
  gen.max_fanout = 4;
  gen.seed = seed;
  return GenerateXmlTree(gen);
}

/// Pass-through handler that sleeps on Eval and records server-side
/// completion order — the tool for proving responses really do come back
/// out of order on one connection.
class SlowEvalHandler : public ServerHandler {
 public:
  SlowEvalHandler(ServerHandler* inner, int eval_delay_ms)
      : inner_(inner), eval_delay_ms_(eval_delay_ms) {}

  Result<EvalResponse> HandleEval(const EvalRequest& req) override {
    std::this_thread::sleep_for(std::chrono::milliseconds(eval_delay_ms_));
    auto r = inner_->HandleEval(req);
    Record('E');
    return r;
  }
  Result<FetchResponse> HandleFetch(const FetchRequest& req) override {
    auto r = inner_->HandleFetch(req);
    Record('F');
    return r;
  }

  std::string completion_order() const {
    std::lock_guard<std::mutex> lock(mu_);
    return order_;
  }

 private:
  void Record(char kind) {
    std::lock_guard<std::mutex> lock(mu_);
    order_.push_back(kind);
  }

  ServerHandler* inner_;
  int eval_delay_ms_;
  mutable std::mutex mu_;
  std::string order_;
};

/// Store handler plus stubbed registry administration, so all four wire
/// kinds can interleave on one connection against a plain two-party store.
class AdminStubHandler : public ServerHandler {
 public:
  explicit AdminStubHandler(ServerHandler* inner) : inner_(inner) {}

  Result<EvalResponse> HandleEval(const EvalRequest& req) override {
    return inner_->HandleEval(req);
  }
  Result<FetchResponse> HandleFetch(const FetchRequest& req) override {
    return inner_->HandleFetch(req);
  }
  Result<AdminAck> HandleAddDoc(const AddDocRequest& req) override {
    AdminAck ack;
    ack.doc_count = docs_.fetch_add(1, std::memory_order_relaxed) + 1;
    ack.node_count = req.store_bytes.size();
    return ack;
  }
  Result<AdminAck> HandleRemoveDoc(const RemoveDocRequest&) override {
    AdminAck ack;
    ack.doc_count = docs_.fetch_sub(1, std::memory_order_relaxed) - 1;
    return ack;
  }

 private:
  ServerHandler* inner_;
  std::atomic<uint64_t> docs_{0};
};

/// The same queries three ways — over TCP with per-round fetch overlap,
/// over TCP behind a decorator that hides pipelining (so the session plans
/// every fetch and then issues them), and in-process loopback against
/// `oracle`, a second deployment of the same document — must produce
/// bit-identical answers.
template <typename Ring, typename Deployment>
void ExpectTagRoundTripParity(const XmlNode& doc, Deployment& dep,
                              Deployment& oracle_dep) {
  auto server = SocketServer::Listen(dep.server.get(), 0);
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  auto piped = SocketEndpoint::Connect("127.0.0.1", (*server)->port());
  ASSERT_TRUE(piped.ok()) << piped.status().ToString();
  ASSERT_TRUE((*piped)->SupportsPipelining());

  auto second = SocketEndpoint::Connect("127.0.0.1", (*server)->port());
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  FaultInjectingEndpoint planned(second->get(), FaultConfig{});
  ASSERT_FALSE(planned.SupportsPipelining());

  QuerySession<Ring> piped_session(&dep.client,
                                   EndpointGroup::TwoParty(piped->get()));
  QuerySession<Ring> planned_session(&dep.client,
                                     EndpointGroup::TwoParty(&planned));
  TestSession<Ring> oracle(&oracle_dep.client, oracle_dep.server.get());

  std::vector<std::string> tags = doc.DistinctTags();
  for (VerifyMode mode : {VerifyMode::kOptimistic, VerifyMode::kVerified,
                          VerifyMode::kTrustedConstOnly}) {
    auto p = piped_session.LookupMany(tags, mode);
    ASSERT_TRUE(p.ok()) << p.status().ToString();
    auto l = planned_session.LookupMany(tags, mode);
    ASSERT_TRUE(l.ok()) << l.status().ToString();
    auto o = oracle.LookupMany(tags, mode);
    ASSERT_TRUE(o.ok()) << o.status().ToString();
    for (size_t i = 0; i < tags.size(); ++i) {
      EXPECT_EQ(SortedMatchPaths(p->per_tag[i].matches),
                SortedMatchPaths(o->per_tag[i].matches))
          << "//" << tags[i];
      EXPECT_EQ(SortedMatchPaths(l->per_tag[i].matches),
                SortedMatchPaths(o->per_tag[i].matches))
          << "//" << tags[i];
      EXPECT_EQ(SortedMatchPaths(p->per_tag[i].possible),
                SortedMatchPaths(o->per_tag[i].possible))
          << "//" << tags[i];
      EXPECT_EQ(SortedMatchPaths(l->per_tag[i].possible),
                SortedMatchPaths(o->per_tag[i].possible))
          << "//" << tags[i];
    }
  }
  // Single lookups delegate through the same pipelined path.
  for (const std::string& tag : tags) {
    auto p = piped_session.Lookup(tag, VerifyMode::kVerified);
    ASSERT_TRUE(p.ok()) << p.status().ToString();
    auto o = oracle.Lookup(tag, VerifyMode::kVerified).value();
    EXPECT_EQ(SortedMatchPaths(p->matches), SortedMatchPaths(o.matches));
  }
  EXPECT_EQ((*server)->connections_accepted(), 2u);
  EXPECT_EQ((*server)->pipelined_connections(), 2u);
}

TEST(PipelinedSocketTest, TagRoundTripParityWithSequentialClient) {
  XmlNode doc = MakeDoc(401);
  DeterministicPrf seed = DeterministicPrf::FromString("pipe-parity");
  {
    SCOPED_TRACE("F_p ring");
    FpDeployment dep = MakeFpDeployment(doc, seed).value();
    FpDeployment oracle = MakeFpDeployment(doc, seed).value();
    ExpectTagRoundTripParity<FpCyclotomicRing>(doc, dep, oracle);
  }
  {
    SCOPED_TRACE("Z ring");
    ZDeployment dep = MakeZDeployment(doc, seed).value();
    ZDeployment oracle = MakeZDeployment(doc, seed).value();
    ExpectTagRoundTripParity<ZQuotientRing>(doc, dep, oracle);
  }
}

/// A per-round meeting of the servers a session asks: each one's Eval is
/// held until every chosen server has received that round's request. The
/// wait is bounded like ShardTest's ShardMeeting: one that runs out marks
/// the meeting missed and lets every later arrival through at once.
struct RoundMeeting {
  explicit RoundMeeting(size_t parties) : parties(parties) {}

  void Arrive() {
    std::unique_lock<std::mutex> lock(mu);
    if (missed) return;
    const size_t round = met;
    if (++arrived == parties) {
      arrived = 0;
      ++met;
      cv.notify_all();
      return;
    }
    if (!cv.wait_for(lock, std::chrono::seconds(10),
                     [&] { return met != round || missed; })) {
      missed = true;
      cv.notify_all();
    }
  }

  std::mutex mu;
  std::condition_variable cv;
  const size_t parties;
  size_t arrived = 0;
  size_t met = 0;       ///< rounds every chosen server received together
  bool missed = false;  ///< a wait ran out: a round reached one at a time
};

/// A server whose Evals wait at the meeting.
class MeetingHandler : public ServerHandler {
 public:
  MeetingHandler(ServerHandler* inner, RoundMeeting* meeting)
      : inner_(inner), meeting_(meeting) {}

  Result<EvalResponse> HandleEval(const EvalRequest& req) override {
    meeting_->Arrive();
    return inner_->HandleEval(req);
  }
  Result<FetchResponse> HandleFetch(const FetchRequest& req) override {
    return inner_->HandleFetch(req);
  }

 private:
  ServerHandler* inner_;
  RoundMeeting* meeting_;
};

TEST(PipelinedSocketTest, RoundReachesEveryServerBeforeTheClientWaits) {
  // A Shamir 2-of-3 group and an additive 2-server group over TCP, with no
  // executor. Each BFS round's Eval is held at every chosen server until
  // all of them have it, so a client that waits for one server before
  // asking the next misses the meeting; one that puts the whole round on
  // the wire first meets every round.
  XmlNode doc = MakeDoc(403);
  DeterministicPrf seed = DeterministicPrf::FromString("pipe-meeting");
  const std::vector<std::string> tags = doc.DistinctTags();
  struct Group {
    ShareScheme scheme;
    size_t servers;
    int threshold;
    size_t chosen;  ///< servers each round goes to
  };
  for (const Group& g : {Group{ShareScheme::kShamir, 3, 2, 2},
                         Group{ShareScheme::kAdditive, 2, 0, 2}}) {
    SCOPED_TRACE(g.scheme == ShareScheme::kShamir ? "shamir" : "additive");
    DeployShape deploy;
    deploy.scheme = g.scheme;
    deploy.num_servers = static_cast<int>(g.servers);
    deploy.threshold = g.threshold;
    auto col = OneDocFpCollection(doc, seed, deploy).value();

    RoundMeeting meeting(g.chosen);
    std::vector<std::unique_ptr<MeetingHandler>> handlers;
    std::vector<std::unique_ptr<SocketServer>> servers;
    std::vector<std::unique_ptr<SocketEndpoint>> endpoints;
    std::vector<ServerEndpoint*> eps;
    for (size_t s = 0; s < g.servers; ++s) {
      handlers.push_back(
          std::make_unique<MeetingHandler>(col->handler(s), &meeting));
      auto srv = SocketServer::Listen(handlers.back().get(), 0);
      ASSERT_TRUE(srv.ok()) << srv.status().ToString();
      auto ep = SocketEndpoint::Connect("127.0.0.1", (*srv)->port());
      ASSERT_TRUE(ep.ok()) << ep.status().ToString();
      servers.push_back(std::move(*srv));
      endpoints.push_back(std::move(*ep));
      eps.push_back(endpoints.back().get());
    }
    const EndpointGroup group = g.scheme == ShareScheme::kShamir
                                    ? EndpointGroup::Shamir(eps, g.threshold)
                                    : EndpointGroup::Additive(eps);
    ASSERT_EQ(group.executor, nullptr);
    ClientContext<FpCyclotomicRing> client = col->client();
    QuerySession<FpCyclotomicRing> session(&client, group);

    size_t rounds = 0;
    for (VerifyMode mode :
         {VerifyMode::kVerified, VerifyMode::kTrustedConstOnly}) {
      auto got = session.LookupMany(tags, mode);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      rounds += got->stats.rounds;
      for (size_t i = 0; i < tags.size(); ++i)
        EXPECT_EQ(SortedMatchPaths(got->per_tag[i].matches),
                  Sorted(PlaintextLookup(doc, tags[i]).match_paths))
            << "//" << tags[i];
    }
    for (const std::string& tag : tags) {
      auto got = session.Lookup(tag, VerifyMode::kVerified);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      rounds += got->stats.rounds;
      EXPECT_EQ(SortedMatchPaths(got->matches),
                Sorted(PlaintextLookup(doc, tag).match_paths))
          << "//" << tag;
    }
    std::lock_guard<std::mutex> lock(meeting.mu);
    EXPECT_FALSE(meeting.missed)
        << "a round's Eval reached one server while the client waited on "
           "another";
    EXPECT_EQ(meeting.met, rounds);
  }
}

/// What server 0 does with a fetch in the failover drill below.
enum class FetchFault { kNone, kShort, kRefuse };

/// A server whose fetch answers come back one entry short, or refused,
/// while `*fault` says so (never when `fault` is null); evaluations pass
/// through.
class FetchFaultHandler : public ServerHandler {
 public:
  FetchFaultHandler(ServerHandler* inner, const std::atomic<FetchFault>* fault)
      : inner_(inner), fault_(fault) {}

  Result<EvalResponse> HandleEval(const EvalRequest& req) override {
    return inner_->HandleEval(req);
  }
  Result<FetchResponse> HandleFetch(const FetchRequest& req) override {
    const FetchFault f = fault_ == nullptr
                             ? FetchFault::kNone
                             : fault_->load(std::memory_order_relaxed);
    if (f == FetchFault::kRefuse) return Status::Unavailable("fetch refused");
    auto r = inner_->HandleFetch(req);
    if (f == FetchFault::kShort && r.ok() && !r->entries.empty())
      r->entries.pop_back();
    return r;
  }

 private:
  ServerHandler* inner_;
  const std::atomic<FetchFault>* fault_;
};

TEST(PipelinedSocketTest, DeadServerIsOneFailoverOnBothFetchSchedules) {
  // Server 0 answers every fetch one entry short, or refuses it. Each
  // verified batch runs on a fresh session over pipelined endpoints (the
  // overlap schedule, which starts one fetch round per BFS round before
  // settling any) and over the same sockets behind no-fault decorators
  // that hide pipelining (the planned schedule). Under Shamir 2-of-3 the
  // dead server is one failover however many rounds asked it, and a round
  // finished by a replacement counts once, so fetch_rounds is the
  // schedule's count without the fault. A failed-over round keeps its good
  // answer and re-asks only the replacement: one message up more per fetch
  // round. An additive group needs every server and refuses with the
  // fault's own code.
  XmlNode doc = MakeDoc(403);
  DeterministicPrf seed = DeterministicPrf::FromString("pipe-failover");
  const std::vector<std::string> tags = doc.DistinctTags();
  struct Group {
    ShareScheme scheme;
    size_t servers;
    int threshold;
  };
  for (const Group& g : {Group{ShareScheme::kShamir, 3, 2},
                         Group{ShareScheme::kAdditive, 2, 0}}) {
    const bool shamir = g.scheme == ShareScheme::kShamir;
    SCOPED_TRACE(shamir ? "shamir" : "additive");
    DeployShape deploy;
    deploy.scheme = g.scheme;
    deploy.num_servers = static_cast<int>(g.servers);
    deploy.threshold = g.threshold;
    auto col = OneDocFpCollection(doc, seed, deploy).value();

    std::atomic<FetchFault> fault{FetchFault::kNone};
    std::vector<std::unique_ptr<FetchFaultHandler>> handlers;
    std::vector<std::unique_ptr<SocketServer>> servers;
    std::vector<std::unique_ptr<SocketEndpoint>> sockets;
    std::vector<std::unique_ptr<FaultInjectingEndpoint>> hiders;
    std::vector<ServerEndpoint*> piped, planned;
    for (size_t s = 0; s < g.servers; ++s) {
      handlers.push_back(std::make_unique<FetchFaultHandler>(
          col->handler(s), s == 0 ? &fault : nullptr));
      auto srv = SocketServer::Listen(handlers.back().get(), 0);
      ASSERT_TRUE(srv.ok()) << srv.status().ToString();
      auto ep = SocketEndpoint::Connect("127.0.0.1", (*srv)->port());
      ASSERT_TRUE(ep.ok()) << ep.status().ToString();
      servers.push_back(std::move(*srv));
      sockets.push_back(std::move(*ep));
      hiders.push_back(std::make_unique<FaultInjectingEndpoint>(
          sockets.back().get(), FaultConfig{}));
      piped.push_back(sockets.back().get());
      planned.push_back(hiders.back().get());
    }
    ClientContext<FpCyclotomicRing> client = col->client();

    for (bool overlap : {true, false}) {
      SCOPED_TRACE(overlap ? "overlap schedule" : "planned schedule");
      const std::vector<ServerEndpoint*>& eps = overlap ? piped : planned;
      const EndpointGroup group = shamir
                                      ? EndpointGroup::Shamir(eps, g.threshold)
                                      : EndpointGroup::Additive(eps);
      fault.store(FetchFault::kNone, std::memory_order_relaxed);
      QuerySession<FpCyclotomicRing> healthy(&client, group);
      auto base = healthy.LookupMany(tags, VerifyMode::kVerified);
      ASSERT_TRUE(base.ok()) << base.status().ToString();
      EXPECT_EQ(base->stats.server_failovers, 0u);

      for (FetchFault f : {FetchFault::kShort, FetchFault::kRefuse}) {
        SCOPED_TRACE(f == FetchFault::kShort ? "short" : "refused");
        fault.store(f, std::memory_order_relaxed);
        QuerySession<FpCyclotomicRing> session(&client, group);
        auto got = session.LookupMany(tags, VerifyMode::kVerified);
        if (!shamir) {
          ASSERT_FALSE(got.ok());
          EXPECT_EQ(got.status().code(), f == FetchFault::kShort
                                             ? StatusCode::kCorruption
                                             : StatusCode::kUnavailable);
          continue;
        }
        ASSERT_TRUE(got.ok()) << got.status().ToString();
        for (size_t i = 0; i < tags.size(); ++i)
          EXPECT_EQ(SortedMatchPaths(got->per_tag[i].matches),
                    Sorted(PlaintextLookup(doc, tags[i]).match_paths))
              << "//" << tags[i];
        EXPECT_EQ(got->stats.server_failovers, 1u);
        EXPECT_EQ(got->stats.fetch_rounds, base->stats.fetch_rounds);
        EXPECT_EQ(got->stats.transport.messages_up,
                  base->stats.transport.messages_up +
                      base->stats.fetch_rounds);
      }
    }
  }
}

TEST(PipelinedSocketTest, OutOfOrderCompletionSlowFrameFirstFinishesLast) {
  XmlNode doc = MakeDoc(402, 30);
  DeterministicPrf seed = DeterministicPrf::FromString("pipe-ooo");
  FpDeployment dep = MakeFpDeployment(doc, seed).value();
  SlowEvalHandler slow(dep.server.get(), /*eval_delay_ms=*/300);
  auto server = SocketServer::Listen(&slow, 0);
  ASSERT_TRUE(server.ok());
  auto ep = SocketEndpoint::Connect("127.0.0.1", (*server)->port());
  ASSERT_TRUE(ep.ok());

  // Slow frame first: an Eval that the server sits on for 300 ms...
  EvalRequest eval_req;
  eval_req.points = {1};
  eval_req.node_ids = {0};
  auto deferred_eval = (*ep)->BeginEval(eval_req);

  // ...then a fast Fetch on the SAME connection. Request-response framing
  // would queue it behind the sleeping Eval; tagged frames let it overtake.
  FetchRequest fetch_req;
  fetch_req.mode = FetchMode::kFull;
  fetch_req.node_ids = {0};
  const auto fetch_start = std::chrono::steady_clock::now();
  auto fetch = (*ep)->Fetch(fetch_req);
  const auto fetch_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                            std::chrono::steady_clock::now() - fetch_start)
                            .count();
  ASSERT_TRUE(fetch.ok()) << fetch.status().ToString();
  EXPECT_LT(fetch_ms, 250) << "fast frame queued behind the slow one";

  auto eval = deferred_eval.Await();
  ASSERT_TRUE(eval.ok()) << eval.status().ToString();
  ASSERT_EQ(eval->entries.size(), 1u);
  EXPECT_EQ(eval->entries[0].node_id, 0);

  // Server-side completion order agrees: the fetch finished first even
  // though the eval's frame arrived first.
  EXPECT_EQ(slow.completion_order(), "FE");
  EXPECT_EQ((*server)->connections_accepted(), 1u);
}

TEST(PipelinedSocketTest, InterleavedKindsOnOneConnection) {
  XmlNode doc = MakeDoc(403, 30);
  DeterministicPrf seed = DeterministicPrf::FromString("pipe-interleave");
  FpDeployment dep = MakeFpDeployment(doc, seed).value();
  AdminStubHandler handler(dep.server.get());
  auto server = SocketServer::Listen(&handler, 0);
  ASSERT_TRUE(server.ok());
  auto ep = SocketEndpoint::Connect("127.0.0.1", (*server)->port());
  ASSERT_TRUE(ep.ok());

  EvalRequest eval_req;
  eval_req.points = {1};
  eval_req.node_ids = {0};
  FetchRequest fetch_req;
  fetch_req.mode = FetchMode::kFull;
  fetch_req.node_ids = {0};
  AddDocRequest add_req;
  add_req.doc_id = 7;
  add_req.store_bytes = {1, 2, 3, 4};

  // Eval and Fetch in flight, AdminAck exchanged in between, then both
  // awaited — three kinds interleaved on one tagged connection.
  auto d_eval = (*ep)->BeginEval(eval_req);
  auto d_fetch = (*ep)->BeginFetch(fetch_req);
  auto ack = (*ep)->AddDoc(add_req);
  ASSERT_TRUE(ack.ok()) << ack.status().ToString();
  EXPECT_EQ(ack->doc_count, 1u);
  EXPECT_EQ(ack->node_count, 4u);

  auto eval = d_eval.Await();
  ASSERT_TRUE(eval.ok()) << eval.status().ToString();
  auto fetch = d_fetch.Await();
  ASSERT_TRUE(fetch.ok()) << fetch.status().ToString();

  RemoveDocRequest rm;
  rm.doc_id = 7;
  auto rm_ack = (*ep)->RemoveDoc(rm);
  ASSERT_TRUE(rm_ack.ok());
  EXPECT_EQ(rm_ack->doc_count, 0u);
  EXPECT_EQ((*server)->connections_accepted(), 1u);
  EXPECT_EQ((*server)->pipelined_connections(), 1u);
}

TEST(PipelinedSocketTest, ConnectionWithoutHelloIsClosed) {
  // Refusal drill: a peer whose first frame is not the hello — here an
  // untagged [kind][len] request — is closed without a reply, and the
  // server keeps serving the next client.
  XmlNode doc = MakeDoc(404, 40);
  DeterministicPrf seed = DeterministicPrf::FromString("pipe-nohello");
  FpDeployment dep = MakeFpDeployment(doc, seed).value();
  auto server = SocketServer::Listen(dep.server.get(), 0);
  ASSERT_TRUE(server.ok());

  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons((*server)->port());
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);
  EvalRequest req;
  req.points = {1};
  req.node_ids = {0};
  ByteWriter up;
  req.Serialize(&up);
  std::vector<uint8_t> frame = {static_cast<uint8_t>(MessageKind::kEval),
                                static_cast<uint8_t>(up.size()), 0, 0, 0};
  frame.insert(frame.end(), up.span().begin(), up.span().end());
  ASSERT_TRUE(WriteFull(fd, frame.data(), frame.size()).ok());
  uint8_t byte;
  EXPECT_EQ(::read(fd, &byte, 1), 0) << "expected EOF, got a reply";
  ::close(fd);
  EXPECT_EQ((*server)->pipelined_connections(), 0u);

  auto ep = SocketEndpoint::Connect("127.0.0.1", (*server)->port());
  ASSERT_TRUE(ep.ok()) << ep.status().ToString();
  QuerySession<FpCyclotomicRing> session(&dep.client,
                                         EndpointGroup::TwoParty(ep->get()));
  FpDeployment oracle_dep = MakeFpDeployment(doc, seed).value();
  TestSession<FpCyclotomicRing> oracle(&oracle_dep.client,
                                       oracle_dep.server.get());
  for (const std::string& tag : doc.DistinctTags()) {
    auto got = session.Lookup(tag, VerifyMode::kVerified);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    auto want = oracle.Lookup(tag, VerifyMode::kVerified).value();
    EXPECT_EQ(SortedMatchPaths(got->matches), SortedMatchPaths(want.matches))
        << "//" << tag;
  }
  EXPECT_EQ((*server)->connections_accepted(), 2u);
  EXPECT_EQ((*server)->pipelined_connections(), 1u);
}

TEST(PipelinedSocketTest, ServerInflightCapClosesFloodingConnection) {
  // Tag-flood / alloc-bomb guard, server side: a connection that keeps
  // pipelining requests without reading responses is closed once its
  // in-flight count hits the cap.
  XmlNode doc = MakeDoc(405, 20);
  DeterministicPrf seed = DeterministicPrf::FromString("pipe-flood");
  FpDeployment dep = MakeFpDeployment(doc, seed).value();
  SlowEvalHandler slow(dep.server.get(), /*eval_delay_ms=*/50);
  SocketServer::Options opts;
  opts.worker_threads = 2;
  opts.max_inflight_per_connection = 8;
  auto server = SocketServer::Listen(&slow, 0, opts);
  ASSERT_TRUE(server.ok());

  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons((*server)->port());
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);

  // Hello, then the ack.
  std::vector<uint8_t> hello;
  const uint8_t version[] = {kPipelineProtocolVersion};
  AppendTaggedFrame(&hello, kHelloFrameKind, 0, version);
  ASSERT_TRUE(WriteFull(fd, hello.data(), hello.size()).ok());
  uint8_t ack[10];
  ASSERT_TRUE(ReadFull(fd, ack, sizeof ack, nullptr).ok());
  EXPECT_EQ(ack[0], static_cast<uint8_t>(StatusCode::kOk));

  // 64 pipelined Evals, never reading a byte back.
  EvalRequest req;
  req.points = {1};
  req.node_ids = {0};
  ByteWriter up;
  req.Serialize(&up);
  std::vector<uint8_t> burst;
  for (uint32_t tag = 1; tag <= 64; ++tag) {
    AppendTaggedFrame(&burst, static_cast<uint8_t>(MessageKind::kEval), tag,
                      up.span());
  }
  (void)WriteFull(fd, burst.data(), burst.size());  // may hit the close

  // The server must close the connection (EOF) rather than buffer all 64.
  size_t responses = 0;
  std::vector<uint8_t> buf(1 << 16);
  for (;;) {
    ssize_t n = ::read(fd, buf.data(), buf.size());
    if (n <= 0) break;
    responses += static_cast<size_t>(n);
  }
  ::close(fd);
  // Fewer response bytes than 64 full answers (each is ≥ 9 bytes + body).
  EXPECT_LT(responses, 64u * 9u + 64u * 100u);
}

TEST(PipelinedSocketTest, ClientPendingCapRefusesAllocBomb) {
  // Tag-flood guard, client side: the pending-request map is capacity
  // bounded; a submit past the cap fails fast with FailedPrecondition
  // instead of growing without bound.
  XmlNode doc = MakeDoc(406, 20);
  DeterministicPrf seed = DeterministicPrf::FromString("pipe-cap");
  FpDeployment dep = MakeFpDeployment(doc, seed).value();
  SlowEvalHandler slow(dep.server.get(), /*eval_delay_ms=*/200);
  SocketServer::Options sopts;
  sopts.worker_threads = 4;
  auto server = SocketServer::Listen(&slow, 0, sopts);
  ASSERT_TRUE(server.ok());

  SocketEndpoint::ConnectOptions opts;
  opts.max_pending = 2;
  auto ep = SocketEndpoint::Connect("127.0.0.1", (*server)->port(), opts);
  ASSERT_TRUE(ep.ok());

  EvalRequest req;
  req.points = {1};
  req.node_ids = {0};
  auto d1 = (*ep)->BeginEval(req);
  auto d2 = (*ep)->BeginEval(req);
  EXPECT_EQ((*ep)->pending(), 2u);
  auto d3 = (*ep)->BeginEval(req);
  auto r3 = d3.Await();
  ASSERT_FALSE(r3.ok());
  EXPECT_EQ(r3.status().code(), StatusCode::kFailedPrecondition);

  // The capped submit did not disturb the in-flight requests.
  auto r1 = d1.Await();
  auto r2 = d2.Await();
  EXPECT_TRUE(r1.ok()) << r1.status().ToString();
  EXPECT_TRUE(r2.ok()) << r2.status().ToString();
}

TEST(PipelinedSocketTest, StopDuringInflightPipelinedWritesDrainsCleanly) {
  // The Stop() <-> event-loop shutdown contract, raced deliberately (this
  // is the TSan drill): requests in flight when Stop() lands must each
  // resolve exactly once — a response (drained before close) or
  // Unavailable (dialed after close) — never a hang, never a duplicate
  // delivery (a double-send would surface as Corruption from the tag
  // router), never a torn result.
  XmlNode doc = MakeDoc(407, 30);
  DeterministicPrf seed = DeterministicPrf::FromString("pipe-stoprace");
  FpDeployment dep = MakeFpDeployment(doc, seed).value();
  auto server = SocketServer::Listen(dep.server.get(), 0);
  ASSERT_TRUE(server.ok());
  auto ep = SocketEndpoint::Connect("127.0.0.1", (*server)->port());
  ASSERT_TRUE(ep.ok());

  EvalRequest req;
  req.points = {1};
  req.node_ids = {0};
  const EvalResponse reference = dep.server->HandleEval(req).value();

  std::atomic<bool> stop_issued{false};
  std::atomic<size_t> ok_count{0}, unavailable_count{0};
  std::atomic<bool> bad_status{false}, torn_result{false};
  constexpr int kThreads = 4;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      while (!stop_issued.load(std::memory_order_acquire)) {
        auto d = (*ep)->BeginEval(req);
        auto r = d.Await();
        if (r.ok()) {
          ok_count.fetch_add(1, std::memory_order_relaxed);
          if (r->entries.size() != 1 ||
              r->entries[0].node_id != reference.entries[0].node_id ||
              r->entries[0].values != reference.entries[0].values) {
            torn_result.store(true, std::memory_order_relaxed);
          }
        } else if (r.status().code() == StatusCode::kUnavailable) {
          unavailable_count.fetch_add(1, std::memory_order_relaxed);
        } else {
          bad_status.store(true, std::memory_order_relaxed);
        }
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  (*server)->Stop();
  stop_issued.store(true, std::memory_order_release);
  for (std::thread& t : threads) t.join();

  EXPECT_GT(ok_count.load(), 0u) << "no request completed before Stop()";
  EXPECT_FALSE(torn_result.load()) << "a drained response was corrupted";
  EXPECT_FALSE(bad_status.load())
      << "a request resolved with something other than success/Unavailable "
         "(Corruption here would mean a lost or double-sent response)";
}

}  // namespace
}  // namespace polysse
