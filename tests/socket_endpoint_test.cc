// End-to-end tests of the net/ layer: outsource a document, serve the
// share store(s) over real loopback TCP via SocketServer, query through
// SocketEndpoint-backed sessions, and verify the answers — plus framing
// robustness against garbage, oversized announcements and dropped
// connections.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <string>
#include <vector>

#include "core/collection.h"
#include "core/store_registry.h"
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

XmlNode MakeDoc(uint64_t seed, size_t num_nodes = 60) {
  XmlGeneratorOptions gen;
  gen.num_nodes = num_nodes;
  gen.tag_alphabet = 7;
  gen.max_fanout = 4;
  gen.seed = seed;
  return GenerateXmlTree(gen);
}

TEST(SocketEndpointTest, TwoPartyLookupOverRealTcp) {
  XmlNode doc = MakeDoc(301);
  DeterministicPrf seed = DeterministicPrf::FromString("socket-2p");
  FpDeployment dep = MakeFpDeployment(doc, seed).value();

  auto server = SocketServer::Listen(dep.server.get(), /*port=*/0);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  ASSERT_GT((*server)->port(), 0);

  auto ep = SocketEndpoint::Connect("127.0.0.1", (*server)->port());
  ASSERT_TRUE(ep.ok()) << ep.status().ToString();
  QuerySession<FpCyclotomicRing> session(&dep.client,
                                         EndpointGroup::TwoParty(ep->get()));

  // Oracle: the same store through an in-process loopback session.
  FpDeployment oracle_dep = MakeFpDeployment(doc, seed).value();
  TestSession<FpCyclotomicRing> oracle(&oracle_dep.client,
                                       oracle_dep.server.get());

  for (const std::string& tag : doc.DistinctTags()) {
    for (VerifyMode mode : {VerifyMode::kOptimistic, VerifyMode::kVerified,
                            VerifyMode::kTrustedConstOnly}) {
      auto over_tcp = session.Lookup(tag, mode);
      ASSERT_TRUE(over_tcp.ok()) << tag << ": "
                                 << over_tcp.status().ToString();
      auto local = oracle.Lookup(tag, mode).value();
      EXPECT_EQ(SortedMatchPaths(over_tcp->matches),
                SortedMatchPaths(local.matches))
          << "//" << tag;
      EXPECT_EQ(SortedMatchPaths(over_tcp->possible),
                SortedMatchPaths(local.possible))
          << "//" << tag;
    }
  }
  // Real bytes crossed the wire (payload + tagged frame headers).
  auto counters = (*ep)->counters();
  EXPECT_GT(counters.bytes_up, 0u);
  EXPECT_GT(counters.bytes_down,
            counters.messages_down * kTaggedFrameHeaderBytes);
  EXPECT_EQ((*server)->connections_accepted(), 1u);
}

TEST(SocketEndpointTest, ShamirGroupOverTcpWithParallelFanOut) {
  // Full multi-server path: n socket servers, one endpoint each, Shamir
  // recombination, pooled fan-out — answers must match the all-in-process
  // collection, and a killed server must fail over.
  XmlNode doc = MakeDoc(302, 40);
  DeterministicPrf seed = DeterministicPrf::FromString("socket-shamir");
  DeployShape deploy;
  deploy.scheme = ShareScheme::kShamir;
  deploy.num_servers = 4;
  deploy.threshold = 2;
  auto col = OneDocFpCollection(doc, seed, deploy).value();
  const std::string tag = doc.DistinctTags()[1];
  auto oracle = col->SearchDoc(0, tag, VerifyMode::kVerified).value();

  // Serve each collection-owned store over its own TCP port. The stores
  // keep serving their in-process endpoints too; handlers are thread-safe.
  std::vector<std::unique_ptr<SocketServer>> servers;
  std::vector<std::unique_ptr<SocketEndpoint>> endpoints;
  std::vector<ServerEndpoint*> eps;
  for (size_t s = 0; s < 4; ++s) {
    auto srv = SocketServer::Listen(col->handler(s), 0);
    ASSERT_TRUE(srv.ok()) << srv.status().ToString();
    auto ep = SocketEndpoint::Connect("127.0.0.1", (*srv)->port());
    ASSERT_TRUE(ep.ok()) << ep.status().ToString();
    servers.push_back(std::move(*srv));
    endpoints.push_back(std::move(*ep));
    eps.push_back(endpoints.back().get());
  }
  ThreadPool pool(4);
  EndpointGroup group = EndpointGroup::Shamir(eps, 2);
  group.executor = &pool;
  // The Shamir client holds no share; a copy of the collection's secret
  // state (tag map + seed) is all a remote client needs.
  ClientContext<FpCyclotomicRing> client = col->client();
  QuerySession<FpCyclotomicRing> session(&client, group);

  auto over_tcp = session.Lookup(tag, VerifyMode::kVerified);
  ASSERT_TRUE(over_tcp.ok()) << over_tcp.status().ToString();
  EXPECT_EQ(SortedMatchPaths(over_tcp->matches),
            SortedMatchPaths(oracle.matches));

  // Kill the first server's process: its connection drops, the session
  // marks it dead mid-query and fails over to a live replacement over TCP.
  servers[0]->Stop();
  auto after = session.Lookup(tag, VerifyMode::kVerified);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(SortedMatchPaths(after->matches), SortedMatchPaths(oracle.matches));
  EXPECT_GE(after->stats.server_failovers, 1u);
}

TEST(SocketEndpointTest, ServerSurvivesGarbageAndReportsWireErrors) {
  XmlNode doc = MakeDoc(303, 20);
  DeterministicPrf seed = DeterministicPrf::FromString("socket-garbage");
  FpDeployment dep = MakeFpDeployment(doc, seed).value();
  auto server = SocketServer::Listen(dep.server.get(), 0);
  ASSERT_TRUE(server.ok());

  // Raw socket: the hello, then one hand-written tagged frame. Returns the
  // header of the first response after the hello's ack — empty when the
  // server closed the connection instead of answering.
  auto send_raw = [&](const std::vector<uint8_t>& frame) {
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons((*server)->port());
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr),
              0);
    std::vector<uint8_t> bytes;
    const uint8_t version[] = {kPipelineProtocolVersion};
    AppendTaggedFrame(&bytes, kHelloFrameKind, /*tag=*/0, version);
    bytes.insert(bytes.end(), frame.begin(), frame.end());
    EXPECT_TRUE(WriteFull(fd, bytes.data(), bytes.size()).ok());
    uint8_t ack[kTaggedFrameHeaderBytes + 1];
    EXPECT_TRUE(ReadFull(fd, ack, sizeof ack, nullptr).ok());
    EXPECT_EQ(ack[0], static_cast<uint8_t>(StatusCode::kOk));
    std::vector<uint8_t> reply(kTaggedFrameHeaderBytes);
    if (!ReadFull(fd, reply.data(), reply.size(), nullptr).ok()) reply.clear();
    ::close(fd);
    return reply;
  };

  // Unknown message kind: framed error response under the request's tag,
  // connection stays sane.
  std::vector<uint8_t> unknown_kind = {0x77, 1, 0, 0, 0, 0, 0, 0, 0};
  auto reply = send_raw(unknown_kind);
  ASSERT_EQ(reply.size(), kTaggedFrameHeaderBytes);
  EXPECT_EQ(reply[0], static_cast<uint8_t>(StatusCode::kInvalidArgument));
  EXPECT_EQ(reply[1], 1u);

  // Garbage payload under a valid kind: dispatch decodes, fails, reports.
  std::vector<uint8_t> garbage = {static_cast<uint8_t>(MessageKind::kEval),
                                  2, 0, 0, 0, 4, 0, 0, 0,
                                  0xFF, 0xFF, 0xFF, 0xFF};
  reply = send_raw(garbage);
  ASSERT_EQ(reply.size(), kTaggedFrameHeaderBytes);
  EXPECT_NE(reply[0], static_cast<uint8_t>(StatusCode::kOk));
  EXPECT_EQ(reply[1], 2u);

  // A length announcement beyond the frame cap closes the connection
  // without allocating; the server must keep serving afterwards.
  std::vector<uint8_t> bomb = {static_cast<uint8_t>(MessageKind::kEval),
                               3, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF};
  EXPECT_TRUE(send_raw(bomb).empty());

  auto ep = SocketEndpoint::Connect("127.0.0.1", (*server)->port());
  ASSERT_TRUE(ep.ok());
  EvalRequest req;
  req.points = {1};
  req.node_ids = {0};
  auto resp = (*ep)->Eval(req);
  EXPECT_TRUE(resp.ok()) << resp.status().ToString();
}

TEST(SocketEndpointTest, StoppedServerYieldsUnavailable) {
  XmlNode doc = MakeDoc(304, 20);
  DeterministicPrf seed = DeterministicPrf::FromString("socket-stop");
  FpDeployment dep = MakeFpDeployment(doc, seed).value();
  auto server = SocketServer::Listen(dep.server.get(), 0);
  ASSERT_TRUE(server.ok());
  auto ep = SocketEndpoint::Connect("127.0.0.1", (*server)->port());
  ASSERT_TRUE(ep.ok());

  EvalRequest req;
  req.points = {1};
  req.node_ids = {0};
  ASSERT_TRUE((*ep)->Eval(req).ok());

  (*server)->Stop();
  auto r = (*ep)->Eval(req);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kUnavailable);
}

TEST(SocketEndpointTest, ReconnectsAfterServerRestart) {
  // Kill the server between queries, bring a fresh one up on the SAME
  // port: the endpoint's one automatic reconnect attempt must ride out
  // the restart without the caller noticing anything but the answer.
  XmlNode doc = MakeDoc(305, 30);
  DeterministicPrf seed = DeterministicPrf::FromString("socket-restart");
  FpDeployment dep = MakeFpDeployment(doc, seed).value();

  auto server = SocketServer::Listen(dep.server.get(), 0);
  ASSERT_TRUE(server.ok());
  const uint16_t port = (*server)->port();
  auto ep = SocketEndpoint::Connect("127.0.0.1", port);
  ASSERT_TRUE(ep.ok());

  QuerySession<FpCyclotomicRing> session(&dep.client,
                                         EndpointGroup::TwoParty(ep->get()));
  const std::string tag = doc.DistinctTags().front();
  auto before = session.Lookup(tag, VerifyMode::kVerified);
  ASSERT_TRUE(before.ok()) << before.status().ToString();
  EXPECT_EQ((*ep)->reconnects(), 0u);

  // Restart: the old connection is dead, the port is live again.
  (*server)->Stop();
  server->reset();
  auto restarted = SocketServer::Listen(dep.server.get(), port);
  ASSERT_TRUE(restarted.ok()) << restarted.status().ToString();

  auto after = session.Lookup(tag, VerifyMode::kVerified);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(SortedMatchPaths(after->matches),
            SortedMatchPaths(before->matches));
  EXPECT_GE((*ep)->reconnects(), 1u);

  // With the server gone for good, the reconnect attempt fails too and
  // the call surfaces Unavailable.
  (*restarted)->Stop();
  auto dead = session.Lookup(tag, VerifyMode::kVerified);
  ASSERT_FALSE(dead.ok());
  EXPECT_EQ(dead.status().code(), StatusCode::kUnavailable);
}

TEST(SocketEndpointTest, CollectionRegistryServedOverTcpWithLiveAddRemove) {
  // The multi-document flow across a real network boundary: an authoring
  // client saves a two-document collection, a server process loads the
  // registry and serves it over TCP, and a connected client searches it,
  // ADDS a third document over the wire (nothing about docs 1/2 crosses
  // again), then removes one.
  DeterministicPrf seed = DeterministicPrf::FromString("socket-collection");
  auto authoring = FpCollection::Create(seed).value();
  XmlNode a = MakeDoc(306, 30), b = MakeDoc(307, 40);
  ASSERT_TRUE(authoring->Add(1, a).ok());
  ASSERT_TRUE(authoring->Add(2, b).ok());
  ASSERT_TRUE(authoring->Save("/tmp/polysse_sock_col.bin",
                              "/tmp/polysse_sock_col.key")
                  .ok());

  // "Server process": load the registry from the store file and serve it.
  auto store_bytes = ReadFileBytes("/tmp/polysse_sock_col.bin").value();
  auto registry = LoadStoreRegistry<FpCyclotomicRing>(store_bytes);
  ASSERT_TRUE(registry.ok()) << registry.status().ToString();
  auto server = SocketServer::Listen(registry->get(), 0);
  ASSERT_TRUE(server.ok());

  // "Client process": key file + one TCP endpoint.
  auto key_bytes = ReadFileBytes("/tmp/polysse_sock_col.key").value();
  ByteReader key_reader(key_bytes);
  auto key = ClientSecretFile::Deserialize(&key_reader).value();
  auto ep = SocketEndpoint::Connect("127.0.0.1", (*server)->port());
  ASSERT_TRUE(ep.ok());
  auto col = FpCollection::Connect(key, {ep->get()});
  ASSERT_TRUE(col.ok()) << col.status().ToString();
  EXPECT_EQ((*col)->num_docs(), 2u);

  const std::string tag = a.DistinctTags().front();
  auto over_tcp = (*col)->Search(tag).value();
  auto local = authoring->Search(tag).value();
  ASSERT_EQ(over_tcp.per_doc.size(), local.per_doc.size());
  for (const auto& [id, result] : local.per_doc) {
    EXPECT_EQ(SortedMatchPaths(over_tcp.per_doc.at(id).matches),
              SortedMatchPaths(result.matches))
        << "doc " << id;
  }

  // Incremental add over TCP: only doc 3's share tree crosses the wire.
  const size_t bytes_before = (*ep)->counters().bytes_up;
  XmlNode c = MakeDoc(308, 20);
  ASSERT_TRUE((*col)->Add(3, c).ok());
  EXPECT_EQ((*registry)->num_docs(), 3u);
  const size_t add_bytes = (*ep)->counters().bytes_up - bytes_before;
  ByteWriter one_doc;
  SaveServerStore(*(*registry)->store(3).value(), &one_doc);
  // The admin message is the one document's store (plus small framing) —
  // nowhere near a re-upload of the whole collection.
  EXPECT_LT(add_bytes, one_doc.size() + 128);

  auto c_hits = (*col)->SearchDoc(3, c.DistinctTags().front());
  ASSERT_TRUE(c_hits.ok()) << c_hits.status().ToString();

  // Remove over TCP; the server's registry shrinks, searches move on.
  ASSERT_TRUE((*col)->Remove(1).ok());
  EXPECT_EQ((*registry)->num_docs(), 2u);
  auto after = (*col)->Search(tag).value();
  EXPECT_EQ(after.per_doc.count(1), 0u);

  // The connected client can persist its updated key and reconnect later.
  ASSERT_TRUE((*col)->SaveKey("/tmp/polysse_sock_col.key").ok());
  auto key_bytes2 = ReadFileBytes("/tmp/polysse_sock_col.key").value();
  ByteReader key_reader2(key_bytes2);
  auto key2 = ClientSecretFile::Deserialize(&key_reader2).value();
  auto col2 = FpCollection::Connect(key2, {ep->get()});
  ASSERT_TRUE(col2.ok());
  EXPECT_EQ((*col2)->num_docs(), 2u);
  auto again = (*col2)->SearchDoc(3, c.DistinctTags().front());
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(SortedMatchPaths(again->matches), SortedMatchPaths(c_hits->matches));
}

TEST(SocketEndpointTest, ProbeIsARealFramedRoundTripOverTcp) {
  // Probe() on a SocketEndpoint must exercise the actual wire — a live
  // server answers with inventory counts, a stopped one turns the probe
  // into Unavailable, and a nonce mismatch would be Corruption.
  DeterministicPrf seed = DeterministicPrf::FromString("socket-probe");
  auto col = FpCollection::Create(seed).value();
  ASSERT_TRUE(col->Add(1, MakeDoc(309, 20)).ok());
  ASSERT_TRUE(col->Add(2, MakeDoc(310, 25)).ok());

  auto server = SocketServer::Listen(col->handler(0), 0);
  ASSERT_TRUE(server.ok());
  auto ep = SocketEndpoint::Connect("127.0.0.1", (*server)->port());
  ASSERT_TRUE(ep.ok());

  const size_t up_before = (*ep)->counters().messages_up;
  ASSERT_TRUE((*ep)->Probe().ok());
  EXPECT_GT((*ep)->counters().messages_up, up_before)
      << "a probe that does not cross the wire proves nothing";

  // The raw Ping carries the registry's inventory and echoes the nonce.
  PingRequest req;
  req.nonce = 0xABCDEF0123456789ull;
  auto pong = (*ep)->Ping(req);
  ASSERT_TRUE(pong.ok()) << pong.status().ToString();
  EXPECT_EQ(pong->nonce, req.nonce);
  EXPECT_EQ(pong->doc_count, 2u);
  EXPECT_EQ(pong->node_count, col->total_nodes());

  (*server)->Stop();
  Status dead = (*ep)->Probe();
  ASSERT_FALSE(dead.ok());
  EXPECT_EQ(dead.code(), StatusCode::kUnavailable);
}

TEST(SocketEndpointTest, ConnectToNothingFailsCleanly) {
  // Grab an ephemeral port, close it again, then connect to it.
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  ASSERT_EQ(::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);
  socklen_t len = sizeof addr;
  ASSERT_EQ(::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len), 0);
  const uint16_t dead_port = ntohs(addr.sin_port);
  ::close(fd);

  auto ep = SocketEndpoint::Connect("127.0.0.1", dead_port);
  ASSERT_FALSE(ep.ok());
  EXPECT_EQ(ep.status().code(), StatusCode::kUnavailable);
  EXPECT_FALSE(SocketEndpoint::Connect("not-an-ip", 1).ok());
}

}  // namespace
}  // namespace polysse
