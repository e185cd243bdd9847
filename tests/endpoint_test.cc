// Unit tests of the transport layer: the loopback endpoint against direct
// handler calls, the serialized dispatch path, counters, the fault
// decorator, and the EndpointGroup validation rules.
#include <gtest/gtest.h>

#include "core/endpoint.h"
#include "core/outsource.h"
#include "core/query_session.h"
#include "testing/deploy_helpers.h"
#include "xml/xml_generator.h"

namespace polysse {
namespace {

using testing::FpDeployment;
using testing::MakeFpDeployment;
using testing::TestSession;

FpDeployment MakeDeployment(const char* seed_label) {
  XmlNode doc = MakeFig1Document();
  DeterministicPrf prf = DeterministicPrf::FromString(seed_label);
  return MakeFpDeployment(doc, prf).value();
}

EvalRequest RootEval(uint64_t point) {
  EvalRequest req;
  req.points = {point};
  req.node_ids = {0};
  return req;
}

FetchRequest RootFetch() {
  FetchRequest req;
  req.mode = FetchMode::kFull;
  req.node_ids = {0};
  return req;
}

TEST(EndpointTest, LoopbackAnswersLikeDirectHandlerCalls) {
  FpDeployment dep = MakeDeployment("ep-ident");
  LoopbackEndpoint wire(dep.server.get());

  EvalRequest req = RootEval(1);
  EvalResponse a = dep.server->HandleEval(req).value();
  EvalResponse b = wire.Eval(req).value();
  ASSERT_EQ(a.entries.size(), 1u);
  ASSERT_EQ(b.entries.size(), 1u);
  EXPECT_EQ(a.entries[0].node_id, b.entries[0].node_id);
  EXPECT_EQ(a.entries[0].values, b.entries[0].values);
  EXPECT_EQ(a.entries[0].children, b.entries[0].children);
  EXPECT_EQ(a.entries[0].subtree_size, b.entries[0].subtree_size);

  FetchResponse fa = dep.server->HandleFetch(RootFetch()).value();
  FetchResponse fb = wire.Fetch(RootFetch()).value();
  ASSERT_EQ(fa.entries.size(), 1u);
  ASSERT_EQ(fb.entries.size(), 1u);
  EXPECT_EQ(fa.entries[0].payload, fb.entries[0].payload);
}

TEST(EndpointTest, LoopbackCountsRealBytesAndMessages) {
  FpDeployment dep = MakeDeployment("ep-count");
  LoopbackEndpoint wire(dep.server.get());

  // Each exchange counts one message per direction, sized as its encoding.
  EvalResponse eval = wire.Eval(RootEval(1)).value();
  FetchResponse fetch = wire.Fetch(RootFetch()).value();
  ByteWriter up;
  RootEval(1).Serialize(&up);
  RootFetch().Serialize(&up);
  ByteWriter down;
  eval.Serialize(&down);
  fetch.Serialize(&down);
  EXPECT_EQ(wire.counters().messages_up, 2u);
  EXPECT_EQ(wire.counters().messages_down, 2u);
  EXPECT_EQ(wire.counters().bytes_up, up.size());
  EXPECT_EQ(wire.counters().bytes_down, down.size());

  // A request the handler refuses still crossed the wire; no response did.
  EvalRequest bad = RootEval(1);
  bad.node_ids = {1 << 20};
  ASSERT_FALSE(wire.Eval(bad).ok());
  EXPECT_EQ(wire.counters().messages_up, 3u);
  EXPECT_EQ(wire.counters().messages_down, 2u);
  EXPECT_EQ(wire.counters().bytes_down, down.size());
}

TEST(EndpointTest, DispatchSerializedRejectsGarbageCleanly) {
  FpDeployment dep = MakeDeployment("ep-garbage");
  const std::vector<uint8_t> garbage = {0xFF, 0xFF, 0xFF, 0xFF, 0x01};
  auto r = DispatchSerialized(dep.server.get(), MessageKind::kEval, garbage);
  EXPECT_FALSE(r.ok());
  auto f = DispatchSerialized(dep.server.get(), MessageKind::kFetch, garbage);
  EXPECT_FALSE(f.ok());
}

TEST(EndpointTest, FaultInjectionFailAfterCalls) {
  FpDeployment dep = MakeDeployment("ep-fail");
  LoopbackEndpoint wire(dep.server.get());
  FaultConfig config;
  config.fail_after_calls = 2;
  FaultInjectingEndpoint flaky(&wire, config);

  EvalRequest req = RootEval(1);
  EXPECT_TRUE(flaky.Eval(req).ok());
  EXPECT_TRUE(flaky.Eval(req).ok());
  auto third = flaky.Eval(req);
  ASSERT_FALSE(third.ok());
  EXPECT_EQ(third.status().code(), StatusCode::kUnavailable);
  // Counters pass through to the inner endpoint (2 delivered messages).
  EXPECT_EQ(flaky.counters().messages_up, 2u);
}

TEST(EndpointTest, FaultInjectionTamperAndCorruption) {
  FpDeployment dep = MakeDeployment("ep-tamper");
  LoopbackEndpoint wire(dep.server.get());

  FaultConfig tamper;
  tamper.tamper_eval = [](EvalResponse& resp) {
    for (EvalEntry& e : resp.entries)
      for (uint64_t& v : e.values) v += 1;
  };
  FaultInjectingEndpoint cheater(&wire, tamper);
  EvalRequest req = RootEval(1);
  EvalResponse honest = wire.Eval(req).value();
  EvalResponse lied = cheater.Eval(req).value();
  EXPECT_EQ(lied.entries[0].values[0], honest.entries[0].values[0] + 1);

  // Byte corruption either fails cleanly or yields a decodable (wrong)
  // message — never UB. Drive many calls so the rotating flip position
  // crosses headers and payloads alike.
  FaultConfig corrupt;
  corrupt.corrupt_response_bytes = true;
  FaultInjectingEndpoint noisy(&wire, corrupt);
  for (int i = 0; i < 64; ++i) {
    auto r = noisy.Eval(req);
    if (!r.ok()) {
      EXPECT_FALSE(r.status().message().empty());
    }
  }
}

TEST(EndpointTest, GroupValidation) {
  FpDeployment dep = MakeDeployment("ep-group");
  LoopbackEndpoint a(dep.server.get()), b(dep.server.get()),
      c(dep.server.get());

  EXPECT_TRUE(EndpointGroup::TwoParty(&a).Validate().ok());
  EXPECT_TRUE(EndpointGroup::Additive({&a, &b, &c}).Validate().ok());
  EXPECT_TRUE(EndpointGroup::Shamir({&a, &b, &c}, 2).Validate().ok());

  EndpointGroup empty;
  EXPECT_FALSE(empty.Validate().ok());
  EndpointGroup two = EndpointGroup::TwoParty(&a);
  two.endpoints.push_back(&b);
  EXPECT_FALSE(two.Validate().ok());
  EXPECT_FALSE(EndpointGroup::Shamir({&a, &b}, 3).Validate().ok());
  EXPECT_FALSE(EndpointGroup::Shamir({&a, &b}, 0).Validate().ok());
  EndpointGroup dup = EndpointGroup::Shamir({&a, &b}, 2);
  dup.shamir_x = {1, 1};
  EXPECT_FALSE(dup.Validate().ok());
}

TEST(EndpointTest, SessionOverExplicitEndpointMatchesCompatPath) {
  // The compat constructor (client, store) and an explicit two-party
  // loopback group must be byte-for-byte the same protocol.
  XmlGeneratorOptions gen;
  gen.num_nodes = 60;
  gen.tag_alphabet = 6;
  gen.seed = 31;
  XmlNode doc = GenerateXmlTree(gen);
  DeterministicPrf prf = DeterministicPrf::FromString("ep-compat");
  FpDeployment dep1 = MakeFpDeployment(doc, prf).value();
  FpDeployment dep2 = MakeFpDeployment(doc, prf).value();

  TestSession<FpCyclotomicRing> compat(&dep1.client, dep1.server.get());
  LoopbackEndpoint wire(dep2.server.get());
  QuerySession<FpCyclotomicRing> explicit_session(
      &dep2.client, EndpointGroup::TwoParty(&wire));

  for (const std::string& tag : doc.DistinctTags()) {
    auto r1 = compat.Lookup(tag, VerifyMode::kVerified).value();
    auto r2 = explicit_session.Lookup(tag, VerifyMode::kVerified).value();
    EXPECT_EQ(r1.matches, r2.matches) << tag;
    EXPECT_EQ(r1.stats.transport.bytes_up, r2.stats.transport.bytes_up);
    EXPECT_EQ(r1.stats.transport.bytes_down, r2.stats.transport.bytes_down);
    EXPECT_EQ(r1.stats.server_evals, r2.stats.server_evals);
  }
}

}  // namespace
}  // namespace polysse
