// E9 — §4.3 "Advanced Querying": left-to-right stepping vs the paper's
// all-at-once strategy ("it is more efficient to evaluate the whole query
// at once ... elements are filtered out in a very early stage").
//
// Documents contain a few planted //a/b//c/d paths amid decoy subtrees that
// match early steps but never the whole query — exactly the case where
// all-at-once pruning pays off.
#include <cstdio>

#include "core/outsource.h"
#include "core/query_session.h"
#include "testing/deploy_helpers.h"
#include "xml/xml_generator.h"

namespace {

using namespace polysse;
using namespace polysse::testing;

// Builds a document with `planted` full a/b/c/d chains and `decoys`
// subtrees that contain a and b but never c or d.
XmlNode BuildPlantedDocument(int planted, int decoys, int filler_depth) {
  XmlNode root("root");
  for (int i = 0; i < planted; ++i) {
    XmlNode a("a");
    XmlNode b("b");
    XmlNode* cur = &b;
    for (int d = 0; d < filler_depth; ++d) cur = &cur->AddChild("filler");
    XmlNode c("c");
    c.AddChild("d");
    cur->AddChild(std::move(c));
    a.AddChild(std::move(b));
    root.AddChild(std::move(a));
  }
  for (int i = 0; i < decoys; ++i) {
    XmlNode a("a");
    XmlNode b("b");
    XmlNode* cur = &b;
    for (int d = 0; d < filler_depth + 4; ++d) cur = &cur->AddChild("filler");
    cur->AddChild("e");  // dead end: no c/d below
    a.AddChild(std::move(b));
    root.AddChild(std::move(a));
  }
  return root;
}

}  // namespace

int main() {
  std::printf("=== E9 / advanced querying: left-to-right vs all-at-once ===\n\n");
  DeterministicPrf seed = DeterministicPrf::FromString("xpath-bench");

  std::printf("%8s %7s | %8s | %10s %10s %12s | %10s %10s %12s | %8s\n",
              "planted", "decoys", "matches", "l2r:visit", "l2r:evals",
              "l2r:bytes_dn", "aao:visit", "aao:evals", "aao:bytes_dn",
              "agree");
  for (int decoys : {4, 16, 64, 256}) {
    XmlNode doc = BuildPlantedDocument(/*planted=*/3, decoys,
                                       /*filler_depth=*/6);
    auto dep = MakeFpDeployment(doc, seed);
    if (!dep.ok()) continue;
    TestSession<FpCyclotomicRing> session(&dep->client, dep->server.get());
    auto query = XPathQuery::Parse("//a/b//c/d").value();

    auto l2r = session.EvaluateXPath(query, XPathStrategy::kLeftToRight,
                                     VerifyMode::kVerified);
    auto aao = session.EvaluateXPath(query, XPathStrategy::kAllAtOnce,
                                     VerifyMode::kVerified);
    if (!l2r.ok() || !aao.ok()) continue;
    std::printf("%8d %7d | %8zu | %10zu %10zu %12zu | %10zu %10zu %12zu | %8s\n",
                3, decoys, aao->matches.size(), l2r->stats.nodes_visited,
                l2r->stats.server_evals, l2r->stats.transport.bytes_down,
                aao->stats.nodes_visited, aao->stats.server_evals,
                aao->stats.transport.bytes_down,
                l2r->matches.size() == aao->matches.size() ? "yes" : "NO");
  }

  std::printf("\nrandom-document sanity (strategies must agree on arbitrary "
              "shapes):\n");
  for (uint64_t s : {1ull, 2ull, 3ull}) {
    XmlGeneratorOptions gen;
    gen.num_nodes = 600;
    gen.tag_alphabet = 10;
    gen.seed = s;
    XmlNode doc = GenerateXmlTree(gen);
    auto dep = MakeFpDeployment(doc, seed);
    if (!dep.ok()) continue;
    TestSession<FpCyclotomicRing> session(&dep->client, dep->server.get());
    auto tags = doc.DistinctTags();
    std::string q = "//" + tags[0] + "//" + tags[1 % tags.size()];
    auto query = XPathQuery::Parse(q).value();
    auto l2r = session.EvaluateXPath(query, XPathStrategy::kLeftToRight,
                                     VerifyMode::kVerified);
    auto aao = session.EvaluateXPath(query, XPathStrategy::kAllAtOnce,
                                     VerifyMode::kVerified);
    if (!l2r.ok() || !aao.ok()) continue;
    std::printf("  seed %llu, %-24s: l2r %zu matches (%zu visited), aao %zu "
                "matches (%zu visited)\n",
                static_cast<unsigned long long>(s), q.c_str(),
                l2r->matches.size(), l2r->stats.nodes_visited,
                aao->matches.size(), aao->stats.nodes_visited);
  }
  std::printf("\nshape check (paper): all-at-once visits no more nodes than "
              "left-to-right, and prunes decoy branches early.\n");
  return 0;
}
