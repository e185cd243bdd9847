// Quickstart: outsource an XML document to an untrusted server and query it
// without the server learning the data, the query, or the answer.
//
//   $ ./quickstart
//
// Walks through the full §4 pipeline behind the polysse::Collection facade:
// parse -> Create + Add (tag map, poly tree, share split, endpoints) ->
// query //client -> verify answers -> one batched multi-query round.
#include <cstdio>

#include "core/collection.h"
#include "xml/xml_parser.h"

int main() {
  using namespace polysse;

  // 1. The data owner's document (the paper's Fig. 1 example, with text).
  const char* kXml = R"(
    <customers>
      <client><name>Alice</name></client>
      <client><name>Bob</name></client>
    </customers>)";
  auto doc = ParseXml(kXml);
  if (!doc.ok()) {
    std::fprintf(stderr, "parse error: %s\n", doc.status().ToString().c_str());
    return 1;
  }

  // 2. Outsource. The client secret is a single 32-byte seed; everything
  //    else (tag map, share polynomials) derives from it. The server side
  //    sits behind a ServerEndpoint, so every message is a real protocol
  //    exchange with byte accounting. A collection holds any number of
  //    documents; this one holds one, as document 0, in a field sized for
  //    its alphabet.
  DeterministicPrf seed = DeterministicPrf::FromString("quickstart-demo-seed");
  const DeployShape deploy;  // two-party: the client plus one server
  auto col = FpCollection::Create(
      seed, deploy,
      {.p = FpCollection::AutoPrime(doc->DistinctTags().size(), deploy)});
  if (!col.ok()) {
    std::fprintf(stderr, "outsource error: %s\n",
                 col.status().ToString().c_str());
    return 1;
  }
  if (Status s = (*col)->Add(0, *doc); !s.ok()) {
    std::fprintf(stderr, "outsource error: %s\n", s.ToString().c_str());
    return 1;
  }
  const ServerStore<FpCyclotomicRing>& store = *(*col)->doc_store(0, 0).value();
  std::printf("outsourced %zu elements, field p = %llu\n", store.size(),
              static_cast<unsigned long long>((*col)->ring().p()));
  std::printf("server stores %zu bytes of share polynomials\n",
              store.PersistedBytes());
  std::printf("client keeps %zu bytes (seed + private tag map)\n\n",
              (*col)->client().PersistedBytes());

  // 3. Query //client with untrusted-server verification (Eq. 3 checks).
  auto result = (*col)->SearchDoc(0, "client", VerifyMode::kVerified);
  if (!result.ok()) {
    std::fprintf(stderr, "query error: %s\n",
                 result.status().ToString().c_str());
    return 1;
  }

  std::printf("//client matched %zu element(s):\n", result->matches.size());
  for (const auto& m : result->matches) {
    std::printf("  node %d at path \"%s\"\n", m.node_id, m.path.c_str());
  }
  const QueryStats& s = result->stats;
  std::printf("\nprotocol cost: %zu of %zu nodes visited, %zu server evals, "
              "%zu B up / %zu B down, %zu verified reconstructions\n",
              s.nodes_visited, s.total_server_nodes, s.server_evals,
              s.transport.bytes_up, s.transport.bytes_down, s.reconstructions);
  std::printf("the server never saw: tag names, the query word, or which "
              "nodes matched.\n\n");

  // 4. Batched execution: many concurrent queries share one BFS walk.
  std::vector<Query> batch = {{"client", VerifyMode::kVerified},
                              {"name", VerifyMode::kVerified},
                              {"customers", VerifyMode::kOptimistic}};
  auto multi = (*col)->SearchMany(batch);
  if (!multi.ok()) {
    std::fprintf(stderr, "batch error: %s\n",
                 multi.status().ToString().c_str());
    return 1;
  }
  std::printf("batched %zu queries in %zu shared protocol rounds:\n",
              batch.size(), (*multi)[0].stats.rounds);
  for (size_t i = 0; i < batch.size(); ++i) {
    std::printf("  //%s -> %zu match(es)\n", batch[i].tag.c_str(),
                (*multi)[i].per_doc[0].matches.size());
  }
  return 0;
}
