// A small end-to-end command line tool around the library — the workflow a
// real deployment would script. Built on the polysse::Collection facade;
// the single-document commands use a one-document collection:
//
//   polysse_cli outsource <doc.xml> <store.bin> <client.key> [passphrase]
//       parse one document, split it, write the server store and the
//       client's secret key file (seed + private tag map)
//
//   polysse_cli query <store.bin> <client.key> <xpath> [--trusted|--optimistic]
//       run an XPath query against the store with the client key; matches
//       print per document, like search
//
//   polysse_cli add <store.bin> <client.key> <doc-id> <doc.xml> [passphrase]
//       add one document to a collection (files are created on first add);
//       existing documents are NOT re-outsourced
//
//   polysse_cli remove <store.bin> <client.key> <doc-id>
//       retire one document from a collection
//
//   polysse_cli search <store.bin> <client.key> <tag-or-xpath>
//       cross-document search: one shared walk over every document,
//       results grouped per doc-id
//
//   polysse_cli shamir <doc.xml> <xpath> [--servers N] [--threshold t]
//       demo Shamir t-of-n over server endpoints: outsource the document
//       across N servers, query, then kill servers one by one to show
//       any t answering and fewer than t failing cleanly
//
//   polysse_cli serve <store.bin> [port]
//       host one server's collection store file over TCP (port 0 = pick
//       one); blocks until killed — run one per server
//
//   polysse_cli connect <client.key> <query> <host:port> [host:port ...]
//       query a deployment whose servers run elsewhere: the key file
//       carries the ring + scheme + document table, each host:port is one
//       live server
//
//   polysse_cli inspect <store.bin | client.key>
//       store file: print what an attacker with the server file alone can
//       see; key file: print the deployment summary, including the shard
//       layout of a sharded collection
//
//   polysse_cli probe <host> <port>
//       health-probe one server over the wire ping message: prints its
//       document/node inventory when alive
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "core/collection.h"
#include "core/persistence.h"
#include "core/store_registry.h"
#include "net/socket_endpoint.h"
#include "xml/xml_parser.h"

using namespace polysse;

namespace {

int Fail(const Status& s) {
  std::fprintf(stderr, "error: %s\n", s.ToString().c_str());
  return 1;
}

Result<XmlNode> ParseXmlFile(const std::string& xml_path) {
  ASSIGN_OR_RETURN(std::vector<uint8_t> bytes, ReadFileBytes(xml_path));
  return ParseXml(std::string(bytes.begin(), bytes.end()));
}

void PrintQueryStats(const QueryStats& s) {
  std::printf("visited %zu/%zu nodes, %zu B up, %zu B down, %zu rounds\n",
              s.nodes_visited, s.total_server_nodes, s.transport.bytes_up,
              s.transport.bytes_down, s.rounds);
}

/// Runs `query` ("tag" or an XPath starting with '/') across a collection.
Result<CollectionResult> RunCollectionQuery(FpCollection& col,
                                            const std::string& query) {
  if (!query.empty() && query[0] == '/') return col.SearchXPath(query);
  return col.Search(query);
}

void PrintCollectionResult(const CollectionResult& r, const std::string& query,
                           size_t num_docs) {
  size_t total = 0;
  for (const auto& [doc_id, result] : r.per_doc) total += result.matches.size();
  std::printf("%zu match(es) for %s across %zu document(s):\n", total,
              query.c_str(), num_docs);
  for (const auto& [doc_id, result] : r.per_doc) {
    std::printf("  doc %llu:\n", static_cast<unsigned long long>(doc_id));
    for (const auto& m : result.matches)
      std::printf("    node %d @ \"%s\"\n", m.node_id, m.path.c_str());
  }
  PrintQueryStats(r.stats);
}

int CmdOutsource(const std::string& xml_path, const std::string& store_path,
                 const std::string& key_path, const std::string& passphrase) {
  auto doc = ParseXmlFile(xml_path);
  if (!doc.ok()) return Fail(doc.status());

  DeterministicPrf seed = passphrase.empty()
                              ? DeterministicPrf(RandomSeed())
                              : DeterministicPrf::FromString(passphrase);
  // One document, added as id 0 into a field sized for its alphabet.
  const DeployShape deploy;
  auto col = FpCollection::Create(
      seed, deploy,
      {.p = FpCollection::AutoPrime(doc->DistinctTags().size(), deploy)});
  if (!col.ok()) return Fail(col.status());
  if (Status s = (*col)->Add(0, *doc); !s.ok()) return Fail(s);
  if (Status s = (*col)->Save(store_path, key_path); !s.ok()) return Fail(s);
  auto store_bytes = ReadFileBytes(store_path);
  auto key_bytes = ReadFileBytes(key_path);
  if (!store_bytes.ok()) return Fail(store_bytes.status());
  if (!key_bytes.ok()) return Fail(key_bytes.status());

  std::printf("outsourced %zu elements (p = %llu)\n", (*col)->total_nodes(),
              static_cast<unsigned long long>((*col)->ring().p()));
  std::printf("  server store : %s (%zu bytes — safe to host untrusted)\n",
              store_path.c_str(), store_bytes->size());
  std::printf("  client key   : %s (%zu bytes — keep secret)\n",
              key_path.c_str(), key_bytes->size());
  return 0;
}

int CmdQuery(const std::string& store_path, const std::string& key_path,
             const std::string& xpath, VerifyMode mode) {
  auto col = FpCollection::Open(store_path, key_path);
  if (!col.ok()) return Fail(col.status());

  auto result = (*col)->SearchXPath(xpath, XPathStrategy::kAllAtOnce, mode);
  if (!result.ok()) return Fail(result.status());
  PrintCollectionResult(*result, xpath, (*col)->num_docs());
  return 0;
}

int CmdAdd(const std::string& store_path, const std::string& key_path,
           DocId doc_id, const std::string& xml_path,
           const std::string& passphrase) {
  auto doc = ParseXmlFile(xml_path);
  if (!doc.ok()) return Fail(doc.status());

  // Open an existing collection; only a MISSING KEY starts a new one. A
  // present-but-corrupt key, or a present key whose store file is gone,
  // must fail — never silently replace the client secret.
  std::unique_ptr<FpCollection> col;
  auto opened = FpCollection::Open(store_path, key_path);
  if (opened.ok()) {
    col = std::move(*opened);
  } else if (opened.status().code() == StatusCode::kNotFound &&
             ReadFileBytes(key_path).status().code() ==
                 StatusCode::kNotFound) {
    DeterministicPrf seed = passphrase.empty()
                                ? DeterministicPrf(RandomSeed())
                                : DeterministicPrf::FromString(passphrase);
    auto created = FpCollection::Create(seed);
    if (!created.ok()) return Fail(created.status());
    col = std::move(*created);
    std::printf("created new collection (p = %llu)\n",
                static_cast<unsigned long long>(col->ring().p()));
  } else {
    return Fail(opened.status());
  }
  if (Status s = col->Add(doc_id, *doc); !s.ok()) return Fail(s);
  if (Status s = col->Save(store_path, key_path); !s.ok()) return Fail(s);
  std::printf("added doc %llu; collection now holds %zu document(s), "
              "%zu shared nodes\n",
              static_cast<unsigned long long>(doc_id), col->num_docs(),
              col->total_nodes());
  return 0;
}

int CmdRemove(const std::string& store_path, const std::string& key_path,
              DocId doc_id) {
  auto col = FpCollection::Open(store_path, key_path);
  if (!col.ok()) return Fail(col.status());
  if (Status s = (*col)->Remove(doc_id); !s.ok()) return Fail(s);
  if (Status s = (*col)->Save(store_path, key_path); !s.ok()) return Fail(s);
  std::printf("removed doc %llu; collection now holds %zu document(s)\n",
              static_cast<unsigned long long>(doc_id), (*col)->num_docs());
  return 0;
}

int CmdSearch(const std::string& store_path, const std::string& key_path,
              const std::string& query) {
  auto col = FpCollection::Open(store_path, key_path);
  if (!col.ok()) return Fail(col.status());
  auto result = RunCollectionQuery(**col, query);
  if (!result.ok()) return Fail(result.status());
  PrintCollectionResult(*result, query, (*col)->num_docs());
  return 0;
}

int CmdShamir(const std::string& xml_path, const std::string& xpath,
              int num_servers, int threshold) {
  if (num_servers < 1 || threshold < 1 || threshold > num_servers)
    return Fail(Status::InvalidArgument(
        "need --servers N >= --threshold t >= 1"));
  auto doc = ParseXmlFile(xml_path);
  if (!doc.ok()) return Fail(doc.status());

  DeterministicPrf seed = DeterministicPrf(RandomSeed());
  DeployShape deploy;
  deploy.scheme = ShareScheme::kShamir;
  deploy.num_servers = num_servers;
  deploy.threshold = threshold;
  auto col = FpCollection::Create(
      seed, deploy,
      {.p = FpCollection::AutoPrime(doc->DistinctTags().size(), deploy)});
  if (!col.ok()) return Fail(col.status());
  if (Status s = (*col)->Add(0, *doc); !s.ok()) return Fail(s);
  std::printf("outsourced %zu elements across %d servers, threshold %d "
              "(any %d answer; %d learn nothing)\n",
              (*col)->total_nodes(), num_servers, threshold, threshold,
              threshold - 1);

  auto run = [&](const char* label) {
    auto r = (*col)->SearchXPath(xpath);
    if (!r.ok()) {
      std::printf("  %-28s -> %s\n", label, r.status().ToString().c_str());
      return;
    }
    std::printf("  %-28s -> %zu match(es), %zu failovers\n", label,
                r->per_doc[0].matches.size(), r->stats.server_failovers);
  };

  run("all servers up");
  // Kill servers until exactly `threshold` remain: queries keep working,
  // failing servers are replaced transparently mid-query (every query
  // finds them afresh).
  for (int i = 0; i < num_servers - threshold; ++i) {
    FaultConfig down;
    down.fail_after_calls = 0;
    (*col)->InjectFaults(static_cast<size_t>(i), down);
  }
  run("down to t servers");
  // One more failure leaves t-1: the query must fail cleanly, not lie.
  FaultConfig down;
  down.fail_after_calls = 0;
  (*col)->InjectFaults(static_cast<size_t>(num_servers - threshold), down);
  run("below the threshold");
  return 0;
}

/// Loads a collection store file as a servable registry.
Result<std::unique_ptr<FpStoreRegistry>> LoadServableStore(
    const std::string& store_path) {
  ASSIGN_OR_RETURN(std::vector<uint8_t> bytes, ReadFileBytes(store_path));
  ASSIGN_OR_RETURN(StoredRingKind kind, PeekStoredRingKind(bytes));
  if (kind != StoredRingKind::kFpCyclotomic)
    return Status::Unimplemented("serve covers Fp stores (like query)");
  return LoadStoreRegistry<FpCyclotomicRing>(bytes);
}

int CmdServe(const std::string& store_path, uint16_t port) {
  auto registry = LoadServableStore(store_path);
  if (!registry.ok()) return Fail(registry.status());

  auto server = SocketServer::Listen(registry->get(), port);
  if (!server.ok()) return Fail(server.status());
  std::printf("serving %zu document(s), %zu shared nodes on 127.0.0.1:%u — "
              "the process sees only random-looking polynomials; ctrl-c to "
              "stop\n",
              (*registry)->num_docs(), (*registry)->total_nodes(),
              (*server)->port());
  for (;;) pause();  // the accept loop does the work
}

/// Builds a connected collection client from a key file plus live server
/// addresses, runs the query, prints per-document matches.
int CmdConnect(const std::string& key_path, const std::string& query,
               const std::vector<std::string>& addresses) {
  auto key_bytes = ReadFileBytes(key_path);
  if (!key_bytes.ok()) return Fail(key_bytes.status());
  ByteReader key_reader(*key_bytes);
  auto key = ClientSecretFile::Deserialize(&key_reader);
  if (!key.ok()) return Fail(key.status());

  // The address list is positional: address i is server i of the saved
  // deployment (additive shares and Shamir x-coordinates are per-slot, so
  // a subset or reordering would recombine garbage). Dead servers still
  // get listed; Shamir fails over around them.

  // Placeholder for a server that refused the connection: keeps its slot
  // (and so every other server's x-coordinate) while always failing, which
  // Shamir failover routes around.
  struct OfflineEndpoint final : ServerEndpoint {
    Result<EvalResponse> Eval(const EvalRequest&) override {
      return Status::Unavailable("server offline");
    }
    Result<FetchResponse> Fetch(const FetchRequest&) override {
      return Status::Unavailable("server offline");
    }
  };

  std::vector<std::unique_ptr<ServerEndpoint>> owned;
  std::vector<ServerEndpoint*> eps;
  for (const std::string& addr : addresses) {
    const size_t colon = addr.rfind(':');
    if (colon == std::string::npos)
      return Fail(Status::InvalidArgument("expected host:port, got " + addr));
    auto ep = SocketEndpoint::Connect(
        addr.substr(0, colon),
        static_cast<uint16_t>(std::atoi(addr.c_str() + colon + 1)));
    if (ep.ok()) {
      owned.push_back(std::move(*ep));
    } else if (key->scheme == ShareScheme::kShamir) {
      std::fprintf(stderr, "note: %s unreachable (%s); relying on failover\n",
                   addr.c_str(), ep.status().ToString().c_str());
      owned.push_back(std::make_unique<OfflineEndpoint>());
    } else {
      return Fail(ep.status());  // additive/2-party need every server
    }
    eps.push_back(owned.back().get());
  }

  // Overlap the per-server round trips when several servers answer.
  ThreadPool pool(eps.size() > 1 ? eps.size() : 1);
  auto col = FpCollection::Connect(*key, eps,
                                   eps.size() > 1 ? &pool : nullptr);
  if (!col.ok()) return Fail(col.status());

  auto result = RunCollectionQuery(**col, query);
  if (!result.ok()) return Fail(result.status());
  std::printf("over %zu TCP server(s): ", eps.size());
  PrintCollectionResult(*result, query, (*col)->num_docs());
  return 0;
}

const char* SchemeName(ShareScheme scheme) {
  switch (scheme) {
    case ShareScheme::kTwoParty: return "two-party";
    case ShareScheme::kAdditive: return "additive";
    case ShareScheme::kShamir: return "shamir";
  }
  return "?";
}

/// Key-file inspection: the deployment summary the CLIENT sees — notably
/// the shard layout of a sharded collection (shard -> documents -> node-id
/// range -> server group).
int InspectKeyFile(const std::string& path,
                   std::span<const uint8_t> bytes) {
  ByteReader reader(bytes);
  auto key = ClientSecretFile::Deserialize(&reader);
  if (!key.ok()) return Fail(key.status());
  std::printf("client key file %s (keep secret):\n", path.c_str());
  std::printf("  scheme          : %s, %d server(s)%s per group\n",
              SchemeName(key->scheme), key->num_servers,
              key->scheme == ShareScheme::kShamir
                  ? (", threshold " + std::to_string(key->threshold)).c_str()
                  : "");
  std::printf("  documents       : %zu\n", key->docs.size());
  if (key->shards.empty()) {
    std::printf("  shards          : (unsharded collection)\n");
    return 0;
  }
  std::vector<ClientSecretFile::ShardEntry> shards = key->shards;
  std::sort(shards.begin(), shards.end(),
            [](const auto& a, const auto& b) {
              return a.shard_id < b.shard_id;
            });
  std::printf("  shard layout    : %zu shard(s)\n", shards.size());
  for (const auto& shard : shards) {
    size_t docs_here = 0;
    for (const auto& doc : key->docs) {
      if (doc.base >= shard.base && doc.base + doc.size <= shard.base + shard.span)
        ++docs_here;
    }
    std::printf("    shard %u: %zu doc(s), node ids [%d, %lld), "
                "next free offset %lld, group of %d server(s)\n",
                shard.shard_id, docs_here, shard.base,
                static_cast<long long>(shard.base + shard.span),
                static_cast<long long>(shard.next), key->num_servers);
  }
  return 0;
}

int CmdInspect(const std::string& store_path) {
  auto store_bytes = ReadFileBytes(store_path);
  if (!store_bytes.ok()) return Fail(store_bytes.status());
  if (store_bytes->size() >= 4 &&
      std::memcmp(store_bytes->data(), "PKEY", 4) == 0)
    return InspectKeyFile(store_path, *store_bytes);
  auto kind = PeekStoredRingKind(*store_bytes);
  if (!kind.ok()) return Fail(kind.status());
  if (*kind != StoredRingKind::kFpCyclotomic) {
    std::printf("Z-ring store (inspection demo covers Fp stores)\n");
    return 0;
  }
  auto registry = LoadStoreRegistry<FpCyclotomicRing>(*store_bytes);
  if (!registry.ok()) return Fail(registry.status());
  std::printf("what the server/attacker sees in %s:\n", store_path.c_str());
  std::printf("  ring            : F_%llu[x]/(x^%llu - 1)\n",
              static_cast<unsigned long long>((*registry)->ring().p()),
              static_cast<unsigned long long>((*registry)->ring().p() - 1));
  std::printf("  documents       : %zu (ids and tree shapes are NOT hidden)\n",
              (*registry)->num_docs());
  for (const auto& doc : (*registry)->docs()) {
    const ServerStore<FpCyclotomicRing>* store =
        (*registry)->store(doc.doc_id).value();
    std::printf("    doc %llu: %zu nodes, e.g. root share = %s\n",
                static_cast<unsigned long long>(doc.doc_id), doc.nodes,
                store->ring().ToString(store->tree().nodes[0].poly).c_str());
  }
  std::printf("  tag names       : (none stored)\n");
  std::printf("  tag map / seed  : (client-side only)\n");
  return 0;
}

int CmdProbe(const std::string& host, uint16_t port) {
  auto ep = SocketEndpoint::Connect(host, port);
  if (!ep.ok()) return Fail(ep.status());
  PingRequest req;
  req.nonce = 0x706f6c79;
  auto pong = (*ep)->Ping(req);
  if (!pong.ok()) return Fail(pong.status());
  if (pong->nonce != req.nonce)
    return Fail(Status::Corruption("server echoed the wrong nonce"));
  std::printf("alive: %s:%u serves %llu document(s), %llu node(s)\n",
              host.c_str(), port,
              static_cast<unsigned long long>(pong->doc_count),
              static_cast<unsigned long long>(pong->node_count));
  return 0;
}

int SelfDemo() {
  std::printf("running self-demo in /tmp ...\n");
  auto write_doc = [](const char* path, const char* xml) {
    return WriteFileBytes(
        path, std::span<const uint8_t>(
                  reinterpret_cast<const uint8_t*>(xml), std::strlen(xml)));
  };

  // Single-document workflow (a one-document collection).
  const char* kDoc =
      "<library><shelf><book/><book/></shelf><shelf><book/></shelf>"
      "</library>";
  if (Status s = write_doc("/tmp/polysse_demo.xml", kDoc); !s.ok())
    return Fail(s);
  int rc = CmdOutsource("/tmp/polysse_demo.xml", "/tmp/polysse_store.bin",
                        "/tmp/polysse_client.key", "demo-passphrase");
  if (rc != 0) return rc;
  rc = CmdQuery("/tmp/polysse_store.bin", "/tmp/polysse_client.key",
                "//book", VerifyMode::kVerified);
  if (rc != 0) return rc;
  rc = CmdShamir("/tmp/polysse_demo.xml", "//book", 5, 3);
  if (rc != 0) return rc;

  // Collection workflow: incremental add/remove + cross-document search.
  std::printf("\ncollection demo: two documents, one key ...\n");
  std::remove("/tmp/polysse_col.bin");
  std::remove("/tmp/polysse_col.key");
  const char* kDoc2 =
      "<archive><box><book/></box><box><scroll/><book/></box></archive>";
  if (Status s = write_doc("/tmp/polysse_demo2.xml", kDoc2); !s.ok())
    return Fail(s);
  rc = CmdAdd("/tmp/polysse_col.bin", "/tmp/polysse_col.key", 1,
              "/tmp/polysse_demo.xml", "demo-passphrase");
  if (rc != 0) return rc;
  rc = CmdAdd("/tmp/polysse_col.bin", "/tmp/polysse_col.key", 2,
              "/tmp/polysse_demo2.xml", "");
  if (rc != 0) return rc;
  rc = CmdSearch("/tmp/polysse_col.bin", "/tmp/polysse_col.key", "book");
  if (rc != 0) return rc;
  rc = CmdRemove("/tmp/polysse_col.bin", "/tmp/polysse_col.key", 1);
  if (rc != 0) return rc;
  rc = CmdSearch("/tmp/polysse_col.bin", "/tmp/polysse_col.key", "book");
  if (rc != 0) return rc;

  // serve/connect leg: host the collection registry over real loopback
  // TCP in this process, then query it exactly like a remote client —
  // probing its health first, the way scatter-gather skips dead groups.
  {
    auto registry = LoadServableStore("/tmp/polysse_col.bin");
    if (!registry.ok()) return Fail(registry.status());
    auto server = SocketServer::Listen(registry->get(), /*port=*/0);
    if (!server.ok()) return Fail(server.status());
    std::printf("\nserving the collection on 127.0.0.1:%u; probing, then "
                "querying over TCP ...\n",
                (*server)->port());
    rc = CmdProbe("127.0.0.1", (*server)->port());
    if (rc != 0) return rc;
    rc = CmdConnect("/tmp/polysse_col.key", "//book",
                    {"127.0.0.1:" + std::to_string((*server)->port())});
    if (rc != 0) return rc;
  }
  rc = CmdInspect("/tmp/polysse_col.bin");
  if (rc != 0) return rc;

  // Sharded-collection leg: two server groups, scatter-gather search, an
  // online split, and the shard layout as `inspect` reports it.
  std::printf("\nsharded demo: two groups, scatter-gather search ...\n");
  {
    DeployShape deploy;
    deploy.num_shards = 2;
    auto sharded = FpCollection::Create(
        DeterministicPrf::FromString("demo-passphrase"), deploy);
    if (!sharded.ok()) return Fail(sharded.status());
    auto doc1 = ParseXmlFile("/tmp/polysse_demo.xml");
    auto doc2 = ParseXmlFile("/tmp/polysse_demo2.xml");
    if (!doc1.ok()) return Fail(doc1.status());
    if (!doc2.ok()) return Fail(doc2.status());
    if (Status s = (*sharded)->Add(1, *doc1); !s.ok()) return Fail(s);
    if (Status s = (*sharded)->Add(2, *doc2); !s.ok()) return Fail(s);
    auto r = (*sharded)->Search("book");
    if (!r.ok()) return Fail(r.status());
    size_t total = 0;
    for (const auto& [doc_id, result] : r->per_doc)
      total += result.matches.size();
    std::printf("%zu match(es) across %zu shard(s); deepest shard walked "
                "%zu round(s)\n",
                total, r->per_shard.size(), r->stats.rounds);
    if (Status s = (*sharded)->SplitShard(0, 2); !s.ok()) return Fail(s);
    auto r2 = (*sharded)->Search("book");
    if (!r2.ok()) return Fail(r2.status());
    bool same = r->per_doc.size() == r2->per_doc.size();
    for (auto a = r->per_doc.begin(), b = r2->per_doc.begin();
         same && a != r->per_doc.end(); ++a, ++b)
      same = a->first == b->first && a->second.matches == b->second.matches;
    std::printf("after splitting shard 0 -> 2: answers %s\n",
                same ? "unchanged" : "CHANGED (bug!)");
    if (Status s = (*sharded)->SaveKey("/tmp/polysse_shard.key"); !s.ok())
      return Fail(s);
  }
  return CmdInspect("/tmp/polysse_shard.key");
}

}  // namespace

int main(int argc, char** argv) {
  std::string cmd = argc > 1 ? argv[1] : "";
  if (cmd == "outsource" && (argc == 5 || argc == 6)) {
    return CmdOutsource(argv[2], argv[3], argv[4], argc == 6 ? argv[5] : "");
  }
  if (cmd == "query" && (argc == 5 || argc == 6)) {
    VerifyMode mode = VerifyMode::kVerified;
    if (argc == 6) {
      if (std::strcmp(argv[5], "--trusted") == 0)
        mode = VerifyMode::kTrustedConstOnly;
      else if (std::strcmp(argv[5], "--optimistic") == 0)
        mode = VerifyMode::kOptimistic;
    }
    return CmdQuery(argv[2], argv[3], argv[4], mode);
  }
  if (cmd == "add" && (argc == 6 || argc == 7)) {
    return CmdAdd(argv[2], argv[3],
                  static_cast<DocId>(std::strtoull(argv[4], nullptr, 10)),
                  argv[5], argc == 7 ? argv[6] : "");
  }
  if (cmd == "remove" && argc == 5) {
    return CmdRemove(argv[2], argv[3],
                     static_cast<DocId>(std::strtoull(argv[4], nullptr, 10)));
  }
  if (cmd == "search" && argc == 5) {
    return CmdSearch(argv[2], argv[3], argv[4]);
  }
  if (cmd == "shamir" && argc >= 4) {
    int num_servers = 5, threshold = 3;
    for (int i = 4; i + 1 < argc; i += 2) {
      if (std::strcmp(argv[i], "--servers") == 0)
        num_servers = std::atoi(argv[i + 1]);
      else if (std::strcmp(argv[i], "--threshold") == 0)
        threshold = std::atoi(argv[i + 1]);
    }
    return CmdShamir(argv[2], argv[3], num_servers, threshold);
  }
  if (cmd == "serve" && (argc == 3 || argc == 4)) {
    return CmdServe(argv[2],
                    static_cast<uint16_t>(argc == 4 ? std::atoi(argv[3]) : 0));
  }
  if (cmd == "connect" && argc >= 5) {
    std::vector<std::string> addresses;
    for (int i = 4; i < argc; ++i) addresses.push_back(argv[i]);
    return CmdConnect(argv[2], argv[3], addresses);
  }
  if (cmd == "inspect" && argc == 3) {
    return CmdInspect(argv[2]);
  }
  if (cmd == "probe" && argc == 4) {
    return CmdProbe(argv[2], static_cast<uint16_t>(std::atoi(argv[3])));
  }
  // Self-demonstration when run without arguments.
  std::printf("usage:\n"
              "  polysse_cli outsource <doc.xml> <store.bin> <client.key> "
              "[passphrase]\n"
              "  polysse_cli query <store.bin> <client.key> <xpath> "
              "[--trusted|--optimistic]\n"
              "  polysse_cli add <store.bin> <client.key> <doc-id> <doc.xml> "
              "[passphrase]\n"
              "  polysse_cli remove <store.bin> <client.key> <doc-id>\n"
              "  polysse_cli search <store.bin> <client.key> <tag-or-xpath>\n"
              "  polysse_cli shamir <doc.xml> <xpath> [--servers N] "
              "[--threshold t]\n"
              "  polysse_cli serve <store.bin> [port]\n"
              "  polysse_cli connect <client.key> <query> <host:port> "
              "[host:port ...]\n"
              "  polysse_cli inspect <store.bin | client.key>\n"
              "  polysse_cli probe <host> <port>\n\n");
  return SelfDemo();
}
