// Scatter-gather scaling across server groups — the shard subsystem's
// headline claim: a query against an S-shard collection runs one shared-
// frontier walk PER SHARD, concurrently, so its latency tracks the deepest
// shard while total traffic stays that of the unsharded walk. This driver
// holds the collection fixed (D documents) and sweeps the shard count,
// reporting the deterministic protocol costs (roll-up rounds = deepest
// shard, messages = sum) and wall time at simulated per-message latency
// for sequential vs pooled shard fan-out, and for the same documents
// Connect()ed as a networked client would hold them (conn).
//
//   shard_scaling [--json PATH]
//
// With --json it also writes the numbers in the bench/baselines entry
// schema (compare_baselines.py consumes either side). The (rounds|messages)
// entries are deterministic — CI pins them at a 0% threshold.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "core/collection.h"
#include "core/persistence.h"
#include "util/thread_pool.h"
#include "xml/xml_generator.h"

namespace polysse {
namespace {

constexpr size_t kDocs = 32;
constexpr size_t kDocNodes = 30;
constexpr size_t kTagAlphabet = 8;
constexpr uint32_t kLatencyUs = 200;
const char* kQueryTag = "tag0";

XmlNode MakeDoc(uint64_t seed) {
  XmlGeneratorOptions gen;
  gen.num_nodes = kDocNodes;
  gen.tag_alphabet = kTagAlphabet;
  gen.max_fanout = 4;
  gen.seed = seed;
  return GenerateXmlTree(gen);
}

std::unique_ptr<FpCollection> Build(int shards, int workers) {
  DeterministicPrf seed = DeterministicPrf::FromString("shard-scaling");
  DeployShape deploy;
  deploy.num_shards = shards;
  deploy.worker_threads = workers;
  auto col = FpCollection::Create(seed, deploy).value();
  for (size_t d = 0; d < kDocs; ++d) {
    Status s = col->Add(static_cast<DocId>(d), MakeDoc(2000 + d));
    if (!s.ok()) {
      std::fprintf(stderr, "add failed: %s\n", s.ToString().c_str());
      std::abort();
    }
  }
  return col;
}

void AddLatency(FpCollection* col) {
  FaultConfig lag;
  lag.latency_us = kLatencyUs;
  for (const ShardRange& s : col->shard_map().shards())
    col->InjectFaults(s.shard_id, 0, lag);
}

double MedianWallUs(FpCollection* col) {
  // One warm-up, then median of three timed verified searches.
  (void)col->Search(kQueryTag).value();
  std::vector<double> walls;
  for (int i = 0; i < 3; ++i) {
    auto t0 = std::chrono::steady_clock::now();
    (void)col->Search(kQueryTag).value();
    auto t1 = std::chrono::steady_clock::now();
    walls.push_back(
        std::chrono::duration<double, std::micro>(t1 - t0).count());
  }
  std::sort(walls.begin(), walls.end());
  return walls[walls.size() / 2];
}

/// The collection's documents as a networked client sees them: Connect()ed
/// from the key file the collection writes, over one loopback endpoint per
/// server handler, each behind the same per-message latency, with the
/// scatter and fan-out on an external pool.
double ConnectedWallUs(FpCollection* owner) {
  const std::string key_path =
      (std::filesystem::temp_directory_path() / "polysse_shard_scaling.key")
          .string();
  Status saved = owner->SaveKey(key_path);
  auto key_bytes = ReadFileBytes(key_path);
  if (!saved.ok() || !key_bytes.ok()) {
    std::fprintf(stderr, "cannot write the key file %s\n", key_path.c_str());
    std::abort();
  }
  ByteReader key_reader(*key_bytes);
  ClientSecretFile key = ClientSecretFile::Deserialize(&key_reader).value();

  std::vector<ShardId> ids;
  for (const ShardRange& s : owner->shard_map().shards())
    ids.push_back(s.shard_id);
  std::sort(ids.begin(), ids.end());  // Connect's shard-major order
  FaultConfig lag;
  lag.latency_us = kLatencyUs;
  std::vector<std::unique_ptr<LoopbackEndpoint>> wires;
  std::vector<std::unique_ptr<FaultInjectingEndpoint>> lagged;
  std::vector<ServerEndpoint*> eps;
  for (ShardId id : ids) {
    wires.push_back(std::make_unique<LoopbackEndpoint>(owner->handler(id, 0)));
    lagged.push_back(
        std::make_unique<FaultInjectingEndpoint>(wires.back().get(), lag));
    eps.push_back(lagged.back().get());
  }
  ThreadPool pool(8);
  auto connected = FpCollection::Connect(key, eps, &pool).value();
  return MedianWallUs(connected.get());
}

int Run(const std::string& json_path) {
  std::string json_entries;
  auto add_entry = [&](const std::string& name, double value) {
    if (!json_entries.empty()) json_entries += ",\n";
    char buf[160];
    std::snprintf(buf, sizeof buf, "    \"%s\": %.1f", name.c_str(), value);
    json_entries += buf;
  };

  std::printf(
      "scatter-gather //%s over a %zu-document collection, 2-party groups,\n"
      "verified mode. 'rounds' is the roll-up (deepest shard), 'messages'\n"
      "the sum across shards. Wall times re-run the search with %uus\n"
      "injected per message: 'seq' walks shards one after another, 'par'\n"
      "fans them out on a worker pool — the latency the shard layout is\n"
      "supposed to hide — and 'conn' is the same collection Connect()ed\n"
      "over loopback endpoints with an external pool.\n\n",
      kQueryTag, kDocs, kLatencyUs);
  std::printf("%6s | %6s %8s | %12s %12s %12s | %7s\n", "shards", "rounds",
              "messages", "seq ms @lat", "par ms @lat", "conn ms @lat",
              "speedup");

  for (int shards : {1, 2, 4, 8}) {
    auto col = Build(shards, /*workers=*/8);
    auto r = col->Search(kQueryTag).value();
    const std::string suffix = "_S" + std::to_string(shards);
    add_entry("rounds" + suffix, static_cast<double>(r.stats.rounds));
    add_entry("messages" + suffix,
              static_cast<double>(r.stats.transport.messages_up));
    if (shards == 4) {
      for (const ShardQueryStats& s : r.per_shard) {
        const std::string shard_suffix =
            suffix + "_shard" + std::to_string(s.shard_id);
        add_entry("rounds" + shard_suffix,
                  static_cast<double>(s.stats.rounds));
        add_entry("messages" + shard_suffix,
                  static_cast<double>(s.stats.transport.messages_up));
      }
    }

    const double conn_wall = ConnectedWallUs(col.get());
    AddLatency(col.get());
    const double par_wall = MedianWallUs(col.get());
    auto seq = Build(shards, /*workers=*/0);
    AddLatency(seq.get());
    const double seq_wall = MedianWallUs(seq.get());
    add_entry("wall_us_seq" + suffix + "_lat" + std::to_string(kLatencyUs),
              seq_wall);
    add_entry("wall_us_par" + suffix + "_lat" + std::to_string(kLatencyUs),
              par_wall);
    add_entry("wall_us_conn" + suffix + "_lat" + std::to_string(kLatencyUs),
              conn_wall);

    std::printf("%6d | %6zu %8zu | %12.1f %12.1f %12.1f | %6.1fx\n", shards,
                r.stats.rounds, r.stats.transport.messages_up,
                seq_wall / 1000.0, par_wall / 1000.0, conn_wall / 1000.0,
                seq_wall / par_wall);
  }

  if (!json_path.empty()) {
    std::FILE* f = std::fopen(json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    std::fprintf(f,
                 "{\n  \"bench\": \"shard_scaling\",\n  \"entries\": {\n%s\n"
                 "  }\n}\n",
                 json_entries.c_str());
    std::fclose(f);
    std::printf("\nwrote %s\n", json_path.c_str());
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
