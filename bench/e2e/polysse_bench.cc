// polysse_bench: the end-to-end benchmark. Four workloads drive the public
// facades the way a deployment would: an owner Creates the deployment, Adds
// the corpus, Saves it and Opens it again; the reopened registries are
// served through benchmark-owned endpoints (in-process loopback or TCP);
// clients Connect with the saved key and run a closed loop of queries (and,
// on churn-cached, document adds and removes) for a fixed time. Every
// answer is checked against a plaintext oracle.
//
//   polysse_bench --workload NAME --seed N --seconds S --trace 0|1
//                 [--work-dir DIR]
//   polysse_bench --smoke [--work-dir DIR]
//
// --trace 0 measures the end-to-end metrics with no instrumentation, in 20
// rounds that each build a fresh deployment and measure a twentieth of the
// time.
// --trace 1 runs those rounds for a quarter of the time, then builds one
// deployment with the tracing decorators of trace.h, runs the same loop for
// the full time and reports the per-layer metrics; the spans go to
// DIR/trace/ as Chrome trace-event JSON. The last line of stdout is the
// result object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// A wrong answer makes the exit code non-zero. --smoke runs every workload
// with 4 documents for 5 ops, untraced and traced (the ctest entry).
// README.md beside this file defines every metric and workload.
#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "core/collection.h"
#include "core/persistence.h"
#include "inputs.h"
#include "trace.h"
#include "net/socket_endpoint.h"
#include "net/socket_server.h"
#include "shard/sharded_collection.h"
#include "xml/xml_writer.h"

namespace polysse::bench {
namespace {

namespace fs = std::filesystem;

// ------------------------------------------------------------- workloads

struct Workload {
  const char* name = "";
  ShareScheme scheme = ShareScheme::kTwoParty;
  int servers = 1;    ///< per group
  int threshold = 0;  ///< Shamir only
  int shards = 0;     ///< 0: one unsharded Collection
  bool tcp = false;   ///< SocketServer + pipelined SocketEndpoint
  uint32_t delay_us = 0;  ///< server-side sleep per request (simulated WAN)
  int clients = 1;        ///< client threads (lanes)
  size_t docs = 32;
  size_t tags_per_op = 1;  ///< 1: Search; more: SearchMany
  double zipf_s = 0.8;
  size_t cache_entries = 0;  ///< Collection hot-query cache capacity
  bool churn = false;        ///< every 5th op adds or removes a document
  bool cycle_modes = false;  ///< optimistic/trusted/verified, else verified
};

// Why each workload exists is recorded in README.md.
const Workload kWorkloads[] = {
    {.name = "lookup-local"},
    {.name = "batch-tcp-wan",
     .scheme = ShareScheme::kShamir,
     .servers = 3,
     .threshold = 2,
     .tcp = true,
     .delay_us = 1000,
     .clients = 2,
     .tags_per_op = 8,
     .cycle_modes = true},
    {.name = "churn-cached",
     .zipf_s = 1.1,
     .cache_entries = 16,
     .churn = true},
    {.name = "scatter-4shard", .shards = 4, .docs = 64, .tags_per_op = 4},
};

struct RunConfig {
  const Workload* workload = nullptr;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  fs::path work_dir = ".";
  size_t docs = 0;
  int rounds = 20;  ///< set-up + measurement rounds (see RunWorkload)
  int64_t max_ops = INT64_MAX;  ///< per round
};

struct MetricDef {
  const char* name;
  const char* unit;
};

// Must match BENCHMARK.json ("end_to_end" and "per_layer"); run.py checks.
const MetricDef kEndToEnd[] = {
    {"ops_per_s", "1/s"},   {"lat_p50_ms", "ms"},    {"lat_p90_ms", "ms"},
    {"add_p50_ms", "ms"},   {"bytes_per_op", "B"},   {"msgs_per_op", "count"},
    {"setup_s", "s"},       {"rss_mb", "MiB"},       {"storage_ratio", "ratio"},
};

const MetricDef kPerLayer[] = {
    {"query_session.self_ms_per_op", "ms"},
    {"query_session.rounds_per_op", "count"},
    {"query_session.fetch_rounds_per_op", "count"},
    {"query_session.nodes_visited_per_op", "count"},
    {"query_session.zero_candidates_per_op", "count"},
    {"query_session.reconstructions_per_op", "count"},
    {"query_session.share_derivations_per_op", "count"},
    {"query_session.client_evals_per_op", "count"},
    {"query_session.server_evals_per_op", "count"},
    {"query_session.visited_frac", "ratio"},
    {"query_session.match_yield", "ratio"},
    {"query_session.share_ms_per_op_est", "ms"},
    {"query_session.eval_ms_per_op_est", "ms"},
    {"query_session.reconstruct_ms_per_op_est", "ms"},
    {"query_session.unexplained_ms_per_op", "ms"},
    {"query_session.stats_msgs_ratio", "ratio"},
    {"client_context.share_us", "us"},
    {"ring.eval_at_us", "us"},
    {"ring.mul_us", "us"},
    {"ring.solve_tag_us", "us"},
    {"endpoint.calls_per_op", "count"},
    {"endpoint.blocked_ms_per_op", "ms"},
    {"endpoint.bytes_up_per_op", "B"},
    {"endpoint.bytes_down_per_op", "B"},
    {"protocol.codec_us_per_call", "us"},
    {"net.overlap", "ratio"},
    {"store_registry.eval_ms_per_op", "ms"},
    {"store_registry.fetch_ms_per_op", "ms"},
    {"store_registry.evals_per_us", "1/us"},
    {"store_registry.busy_frac", "ratio"},
    {"store_registry.add_ms_per_add", "ms"},
    {"collection.cache_hit_ratio", "ratio"},
    {"outsource.ms_per_add", "ms"},
    {"outsource.bytes_per_add", "B"},
    {"persistence.save_s", "s"},
    {"persistence.open_s", "s"},
    {"persistence.store_bytes", "B"},
    {"setup.adds_s", "s"},
    {"setup.connect_s", "s"},
    {"shard.scatter_overlap", "ratio"},
    {"shard.skew_evals", "ratio"},
    {"shard.skew_busy", "ratio"},
    {"trace.overhead_frac", "ratio"},
    {"trace.span_coverage", "ratio"},
};

using Metrics = std::map<std::string, double>;

double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

/// Linear interpolation between closest ranks; 0 for an empty sample.
double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 0.5); }

/// The best of the rounds' values: the least for a time, the most for a
/// rate. 0 for an empty sample.
double Least(const std::vector<double>& v) {
  return v.empty() ? 0 : *std::min_element(v.begin(), v.end());
}
double Most(const std::vector<double>& v) {
  return v.empty() ? 0 : *std::max_element(v.begin(), v.end());
}

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

// ------------------------------------------------------------ deployment

struct BuildTimes {
  double total_s = 0, adds_s = 0, save_s = 0, open_s = 0, connect_s = 0;
  std::vector<double> add_ms;
  uint64_t store_bytes = 0;
};

/// What one query op returned, in the shape both facades share.
struct Answer {
  std::vector<std::map<DocId, LookupResult>> per_query;
  QueryStats stats;
  std::vector<ShardQueryStats> per_shard;
};

/// One deployment of a workload: the reopened server registries, the
/// benchmark-owned serving stack in front of them, and one connected client
/// facade per lane. Members are declared so that destruction runs clients
/// first and registries last.
class Deployment {
 public:
  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  /// Outsources `corpus` as a fresh deployment in `dir` and connects the
  /// clients. With a tracer, the serving stack and every lane's endpoints
  /// carry the tracing decorators.
  static Result<std::unique_ptr<Deployment>> Build(
      const Workload& w, const Inputs& inputs,
      const std::vector<XmlNode>& corpus, const fs::path& dir,
      Tracer* tracer, BuildTimes* times) {
    std::error_code ec;
    fs::create_directories(dir, ec);
    if (ec) return Status::Unavailable("cannot create " + dir.string());
    auto dep = std::unique_ptr<Deployment>(new Deployment());
    const std::string store = (dir / "store").string();
    const std::string key_path = (dir / "client.key").string();
    const Clock::time_point t0 = Clock::now();
    if (w.shards > 0) {
      ShardDeploy shape;
      shape.scheme = w.scheme;
      shape.num_servers = w.servers;
      shape.threshold = w.threshold;
      shape.num_shards = w.shards;
      ASSIGN_OR_RETURN(dep->opened_sharded_,
                       (Outsource<FpShardedCollection>(
                           inputs, shape, corpus, store, key_path, times)));
      // shards() is sorted by base, and Create lays shards out in id order:
      // the shard-major order Connect expects its endpoints in.
      for (const ShardRange& s : dep->opened_sharded_->shard_map().shards())
        for (int k = 0; k < w.servers; ++k)
          dep->registries_.push_back(dep->opened_sharded_->handler(
              s.shard_id, static_cast<size_t>(k)));
    } else {
      DeployShape shape;
      shape.scheme = w.scheme;
      shape.num_servers = w.servers;
      shape.threshold = w.threshold;
      ASSIGN_OR_RETURN(dep->opened_, (Outsource<FpCollection>(
                                         inputs, shape, corpus, store,
                                         key_path, times)));
      for (size_t s = 0; s < dep->opened_->num_servers(); ++s)
        dep->registries_.push_back(dep->opened_->handler(s));
    }

    const Clock::time_point t_serve = Clock::now();
    ASSIGN_OR_RETURN(std::vector<uint8_t> key_bytes, ReadFileBytes(key_path));
    ByteReader key_reader(key_bytes);
    ASSIGN_OR_RETURN(dep->key_, ClientSecretFile::Deserialize(&key_reader));
    RETURN_IF_ERROR(dep->Serve(w, tracer));
    RETURN_IF_ERROR(dep->ConnectLanes(w, tracer));
    const Clock::time_point t_end = Clock::now();
    times->connect_s = Seconds(t_end - t_serve);
    times->total_s = Seconds(t_end - t0);

    for (const auto& entry : fs::directory_iterator(dir, ec))
      if (entry.path().filename() != "client.key")
        times->store_bytes += entry.file_size(ec);
    fs::remove_all(dir, ec);
    return dep;
  }

  Result<Answer> Query(int lane, std::span<const Query> queries) {
    Lane& l = lanes_[static_cast<size_t>(lane)];
    Answer out;
    if (l.sharded != nullptr) {
      ASSIGN_OR_RETURN(std::vector<ShardedResult> rs,
                       l.sharded->SearchMany(queries));
      out.stats = rs[0].stats;
      out.per_shard = rs[0].per_shard;
      for (ShardedResult& r : rs) out.per_query.push_back(std::move(r.per_doc));
    } else if (queries.size() == 1) {
      ASSIGN_OR_RETURN(CollectionResult r,
                       l.col->Search(queries[0].tag, queries[0].mode));
      out.stats = r.stats;
      out.per_query.push_back(std::move(r.per_doc));
    } else {
      ASSIGN_OR_RETURN(std::vector<CollectionResult> rs,
                       l.col->SearchMany(queries));
      out.stats = rs[0].stats;
      for (CollectionResult& r : rs)
        out.per_query.push_back(std::move(r.per_doc));
    }
    return out;
  }

  Status Add(int lane, DocId id, const XmlNode& doc) {
    Lane& l = lanes_[static_cast<size_t>(lane)];
    return l.sharded != nullptr ? l.sharded->Add(id, doc) : l.col->Add(id, doc);
  }

  Status Remove(int lane, DocId id) {
    Lane& l = lanes_[static_cast<size_t>(lane)];
    return l.sharded != nullptr ? l.sharded->Remove(id) : l.col->Remove(id);
  }

  /// Cumulative wire traffic of the shared client-side endpoints.
  TransportCounters traffic() const {
    TransportCounters sum;
    for (const auto& ep : endpoints_) sum.Add(ep->counters());
    return sum;
  }

  const ClientSecretFile& key() const { return key_; }
  size_t num_servers() const { return registries_.size(); }

 private:
  struct Lane {
    std::unique_ptr<FpCollection> col;
    std::unique_ptr<FpShardedCollection> sharded;
  };

  Deployment() = default;

  /// The owner's side of set-up: Create, Add every document (each timed),
  /// Save, drop the owner, Open the saved files.
  template <typename Col, typename Shape>
  static Result<std::unique_ptr<Col>> Outsource(
      const Inputs& inputs, const Shape& shape,
      const std::vector<XmlNode>& corpus, const std::string& store,
      const std::string& key_path, BuildTimes* times) {
    {
      ASSIGN_OR_RETURN(std::unique_ptr<Col> owner,
                       Col::Create(inputs.ClientSeed(), shape));
      const Clock::time_point adds = Clock::now();
      for (size_t d = 0; d < corpus.size(); ++d) {
        const Clock::time_point a = Clock::now();
        RETURN_IF_ERROR(owner->Add(static_cast<DocId>(d), corpus[d]));
        times->add_ms.push_back(Seconds(Clock::now() - a) * 1e3);
      }
      const Clock::time_point save = Clock::now();
      times->adds_s = Seconds(save - adds);
      RETURN_IF_ERROR(owner->Save(store, key_path));
      times->save_s = Seconds(Clock::now() - save);
    }
    const Clock::time_point open = Clock::now();
    ASSIGN_OR_RETURN(std::unique_ptr<Col> opened, Col::Open(store, key_path));
    times->open_s = Seconds(Clock::now() - open);
    return opened;
  }

  Status Serve(const Workload& w, Tracer* tracer) {
    for (size_t s = 0; s < registries_.size(); ++s) {
      ServerHandler* handler = registries_[s];
      if (w.delay_us > 0 || tracer != nullptr) {
        handlers_.push_back(std::make_unique<BenchHandler>(
            handler, w.delay_us, tracer, static_cast<int>(s)));
        handler = handlers_.back().get();
      }
      if (!w.tcp) {
        endpoints_.push_back(std::make_unique<LoopbackEndpoint>(handler));
        continue;
      }
      SocketServer::Options options;
      options.worker_threads = 8;
      ASSIGN_OR_RETURN(std::unique_ptr<SocketServer> server,
                       SocketServer::Listen(handler, 0, options));
      ASSIGN_OR_RETURN(std::unique_ptr<SocketEndpoint> ep,
                       SocketEndpoint::Connect("127.0.0.1", server->port()));
      servers_.push_back(std::move(server));
      endpoints_.push_back(std::move(ep));
    }
    return Status::Ok();
  }

  /// Every lane connects over the shared endpoints; traced lanes get their
  /// own decorators so each span knows which client it served.
  Status ConnectLanes(const Workload& w, Tracer* tracer) {
    if (w.shards > 0) executor_ = std::make_unique<ThreadPool>(4);
    for (int lane = 0; lane < w.clients; ++lane) {
      std::vector<ServerEndpoint*> eps;
      for (size_t s = 0; s < endpoints_.size(); ++s) {
        if (tracer == nullptr) {
          eps.push_back(endpoints_[s].get());
          continue;
        }
        traced_.push_back(std::make_unique<TracingEndpoint>(
            endpoints_[s].get(), tracer, lane, static_cast<int>(s)));
        eps.push_back(traced_.back().get());
      }
      Lane l;
      if (w.shards > 0) {
        ASSIGN_OR_RETURN(l.sharded, FpShardedCollection::Connect(
                                        key_, std::move(eps), executor_.get()));
      } else {
        ASSIGN_OR_RETURN(l.col, FpCollection::Connect(key_, std::move(eps)));
        l.col->SetQueryCacheCapacity(w.cache_entries);
      }
      lanes_.push_back(std::move(l));
    }
    return Status::Ok();
  }

  std::unique_ptr<FpCollection> opened_;
  std::unique_ptr<FpShardedCollection> opened_sharded_;
  std::vector<ServerHandler*> registries_;  ///< shard-major server order
  ClientSecretFile key_;
  std::vector<std::unique_ptr<BenchHandler>> handlers_;
  std::vector<std::unique_ptr<SocketServer>> servers_;
  std::vector<std::unique_ptr<ServerEndpoint>> endpoints_;  ///< shared
  std::vector<std::unique_ptr<TracingEndpoint>> traced_;
  std::unique_ptr<ThreadPool> executor_;
  std::vector<Lane> lanes_;
};

// ----------------------------------------------------------- measurement

enum class OpKind { kSearch, kAdd, kRemove };

struct OpRecord {
  int64_t id = 0;
  OpKind kind = OpKind::kSearch;
  QueryStats stats;
  size_t matches = 0;
  std::vector<ShardQueryStats> per_shard;
};

struct PhaseResult {
  double wall_s = 0;
  int64_t start_ns = 0, end_ns = 0;  ///< tracer clock (traced phases)
  int64_t ops = 0;
  int64_t errors = 0;      ///< Status errors
  int64_t mismatches = 0;  ///< answers that disagree with the oracle
  std::vector<double> query_ms, add_ms;
  TransportCounters traffic;
  std::vector<OpRecord> records;  ///< traced phases only
  std::string first_problem;
};

/// Live documents of a churn run, oldest first; only churn workloads
/// mutate it, and they run one lane.
struct Corpus {
  std::vector<DocId> live;
  DocId next_id = 0;
};

/// Runs every lane's closed loop on `dep` for `seconds` (or until
/// cfg.max_ops ops). `tags` holds one query stream per lane; it carries on
/// across phases so the stratified mix stays whole.
PhaseResult RunPhase(Deployment& dep, const RunConfig& cfg, double seconds,
                     const Inputs& inputs, std::vector<TagStream>* tags,
                     Oracle* oracle, Corpus* corpus, Tracer* tracer,
                     int phase) {
  const Workload& w = *cfg.workload;
  std::atomic<int64_t> next_op{0};
  std::vector<PhaseResult> lanes(static_cast<size_t>(w.clients));
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  std::vector<Clock::time_point> finished(lanes.size(), start);

  auto run_lane = [&](int lane) {
    PhaseResult& out = lanes[static_cast<size_t>(lane)];
    TagStream& stream = (*tags)[static_cast<size_t>(lane)];
    static constexpr VerifyMode kModes[] = {VerifyMode::kOptimistic,
                                            VerifyMode::kTrustedConstOnly,
                                            VerifyMode::kVerified};
    // Churn writes sit at fixed positions and alternate; consecutive phases
    // start on opposite kinds so even a short phase exercises both.
    bool next_write_adds = phase % 2 == 0;
    for (int64_t k = 0;; ++k) {
      if (Clock::now() >= deadline) break;
      const int64_t id = next_op.fetch_add(1, std::memory_order_relaxed);
      if (id >= cfg.max_ops) break;
      OpRecord rec;
      rec.id = id;
      if (w.churn && k % 5 == 4) {
        rec.kind = next_write_adds || corpus->live.empty() ? OpKind::kAdd
                                                           : OpKind::kRemove;
        next_write_adds = !next_write_adds;
      }
      std::vector<Query> queries;
      XmlNode doc;
      DocId doc_id = 0;
      if (rec.kind == OpKind::kSearch) {
        for (size_t j = 0; j < w.tags_per_op; ++j) {
          const VerifyMode mode =
              w.cycle_modes ? kModes[(static_cast<size_t>(k) + j) % 3]
                            : VerifyMode::kVerified;
          queries.push_back({stream.Next(), mode});
        }
      } else if (rec.kind == OpKind::kAdd) {
        doc_id = corpus->next_id++;
        doc = inputs.Document(doc_id);
      } else {
        doc_id = corpus->live.front();
      }

      if (tracer != nullptr) tracer->SetOp(lane, id);
      tls_current_op = id;
      Result<Answer> answer = Answer{};
      Status status;
      const SpanName span_name =
          rec.kind == OpKind::kSearch ? SpanName::kOpSearch
          : rec.kind == OpKind::kAdd  ? SpanName::kOpAdd
                                      : SpanName::kOpRemove;
      const Clock::time_point t0 = Clock::now();
      {
        SpanScope span(tracer, span_name, lane, -1, id);
        if (rec.kind == OpKind::kSearch) {
          answer = dep.Query(lane, queries);
          status = answer.status();
        } else if (rec.kind == OpKind::kAdd) {
          status = dep.Add(lane, doc_id, doc);
        } else {
          status = dep.Remove(lane, doc_id);
        }
      }
      const Clock::time_point t1 = Clock::now();
      const double ms = Seconds(t1 - t0) * 1e3;
      tls_current_op = -1;

      ++out.ops;
      if (!status.ok()) {
        ++out.errors;
        if (out.first_problem.empty()) out.first_problem = status.ToString();
        continue;
      }
      if (rec.kind == OpKind::kAdd) {
        out.add_ms.push_back(ms);
        oracle->AddDoc(doc_id, doc);
        corpus->live.push_back(doc_id);
      } else if (rec.kind == OpKind::kRemove) {
        oracle->RemoveDoc(doc_id);
        corpus->live.erase(corpus->live.begin());
      } else {
        out.query_ms.push_back(ms);
        for (size_t j = 0; j < queries.size(); ++j) {
          const auto& per_doc = answer->per_query[j];
          std::string wrong =
              oracle->Check(queries[j].tag, queries[j].mode, per_doc);
          if (!wrong.empty()) {
            ++out.mismatches;
            if (out.first_problem.empty()) out.first_problem = wrong;
          }
          for (const auto& [doc_key, r] : per_doc)
            rec.matches += r.matches.size();
        }
        rec.stats = answer->stats;
        rec.per_shard = std::move(answer->per_shard);
      }
      if (tracer != nullptr) out.records.push_back(std::move(rec));
    }
    finished[static_cast<size_t>(lane)] = Clock::now();
  };

  const TransportCounters before = dep.traffic();
  PhaseResult total;
  if (tracer != nullptr) total.start_ns = tracer->At(start);
  if (w.clients == 1) {
    run_lane(0);
  } else {
    std::vector<std::thread> threads;
    for (int lane = 0; lane < w.clients; ++lane)
      threads.emplace_back(run_lane, lane);
    for (std::thread& t : threads) t.join();
  }
  const Clock::time_point end =
      *std::max_element(finished.begin(), finished.end());
  const TransportCounters after = dep.traffic();

  total.wall_s = Seconds(end - start);
  if (tracer != nullptr) total.end_ns = tracer->At(end);
  total.traffic.bytes_up = after.bytes_up - before.bytes_up;
  total.traffic.bytes_down = after.bytes_down - before.bytes_down;
  total.traffic.messages_up = after.messages_up - before.messages_up;
  total.traffic.messages_down = after.messages_down - before.messages_down;
  for (PhaseResult& l : lanes) {
    total.ops += l.ops;
    total.errors += l.errors;
    total.mismatches += l.mismatches;
    total.query_ms.insert(total.query_ms.end(), l.query_ms.begin(),
                          l.query_ms.end());
    total.add_ms.insert(total.add_ms.end(), l.add_ms.begin(), l.add_ms.end());
    for (OpRecord& r : l.records) total.records.push_back(std::move(r));
    if (total.first_problem.empty()) total.first_problem = l.first_problem;
  }
  std::sort(total.records.begin(), total.records.end(),
            [](const OpRecord& a, const OpRecord& b) { return a.id < b.id; });
  return total;
}

// ------------------------------------------------------------ calibration

/// Unit costs of the client's per-node work, measured by calling the public
/// functions on the workload's own ring and first document.
struct Calibration {
  double share_us = 0, eval_at_us = 0, mul_us = 0, solve_tag_us = 0;
};

template <typename Fn>
double MedianCallUs(size_t n, Fn&& call) {
  std::vector<double> batches;
  for (int b = 0; b < 5; ++b) {
    const Clock::time_point t0 = Clock::now();
    for (size_t i = 0; i < n; ++i) call(i);
    batches.push_back(Seconds(Clock::now() - t0) * 1e6 /
                      static_cast<double>(n));
  }
  return Median(std::move(batches));
}

Result<Calibration> Calibrate(const ClientSecretFile& key, const XmlNode& doc) {
  ASSIGN_OR_RETURN(FpCyclotomicRing ring, FpCyclotomicRing::Create(key.fp_p));
  auto client = ClientContext<FpCyclotomicRing>::SeedOnly(
      ring, key.tag_map, DeterministicPrf(key.seed));
  ASSIGN_OR_RETURN(PolyTree<FpCyclotomicRing> tree,
                   BuildPolyTree(ring, key.tag_map, doc));
  std::vector<std::pair<size_t, FpPoly>> interior;  // node, children product
  for (size_t i = 0; i < tree.size(); ++i) {
    if (tree.nodes[i].children.empty()) continue;
    FpPoly g = ring.One();
    for (int c : tree.nodes[i].children)
      g = ring.Mul(g, tree.nodes[static_cast<size_t>(c)].poly);
    interior.emplace_back(i, std::move(g));
  }
  if (interior.empty())
    return Status::InvalidArgument("document has no interior node");
  const size_t n = tree.size();
  uint64_t sink = 0;
  Calibration cal;
  cal.share_us = MedianCallUs(n, [&](size_t i) {
    auto s = client.ShareForPath("d0.0/" + tree.nodes[i].path);
    sink += s.ok() ? s->coeff(0) : 1;
  });
  ASSIGN_OR_RETURN(FpPoly share, client.ShareForPath("d0.0"));
  const uint64_t max_tag = ring.MaxTagValue();
  cal.eval_at_us = MedianCallUs(4 * n, [&](size_t i) {
    auto v = ring.EvalAt(share, 1 + i % max_tag);
    sink += v.ok() ? *v : 1;
  });
  cal.mul_us = MedianCallUs(n, [&](size_t i) {
    const auto& node = tree.nodes[i];
    const FpPoly& other =
        tree.nodes[node.parent < 0 ? 0 : static_cast<size_t>(node.parent)].poly;
    sink += ring.Mul(node.poly, other).coeff(0);
  });
  cal.solve_tag_us = MedianCallUs(interior.size(), [&](size_t i) {
    auto t = ring.SolveTag(tree.nodes[interior[i].first].poly,
                           interior[i].second);
    sink += t.ok() ? *t : 1;
  });
  // A volatile store keeps the timed calls' results, and so the calls, alive.
  volatile uint64_t keep = sink;
  (void)keep;
  return cal;
}

// -------------------------------------------------------------- analysis

/// Total length covered by a set of [start, end) intervals.
int64_t UnionLength(std::vector<std::pair<int64_t, int64_t>> v) {
  std::sort(v.begin(), v.end());
  int64_t total = 0, cur_start = 0, cur_end = INT64_MIN;
  for (const auto& [s, e] : v) {
    if (s > cur_end) {
      if (cur_end > INT64_MIN) total += cur_end - cur_start;
      cur_start = s;
      cur_end = e;
    } else {
      cur_end = std::max(cur_end, e);
    }
  }
  if (cur_end > INT64_MIN) total += cur_end - cur_start;
  return total;
}

/// One round of a run: a fresh deployment's set-up, then the closed loop on
/// that deployment.
struct Round {
  BuildTimes build;
  PhaseResult phase;
};

struct SetupSummary {
  double save_s = 0, open_s = 0, adds_s = 0, connect_s = 0;
  double store_bytes = 0;
};

SetupSummary Summarize(const std::vector<Round>& rounds) {
  SetupSummary s;
  auto least_of = [&](double BuildTimes::*field) {
    std::vector<double> v;
    for (const Round& r : rounds) v.push_back(r.build.*field);
    return Least(v);
  };
  s.save_s = least_of(&BuildTimes::save_s);
  s.open_s = least_of(&BuildTimes::open_s);
  s.adds_s = least_of(&BuildTimes::adds_s);
  s.connect_s = least_of(&BuildTimes::connect_s);
  s.store_bytes = static_cast<double>(rounds.front().build.store_bytes);
  return s;
}

/// Time statistics are the best round's own value (see RunWorkload); wire
/// counts are whole-run totals over ops.
Metrics EndToEndMetrics(const std::vector<Round>& rounds,
                        double plaintext_bytes) {
  std::vector<double> rates, p50, p90, adds, setups;
  double ops = 0;
  TransportCounters traffic;
  for (const Round& r : rounds) {
    rates.push_back(Ratio(static_cast<double>(r.phase.ops), r.phase.wall_s));
    if (!r.phase.query_ms.empty()) {
      p50.push_back(Percentile(r.phase.query_ms, 0.5));
      p90.push_back(Percentile(r.phase.query_ms, 0.9));
    }
    std::vector<double> round_adds = r.build.add_ms;
    round_adds.insert(round_adds.end(), r.phase.add_ms.begin(),
                      r.phase.add_ms.end());
    adds.push_back(Median(std::move(round_adds)));
    setups.push_back(r.build.total_s);
    ops += static_cast<double>(r.phase.ops);
    traffic.Add(r.phase.traffic);
  }
  Metrics m;
  m["ops_per_s"] = Most(rates);
  m["lat_p50_ms"] = Least(p50);
  m["lat_p90_ms"] = Least(p90);
  m["add_p50_ms"] = Least(adds);
  m["bytes_per_op"] =
      Ratio(static_cast<double>(traffic.bytes_up + traffic.bytes_down), ops);
  m["msgs_per_op"] = Ratio(
      static_cast<double>(traffic.messages_up + traffic.messages_down), ops);
  m["setup_s"] = Least(setups);
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  m["rss_mb"] = static_cast<double>(usage.ru_maxrss) / 1024.0;
  m["storage_ratio"] = Ratio(
      static_cast<double>(rounds.front().build.store_bytes), plaintext_bytes);
  return m;
}

struct LayerInputs {
  const Workload* workload = nullptr;
  size_t servers = 0;
  const std::vector<Span>* spans = nullptr;
  const PhaseResult* phase = nullptr;
  double untraced_ops_per_s = 0;
  Calibration cal;
  SetupSummary setup;
};

Metrics LayerMetrics(const LayerInputs& in) {
  const Workload& w = *in.workload;
  const PhaseResult& phase = *in.phase;
  // Op ids are dense: every id below phase.ops ran (records hold the ones
  // that succeeded).
  const size_t n_ops = static_cast<size_t>(phase.ops);
  const size_t n_servers = in.servers;

  struct OpSpans {
    int64_t t0 = 0, t1 = 0;
    std::vector<std::pair<int64_t, int64_t>> endpoint;  ///< client blocked
    size_t requests = 0;  ///< eval/fetch requests put on the wire
    std::vector<std::pair<int64_t, int64_t>> server_window;
  };
  std::vector<OpSpans> ops(n_ops);
  for (OpSpans& o : ops)
    o.server_window.assign(n_servers, {INT64_MAX, INT64_MIN});

  double op_ns = 0, endpoint_ns = 0, io_endpoint_ns = 0, handler_io_ns = 0;
  double handler_ns = 0, delay_ns = 0, eval_ns = 0, fetch_ns = 0;
  double add_handler_ns = 0, eval_work = 0, add_bytes = 0;
  double endpoint_calls = 0, io_calls = 0;
  std::vector<double> busy_per_server(n_servers, 0);
  for (const Span& s : *in.spans) {
    if (s.t0 < phase.start_ns || s.t1 > phase.end_ns) continue;
    const double dur = static_cast<double>(s.t1 - s.t0);
    const bool op_known = s.op >= 0 && static_cast<size_t>(s.op) < n_ops;
    if (IsOpSpan(s.name)) {
      op_ns += dur;
      if (op_known) {
        ops[static_cast<size_t>(s.op)].t0 = s.t0;
        ops[static_cast<size_t>(s.op)].t1 = s.t1;
      }
    } else if (IsEndpointSpan(s.name)) {
      endpoint_ns += dur;
      const bool io = s.name == SpanName::kEndpointEval ||
                      s.name == SpanName::kEndpointFetch ||
                      s.name == SpanName::kEndpointSubmit ||
                      s.name == SpanName::kEndpointAwait;
      const bool request = io && s.name != SpanName::kEndpointAwait;
      if (io) io_endpoint_ns += dur;
      if (s.name != SpanName::kEndpointAwait) ++endpoint_calls;
      if (s.name == SpanName::kEndpointEval ||
          s.name == SpanName::kEndpointFetch) {
        ++io_calls;
        handler_io_ns -= dur;  // codec: endpoint time minus handler time
      }
      if (s.name == SpanName::kEndpointAddDoc)
        add_bytes += static_cast<double>(s.work);
      if (op_known) {
        OpSpans& o = ops[static_cast<size_t>(s.op)];
        o.endpoint.emplace_back(s.t0, s.t1);
        if (request) ++o.requests;
        if (s.server >= 0 && static_cast<size_t>(s.server) < n_servers) {
          auto& win = o.server_window[static_cast<size_t>(s.server)];
          win.first = std::min(win.first, s.t0);
          win.second = std::max(win.second, s.t1);
        }
      }
    } else if (IsHandlerSpan(s.name)) {
      handler_ns += dur;
      if (s.server >= 0 && static_cast<size_t>(s.server) < n_servers)
        busy_per_server[static_cast<size_t>(s.server)] += dur;
      if (s.name == SpanName::kHandlerEval) {
        eval_ns += dur;
        eval_work += static_cast<double>(s.work);
      }
      if (s.name == SpanName::kHandlerFetch) fetch_ns += dur;
      if (s.name == SpanName::kHandlerEval || s.name == SpanName::kHandlerFetch)
        handler_io_ns += dur;
      if (s.name == SpanName::kHandlerAddDoc) add_handler_ns += dur;
    } else if (s.name == SpanName::kServerDelay) {
      delay_ns += dur;
    }
  }

  double walked = 0, queries = 0, adds = 0, self_ns = 0, requests = 0;
  double add_client_ns = 0, shard_ns = 0, walked_op_ns = 0, matches = 0;
  QueryStats sum;
  std::vector<double> shard_evals(static_cast<size_t>(std::max(w.shards, 0)),
                                  0);
  for (const OpRecord& r : phase.records) {
    const OpSpans& o = ops[static_cast<size_t>(r.id)];
    const int64_t blocked = UnionLength(o.endpoint);
    if (r.kind == OpKind::kAdd) {
      ++adds;
      add_client_ns += static_cast<double>(o.t1 - o.t0 - blocked);
    }
    if (r.kind != OpKind::kSearch) continue;
    ++queries;
    if (o.endpoint.empty()) continue;  // answered from the hot-query cache
    ++walked;
    self_ns += static_cast<double>(o.t1 - o.t0 - blocked);
    walked_op_ns += static_cast<double>(o.t1 - o.t0);
    requests += static_cast<double>(o.requests);
    matches += static_cast<double>(r.matches);
    for (const auto& [first, last] : o.server_window)
      if (last > first) shard_ns += static_cast<double>(last - first);
    sum.rounds += r.stats.rounds;
    sum.fetch_rounds += r.stats.fetch_rounds;
    sum.nodes_visited += r.stats.nodes_visited;
    sum.total_server_nodes += r.stats.total_server_nodes;
    sum.zero_candidates += r.stats.zero_candidates;
    sum.reconstructions += r.stats.reconstructions;
    sum.client_share_derivations += r.stats.client_share_derivations;
    sum.client_evals += r.stats.client_evals;
    sum.server_evals += r.stats.server_evals;
    sum.polys_fetched_full += r.stats.polys_fetched_full;
    sum.transport.messages_up += r.stats.transport.messages_up;
    for (size_t i = 0; i < r.per_shard.size() && i < shard_evals.size(); ++i)
      shard_evals[i] += static_cast<double>(r.per_shard[i].stats.server_evals);
  }

  Metrics m;
  const double ops_all = static_cast<double>(n_ops);
  auto per_walk = [&](size_t v) {
    return Ratio(static_cast<double>(v), walked);
  };
  const double self_ms = Ratio(self_ns, walked) / 1e6;
  m["query_session.self_ms_per_op"] = self_ms;
  m["query_session.rounds_per_op"] = per_walk(sum.rounds);
  m["query_session.fetch_rounds_per_op"] = per_walk(sum.fetch_rounds);
  m["query_session.nodes_visited_per_op"] = per_walk(sum.nodes_visited);
  m["query_session.zero_candidates_per_op"] = per_walk(sum.zero_candidates);
  m["query_session.reconstructions_per_op"] = per_walk(sum.reconstructions);
  m["query_session.share_derivations_per_op"] =
      per_walk(sum.client_share_derivations);
  m["query_session.client_evals_per_op"] = per_walk(sum.client_evals);
  m["query_session.server_evals_per_op"] = per_walk(sum.server_evals);
  m["query_session.visited_frac"] =
      Ratio(static_cast<double>(sum.nodes_visited),
            static_cast<double>(sum.total_server_nodes));
  m["query_session.match_yield"] =
      Ratio(matches, static_cast<double>(sum.zero_candidates));
  // Estimated cost of each kind of client work = unit cost x count. The
  // product of a reconstructed node's children costs one ring Mul per
  // fetched child polynomial.
  const double share_est =
      in.cal.share_us * per_walk(sum.client_share_derivations) / 1e3;
  const double eval_est = in.cal.eval_at_us * per_walk(sum.client_evals) / 1e3;
  const size_t child_polys =
      sum.polys_fetched_full > sum.reconstructions
          ? sum.polys_fetched_full - sum.reconstructions
          : 0;
  const double reconstruct_est =
      (in.cal.solve_tag_us * per_walk(sum.reconstructions) +
       in.cal.mul_us * per_walk(child_polys)) /
      1e3;
  m["query_session.share_ms_per_op_est"] = share_est;
  m["query_session.eval_ms_per_op_est"] = eval_est;
  m["query_session.reconstruct_ms_per_op_est"] = reconstruct_est;
  m["query_session.unexplained_ms_per_op"] =
      self_ms - share_est - eval_est - reconstruct_est;
  m["query_session.stats_msgs_ratio"] =
      Ratio(static_cast<double>(sum.transport.messages_up), requests);
  m["client_context.share_us"] = in.cal.share_us;
  m["ring.eval_at_us"] = in.cal.eval_at_us;
  m["ring.mul_us"] = in.cal.mul_us;
  m["ring.solve_tag_us"] = in.cal.solve_tag_us;

  m["endpoint.calls_per_op"] = Ratio(endpoint_calls, ops_all);
  m["endpoint.blocked_ms_per_op"] = Ratio(endpoint_ns, ops_all) / 1e6;
  m["endpoint.bytes_up_per_op"] =
      Ratio(static_cast<double>(phase.traffic.bytes_up), ops_all);
  m["endpoint.bytes_down_per_op"] =
      Ratio(static_cast<double>(phase.traffic.bytes_down), ops_all);
  // Over TCP the endpoint span also holds the wire and the server's queue,
  // so the codec share cannot be isolated there.
  m["protocol.codec_us_per_call"] =
      w.tcp ? 0 : Ratio(-handler_io_ns, io_calls) / 1e3;
  m["net.overlap"] = Ratio(delay_ns + eval_ns + fetch_ns, io_endpoint_ns);

  m["store_registry.eval_ms_per_op"] = Ratio(eval_ns, ops_all) / 1e6;
  m["store_registry.fetch_ms_per_op"] = Ratio(fetch_ns, ops_all) / 1e6;
  m["store_registry.evals_per_us"] = Ratio(eval_work, eval_ns / 1e3);
  m["store_registry.busy_frac"] =
      Ratio(handler_ns, phase.wall_s * 1e9 * static_cast<double>(n_servers));
  m["store_registry.add_ms_per_add"] = Ratio(add_handler_ns, adds) / 1e6;
  m["collection.cache_hit_ratio"] = Ratio(queries - walked, queries);
  m["outsource.ms_per_add"] = Ratio(add_client_ns, adds) / 1e6;
  m["outsource.bytes_per_add"] = Ratio(add_bytes, adds);

  m["persistence.save_s"] = in.setup.save_s;
  m["persistence.open_s"] = in.setup.open_s;
  m["persistence.store_bytes"] = in.setup.store_bytes;
  m["setup.adds_s"] = in.setup.adds_s;
  m["setup.connect_s"] = in.setup.connect_s;

  double skew_evals = 0, skew_busy = 0, scatter = 0;
  if (w.shards > 0) {
    scatter = Ratio(shard_ns, walked_op_ns);
    auto skew = [](const std::vector<double>& v) {
      double max = 0, total = 0;
      for (double x : v) {
        max = std::max(max, x);
        total += x;
      }
      return Ratio(max, total / static_cast<double>(v.size()));
    };
    skew_evals = skew(shard_evals);
    skew_busy = skew(busy_per_server);
  }
  m["shard.scatter_overlap"] = scatter;
  m["shard.skew_evals"] = skew_evals;
  m["shard.skew_busy"] = skew_busy;

  const double traced_ops_per_s = Ratio(ops_all, phase.wall_s);
  m["trace.overhead_frac"] =
      in.untraced_ops_per_s > 0
          ? 1.0 - traced_ops_per_s / in.untraced_ops_per_s
          : 0;
  m["trace.span_coverage"] =
      Ratio(op_ns, phase.wall_s * 1e9 * static_cast<double>(w.clients));
  return m;
}

// ---------------------------------------------------------------- driver

struct RunResult {
  bool ok = false;  ///< set-up succeeded and a result exists
  int64_t attempted = 0, errors = 0, mismatches = 0;
  std::vector<std::pair<const MetricDef*, double>> metrics;
  std::vector<std::pair<std::string, double>> notes;  ///< printed, not gated
};

void Report(const PhaseResult& phase, RunResult* out) {
  out->attempted += phase.ops;
  out->errors += phase.errors;
  out->mismatches += phase.mismatches;
  if (!phase.first_problem.empty())
    std::fprintf(stderr, "%s: %s\n",
                 phase.mismatches > 0 ? "WRONG ANSWER" : "error",
                 phase.first_problem.c_str());
}

template <size_t N>
void Collect(const MetricDef (&defs)[N], const Metrics& values,
             RunResult* out) {
  for (const MetricDef& def : defs) {
    auto it = values.find(def.name);
    if (it == values.end()) {
      std::fprintf(stderr, "internal error: metric %s not computed\n",
                   def.name);
      std::abort();
    }
    out->metrics.emplace_back(&def, it->second);
  }
}

RunResult RunWorkload(const RunConfig& cfg) {
  const Workload& w = *cfg.workload;
  RunResult result;
  const Inputs inputs(cfg.seed);
  std::vector<XmlNode> corpus;
  Oracle oracle;
  Corpus live;
  double plaintext_bytes = 0;
  for (size_t d = 0; d < cfg.docs; ++d) {
    corpus.push_back(inputs.Document(d));
    oracle.AddDoc(d, corpus.back());
    live.live.push_back(d);
    plaintext_bytes +=
        static_cast<double>(WriteXml(corpus.back(), {.indent = 0}).size());
  }
  live.next_id = cfg.docs;
  const fs::path work = cfg.work_dir / ("polysse_bench-" + std::string(w.name) +
                                        "-" + std::to_string(getpid()));

  std::vector<TagStream> tags;
  for (int lane = 0; lane < w.clients; ++lane)
    tags.emplace_back(inputs.Stream("tags/" + std::to_string(lane)), w.zipf_s);

  // Set-up and measurement alternate: each round builds a fresh deployment
  // (one alive at a time, which keeps rss_mb comparable) and runs the loop
  // on it for its share of the time. A time statistic is the best round's
  // value: a shared host has slow spells of seconds to minutes that slow
  // every round inside them by up to 1.6x, often for more than half of a
  // run, so only the rounds outside them repeat from run to run. Set-up and
  // Add times are spread over the whole run in the same way. A traced run
  // measures a quarter of the time untraced, for trace.overhead_frac.
  const double untraced_s =
      cfg.trace ? std::max(1.0, cfg.seconds / 4) : cfg.seconds;
  std::vector<Round> rounds;
  for (int r = 0; r < cfg.rounds; ++r) {
    Round round;
    const fs::path dir = work / ("round" + std::to_string(r));
    auto built =
        Deployment::Build(w, inputs, corpus, dir, nullptr, &round.build);
    if (!built.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n",
                   built.status().ToString().c_str());
      return result;
    }
    std::unique_ptr<Deployment> dep = std::move(built).value();
    Oracle o = oracle;
    Corpus c = live;
    round.phase = RunPhase(*dep, cfg, untraced_s / cfg.rounds, inputs, &tags,
                           &o, &c, nullptr, r);
    dep.reset();
    // Hand the round's freed heap back, so that rss_mb, a peak, measures one
    // live deployment rather than what earlier rounds' threads left behind
    // in their malloc arenas.
    malloc_trim(0);
    Report(round.phase, &result);
    rounds.push_back(std::move(round));
  }

  if (!cfg.trace) {
    Collect(kEndToEnd, EndToEndMetrics(rounds, plaintext_bytes), &result);
    std::vector<double> all_ms;
    for (const Round& r : rounds)
      all_ms.insert(all_ms.end(), r.phase.query_ms.begin(),
                    r.phase.query_ms.end());
    result.notes.emplace_back("lat_p99_ms", Percentile(all_ms, 0.99));
    result.notes.emplace_back("query_ops", static_cast<double>(all_ms.size()));
  } else {
    std::vector<double> untraced_rates;
    for (const Round& r : rounds)
      untraced_rates.push_back(
          Ratio(static_cast<double>(r.phase.ops), r.phase.wall_s));

    Tracer tracer(w.clients);
    BuildTimes traced_times;
    auto built = Deployment::Build(w, inputs, corpus, work / "traced", &tracer,
                                   &traced_times);
    if (!built.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n",
                   built.status().ToString().c_str());
      return result;
    }
    std::unique_ptr<Deployment> dep = std::move(built).value();
    auto cal = Calibrate(dep->key(), corpus.front());
    if (!cal.ok()) {
      std::fprintf(stderr, "calibration failed: %s\n",
                   cal.status().ToString().c_str());
      return result;
    }
    Oracle o = oracle;
    Corpus c = live;
    const PhaseResult phase = RunPhase(*dep, cfg, cfg.seconds, inputs, &tags,
                                       &o, &c, &tracer, cfg.rounds);
    const size_t servers = dep->num_servers();
    dep.reset();  // joins every server thread before the spans are read
    Report(phase, &result);
    const std::vector<Span> spans = tracer.TakeSpans();

    std::error_code ec;
    const fs::path trace_dir = cfg.work_dir / "trace";
    fs::create_directories(trace_dir, ec);
    const fs::path trace_file =
        trace_dir / (std::string(w.name) + "-seed" + std::to_string(cfg.seed) +
                     ".trace.json");
    if (!WriteChromeTrace(trace_file.string(), spans)) {
      std::fprintf(stderr, "cannot write %s\n", trace_file.string().c_str());
      return result;
    }
    std::fprintf(stderr, "trace: %zu spans -> %s\n", spans.size(),
                 trace_file.string().c_str());

    LayerInputs layer;
    layer.workload = &w;
    layer.servers = servers;
    layer.spans = &spans;
    layer.phase = &phase;
    layer.untraced_ops_per_s = Median(std::move(untraced_rates));
    layer.cal = *cal;
    layer.setup = Summarize(rounds);
    Collect(kPerLayer, LayerMetrics(layer), &result);
  }
  std::error_code ec;
  fs::remove_all(work, ec);
  result.notes.emplace_back(
      "error_rate",
      Ratio(static_cast<double>(result.errors + result.mismatches),
            static_cast<double>(result.attempted)));
  result.ok = true;
  return result;
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  auto [end, ec] = std::to_chars(buf, buf + sizeof buf, v);
  return ec == std::errc() ? std::string(buf, end) : "0";
}

void PrintResult(const RunResult& r) {
  for (const auto& [def, value] : r.metrics)
    std::printf("%s %s %s\n", def->name, JsonNumber(value).c_str(), def->unit);
  for (const auto& [name, value] : r.notes)
    std::printf("# %s %s\n", name.c_str(), JsonNumber(value).c_str());
  std::string json = "{\"correct\": ";
  json += r.mismatches == 0 ? "true" : "false";
  json += ", \"attempted\": ";
  json += std::to_string(r.attempted);
  json += ", \"failed\": ";
  json += std::to_string(r.errors + r.mismatches);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < r.metrics.size(); ++i) {
    if (i > 0) json += ", ";
    json += "\"";
    json += r.metrics[i].first->name;
    json += "\": {\"value\": ";
    json += JsonNumber(r.metrics[i].second);
    json += ", \"unit\": \"";
    json += r.metrics[i].first->unit;
    json += "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

int Smoke(const fs::path& work_dir) {
  bool all_ok = true;
  for (const Workload& w : kWorkloads) {
    for (bool trace : {false, true}) {
      RunConfig cfg;
      cfg.workload = &w;
      cfg.trace = trace;
      cfg.work_dir = work_dir;
      cfg.docs = 4;
      cfg.seconds = 30;
      cfg.rounds = 1;
      cfg.max_ops = 5;
      const RunResult r = RunWorkload(cfg);
      const bool ok = r.ok && r.mismatches == 0 && r.errors == 0 &&
                      r.attempted > 0;
      std::printf("smoke %-15s trace=%d %s (%lld ops)\n", w.name, trace ? 1 : 0,
                  ok ? "ok" : "FAILED", static_cast<long long>(r.attempted));
      all_ok = all_ok && ok;
    }
  }
  return all_ok ? 0 : 1;
}

int Usage() {
  std::fprintf(stderr,
               "usage: polysse_bench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--work-dir DIR]\n"
               "       polysse_bench --smoke [--work-dir DIR]\n"
               "workloads:");
  for (const Workload& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  return 2;
}

int Main(int argc, char** argv) {
  RunConfig cfg;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
      continue;
    }
    if (i + 1 >= argc) return Usage();
    const char* value = argv[++i];
    if (arg == "--workload") {
      for (const Workload& w : kWorkloads)
        if (std::string_view(w.name) == value) cfg.workload = &w;
      if (cfg.workload == nullptr) return Usage();
    } else if (arg == "--seed") {
      cfg.seed = std::strtoull(value, nullptr, 10);
    } else if (arg == "--seconds") {
      cfg.seconds = std::strtod(value, nullptr);
      if (!(cfg.seconds > 0)) return Usage();
    } else if (arg == "--trace") {
      cfg.trace = std::string_view(value) != "0";
    } else if (arg == "--work-dir") {
      cfg.work_dir = value;
    } else {
      return Usage();
    }
  }
  if (smoke) return Smoke(cfg.work_dir);
  if (cfg.workload == nullptr) return Usage();
  cfg.docs = cfg.workload->docs;
  const RunResult r = RunWorkload(cfg);
  if (!r.ok) return 1;
  PrintResult(r);
  return r.mismatches == 0 ? 0 : 1;
}

}  // namespace
}  // namespace polysse::bench

int main(int argc, char** argv) { return polysse::bench::Main(argc, argv); }
