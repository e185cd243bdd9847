// E8 companion — statistically sound end-to-end latency of the full wire
// protocol (outsource once, measure Lookup) as document size and verify
// mode scale. google-benchmark binary.
#include <benchmark/benchmark.h>

#include <map>
#include <memory>

#include "core/outsource.h"
#include "core/query_session.h"
#include "testing/deploy_helpers.h"
#include "xml/xml_generator.h"

namespace polysse {
namespace {

using testing::FpDeployment;
using testing::MakeFpDeployment;
using testing::TestSession;

struct Deployment {
  XmlNode doc;
  FpDeployment dep;
  std::string rare_tag;
};

Deployment& SharedDeployment(size_t n) {
  static std::map<size_t, std::unique_ptr<Deployment>> cache;
  auto it = cache.find(n);
  if (it == cache.end()) {
    XmlGeneratorOptions gen;
    gen.num_nodes = n;
    gen.tag_alphabet = 16;
    gen.zipf_s = 1.0;
    gen.seed = n;
    XmlNode doc = GenerateXmlTree(gen);
    DeterministicPrf seed = DeterministicPrf::FromString("scaling");
    auto dep = MakeFpDeployment(doc, seed).value();
    auto holder = std::make_unique<Deployment>(
        Deployment{std::move(doc), std::move(dep), ""});
    holder->rare_tag = holder->doc.DistinctTags().back();
    it = cache.emplace(n, std::move(holder)).first;
  }
  return *it->second;
}

void BM_LookupVerified(benchmark::State& state) {
  Deployment& d = SharedDeployment(static_cast<size_t>(state.range(0)));
  TestSession<FpCyclotomicRing> session(&d.dep.client, d.dep.server.get());
  for (auto _ : state) {
    auto r = session.Lookup(d.rare_tag, VerifyMode::kVerified);
    if (!r.ok()) state.SkipWithError("lookup failed");
    benchmark::DoNotOptimize(r);
  }
  auto r = session.Lookup(d.rare_tag, VerifyMode::kVerified).value();
  state.counters["visited_frac"] = r.stats.VisitedFraction();
  state.counters["bytes_down"] = static_cast<double>(r.stats.transport.bytes_down);
}
BENCHMARK(BM_LookupVerified)->Arg(100)->Arg(1000)->Arg(10000);

void BM_LookupOptimistic(benchmark::State& state) {
  Deployment& d = SharedDeployment(static_cast<size_t>(state.range(0)));
  TestSession<FpCyclotomicRing> session(&d.dep.client, d.dep.server.get());
  for (auto _ : state) {
    auto r = session.Lookup(d.rare_tag, VerifyMode::kOptimistic);
    if (!r.ok()) state.SkipWithError("lookup failed");
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_LookupOptimistic)->Arg(100)->Arg(1000)->Arg(10000);

void BM_XPathAllAtOnce(benchmark::State& state) {
  Deployment& d = SharedDeployment(static_cast<size_t>(state.range(0)));
  TestSession<FpCyclotomicRing> session(&d.dep.client, d.dep.server.get());
  auto tags = d.doc.DistinctTags();
  auto query =
      XPathQuery::Parse("//" + tags[0] + "//" + tags[1 % tags.size()]).value();
  for (auto _ : state) {
    auto r = session.EvaluateXPath(query, XPathStrategy::kAllAtOnce,
                                   VerifyMode::kVerified);
    if (!r.ok()) state.SkipWithError("xpath failed");
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_XPathAllAtOnce)->Arg(1000)->Arg(10000);

// Batched vs sequential multi-query execution: 16 concurrent //tag queries
// through LookupBatch share one BFS walk (the frontier descends wherever
// any point vanishes and every EvalRequest carries all points), vs 16
// independent pruned walks. Counters report server-side request counts per
// iteration — the round-trip budget a networked deployment cares about.
constexpr size_t kBatchQueries = 16;

std::vector<TagQuery> BatchQueries(const Deployment& d) {
  std::vector<std::string> tags = d.doc.DistinctTags();
  std::vector<TagQuery> queries;
  for (size_t i = 0; i < kBatchQueries; ++i)
    queries.push_back({tags[i % tags.size()], VerifyMode::kVerified});
  return queries;
}

void BM_Lookup16Sequential(benchmark::State& state) {
  Deployment& d = SharedDeployment(static_cast<size_t>(state.range(0)));
  TestSession<FpCyclotomicRing> session(&d.dep.client, d.dep.server.get());
  const std::vector<TagQuery> queries = BatchQueries(d);
  const auto before = d.dep.server->stats();
  for (auto _ : state) {
    for (const TagQuery& q : queries) {
      auto r = session.Lookup(q.tag, q.mode);
      if (!r.ok()) state.SkipWithError("lookup failed");
      benchmark::DoNotOptimize(r);
    }
  }
  const auto after = d.dep.server->stats();
  state.counters["eval_requests"] = benchmark::Counter(
      static_cast<double>(after.eval_requests - before.eval_requests),
      benchmark::Counter::kAvgIterations);
  state.counters["server_evals"] = benchmark::Counter(
      static_cast<double>(after.evals - before.evals),
      benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_Lookup16Sequential)->Arg(1000)->Arg(10000);

void BM_Lookup16Batched(benchmark::State& state) {
  Deployment& d = SharedDeployment(static_cast<size_t>(state.range(0)));
  TestSession<FpCyclotomicRing> session(&d.dep.client, d.dep.server.get());
  const std::vector<TagQuery> queries = BatchQueries(d);
  const auto before = d.dep.server->stats();
  for (auto _ : state) {
    auto r = session.LookupBatch(queries);
    if (!r.ok()) state.SkipWithError("batch failed");
    benchmark::DoNotOptimize(r);
  }
  const auto after = d.dep.server->stats();
  state.counters["eval_requests"] = benchmark::Counter(
      static_cast<double>(after.eval_requests - before.eval_requests),
      benchmark::Counter::kAvgIterations);
  state.counters["server_evals"] = benchmark::Counter(
      static_cast<double>(after.evals - before.evals),
      benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_Lookup16Batched)->Arg(1000)->Arg(10000);

void BM_MakeFpDeployment(benchmark::State& state) {
  XmlGeneratorOptions gen;
  gen.num_nodes = static_cast<size_t>(state.range(0));
  gen.tag_alphabet = 16;
  gen.seed = 5;
  XmlNode doc = GenerateXmlTree(gen);
  DeterministicPrf seed = DeterministicPrf::FromString("out-bench");
  for (auto _ : state) {
    auto dep = MakeFpDeployment(doc, seed);
    if (!dep.ok()) state.SkipWithError("outsource failed");
    benchmark::DoNotOptimize(dep);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_MakeFpDeployment)->Arg(100)->Arg(1000);

}  // namespace
}  // namespace polysse

BENCHMARK_MAIN();
