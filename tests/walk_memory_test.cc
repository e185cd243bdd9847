// Walk-memory budget: the live heap one shard walk may hold at its peak.
//
// A connected collection runs its shard walks concurrently, so every byte
// of per-walk state is held once per shard in flight; the process-wide
// footprint of the scatter-4shard benchmark workload tracks this number.
// The suite replaces the global operator new/delete with counting versions
// (hence its own binary) and walks a collection of that workload's shape —
// 4 shards, 64 documents of 250 elements (fan-out <= 4, 40 tags), 2-party
// — with 4-tag verified SearchMany batches on the inline executor. There
// the shards are walked one after another, so the peak of a whole
// SearchMany above its starting heap is one walk's peak (plus the already
// gathered answers of the shards before it, which only makes the bound
// stricter).
//
// The same counters bound the server side of one hostile EvalRequest: its
// point count is the client's choice, so the server's table of point
// powers must stay a bounded block however many points a request carries.
//
// They also count allocation calls, so the same walks gate how many heap
// allocations a visited node costs: share derivation, combination and
// reconstruction run in per-session scratch, and what remains per node is
// mostly the protocol messages' per-entry vectors.
#include <gtest/gtest.h>
#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "core/collection.h"
#include "core/store_registry.h"
#include "xml/xml_generator.h"

namespace {

std::atomic<int64_t> g_live_bytes{0};
std::atomic<int64_t> g_peak_bytes{0};
std::atomic<int64_t> g_alloc_calls{0};

void CountAlloc(void* p) {
  g_alloc_calls.fetch_add(1, std::memory_order_relaxed);
  const int64_t now =
      g_live_bytes.fetch_add(static_cast<int64_t>(malloc_usable_size(p)),
                             std::memory_order_relaxed) +
      static_cast<int64_t>(malloc_usable_size(p));
  int64_t peak = g_peak_bytes.load(std::memory_order_relaxed);
  while (now > peak && !g_peak_bytes.compare_exchange_weak(
                           peak, now, std::memory_order_relaxed)) {
  }
}

void CountFree(void* p) {
  g_live_bytes.fetch_sub(static_cast<int64_t>(malloc_usable_size(p)),
                         std::memory_order_relaxed);
}

void* CountedNew(std::size_t n) {
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p == nullptr) throw std::bad_alloc();
  CountAlloc(p);
  return p;
}

void* CountedAlignedNew(std::size_t n, std::align_val_t align) {
  const std::size_t a = static_cast<std::size_t>(align);
  void* p = std::aligned_alloc(a, (std::max<std::size_t>(n, 1) + a - 1) / a * a);
  if (p == nullptr) throw std::bad_alloc();
  CountAlloc(p);
  return p;
}

void CountedDelete(void* p) {
  if (p == nullptr) return;
  CountFree(p);
  std::free(p);
}

}  // namespace

void* operator new(std::size_t n) { return CountedNew(n); }
void* operator new[](std::size_t n) { return CountedNew(n); }
void* operator new(std::size_t n, std::align_val_t a) {
  return CountedAlignedNew(n, a);
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return CountedAlignedNew(n, a);
}
void operator delete(void* p) noexcept { CountedDelete(p); }
void operator delete[](void* p) noexcept { CountedDelete(p); }
void operator delete(void* p, std::size_t) noexcept { CountedDelete(p); }
void operator delete[](void* p, std::size_t) noexcept { CountedDelete(p); }
void operator delete(void* p, std::align_val_t) noexcept { CountedDelete(p); }
void operator delete[](void* p, std::align_val_t) noexcept {
  CountedDelete(p);
}
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  CountedDelete(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  CountedDelete(p);
}

namespace polysse {
namespace {

constexpr int64_t kWalkBudgetBytes = 1 << 20;
/// Heap allocations per visited node of a verified 4-tag batch (all
/// shards' walks, client and in-process servers together).
constexpr double kAllocsPerNodeBudget = 12.0;

XmlNode MakeDoc(uint64_t seed) {
  XmlGeneratorOptions gen;
  gen.num_nodes = 250;
  gen.max_fanout = 4;
  gen.tag_alphabet = 40;
  gen.seed = seed;
  return GenerateXmlTree(gen);
}

/// The scatter-4shard-shaped collection, on the inline executor.
std::unique_ptr<FpCollection> MakeCollection() {
  DeployShape deploy;
  deploy.num_shards = 4;
  auto col =
      FpCollection::Create(DeterministicPrf::FromString("walk-memory"), deploy)
          .value();
  for (DocId d = 0; d < 64; ++d) {
    if (!col->Add(d, MakeDoc(9000 + d)).ok()) return nullptr;
  }
  return col;
}

/// `count` verified batches of 4 distinct tags, spread over the alphabet.
std::vector<std::vector<Query>> MakeBatches(int count) {
  ChaChaRng rng = DeterministicPrf::FromString("walk-memory/tags").Stream("q");
  std::vector<std::vector<Query>> batches(count);
  for (std::vector<Query>& queries : batches) {
    while (queries.size() < 4) {
      const std::string tag = "tag" + std::to_string(rng.NextBelow(40));
      bool fresh = true;
      for (const Query& q : queries) fresh = fresh && q.tag != tag;
      if (fresh) queries.push_back({tag, VerifyMode::kVerified});
    }
  }
  return batches;
}

TEST(WalkMemoryTest, OneShardWalkPeaksUnderOneMiB) {
  auto col = MakeCollection();
  ASSERT_NE(col, nullptr);
  ASSERT_EQ(col->executor(), nullptr);  // inline: one walk at a time

  std::vector<int64_t> peaks;
  for (const std::vector<Query>& queries : MakeBatches(8)) {
    const int64_t before = g_live_bytes.load();
    g_peak_bytes.store(before);
    auto r = col->SearchMany(queries);
    const int64_t peak = g_peak_bytes.load() - before;
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ASSERT_GT(r->front().stats.nodes_visited, 0u);
    peaks.push_back(peak);
  }

  int64_t sum = 0, max = 0;
  for (int64_t p : peaks) {
    sum += p;
    max = std::max(max, p);
  }
  std::printf("walk heap peak: mean %.2f MiB, max %.2f MiB over %zu batches\n",
              static_cast<double>(sum) / static_cast<double>(peaks.size()) /
                  (1 << 20),
              static_cast<double>(max) / (1 << 20), peaks.size());
  EXPECT_LE(max, kWalkBudgetBytes);
}

TEST(WalkMemoryTest, VerifiedBatchAllocationsPerVisitedNode) {
  auto col = MakeCollection();
  ASSERT_NE(col, nullptr);
  ASSERT_EQ(col->executor(), nullptr);

  double worst = 0;
  int64_t calls = 0;
  size_t nodes = 0;
  for (const std::vector<Query>& queries : MakeBatches(8)) {
    const int64_t before = g_alloc_calls.load();
    auto r = col->SearchMany(queries);
    const int64_t batch_calls = g_alloc_calls.load() - before;
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    const size_t visited = r->front().stats.nodes_visited;
    ASSERT_GT(visited, 0u);
    worst = std::max(worst, static_cast<double>(batch_calls) /
                                static_cast<double>(visited));
    calls += batch_calls;
    nodes += visited;
  }
  std::printf("allocations per visited node: mean %.2f, max %.2f (%lld calls,"
              " %zu nodes)\n",
              static_cast<double>(calls) / static_cast<double>(nodes), worst,
              static_cast<long long>(calls), nodes);
  EXPECT_LE(worst, kAllocsPerNodeBudget);
}

TEST(WalkMemoryTest, HostilePointCountStaysBounded) {
  // One node at 65,536 distinct points, none 0 mod 67, to a p = 67 server.
  // A table of every point's 66 powers would take 34 MiB; a block of them
  // at a time takes a few KiB above the response's own 512 KiB of values.
  const FpCyclotomicRing ring = FpCyclotomicRing::Create(67).value();
  ChaChaRng rng = DeterministicPrf::FromString("walk-memory/hostile")
                      .Stream("share");
  PolyTree<FpCyclotomicRing> tree;
  tree.nodes.push_back(PolyTree<FpCyclotomicRing>::Node{
      ring.Random([&] { return rng.NextU64(); }), 0, -1, {}, "", 1});
  FpStoreRegistry store(ring);
  ASSERT_TRUE(store.AddDoc(0, 0, ServerStore(ring, std::move(tree))).ok());
  EvalRequest req;
  req.node_ids = {0};
  for (uint64_t x = 1; req.points.size() < 65536; ++x)
    if (x % 67 != 0) req.points.push_back(x);

  const int64_t before = g_live_bytes.load();
  g_peak_bytes.store(before);
  auto resp = store.HandleEval(req);
  const int64_t peak = g_peak_bytes.load() - before;
  const int64_t response = g_live_bytes.load() - before;
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  std::printf("hostile request: response %.1f KiB, peak above it %.1f KiB\n",
              static_cast<double>(response) / 1024,
              static_cast<double>(peak - response) / 1024);
  EXPECT_LE(peak - response, int64_t{256} << 10);

  ASSERT_EQ(resp->entries.size(), 1u);
  ASSERT_EQ(resp->entries[0].values.size(), req.points.size());
  const FpPoly& poly = store.store(0).value()->tree().nodes[0].poly;
  for (size_t k = 0; k < req.points.size(); ++k)
    ASSERT_EQ(resp->entries[0].values[k],
              ring.EvalAt(poly, req.points[k]).value())
        << "x=" << req.points[k];

  // A request containing point 0 or p is still refused.
  for (uint64_t bad : {uint64_t{0}, uint64_t{67}}) {
    req.points.back() = bad;
    EXPECT_FALSE(store.HandleEval(req).ok()) << bad;
  }
}

}  // namespace
}  // namespace polysse
