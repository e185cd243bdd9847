// Unit tests of the execution seam: ThreadPool Submit/ParallelFor
// (including nesting, caller participation and the destructor's drain),
// and the inline executor's deterministic ordering.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <set>
#include <thread>
#include <vector>

#include "util/thread_pool.h"

namespace polysse {
namespace {

TEST(ThreadPoolTest, ManySubmissionsAllComplete) {
  std::atomic<size_t> sum{0};
  {
    ThreadPool pool(8);
    for (size_t i = 0; i < 500; ++i)
      pool.Submit(
          [&sum, i] { sum.fetch_add(i * i, std::memory_order_relaxed); });
  }  // destructor drains the queue
  size_t want = 0;
  for (size_t i = 0; i < 500; ++i) want += i * i;
  EXPECT_EQ(sum.load(), want);
}

TEST(ThreadPoolTest, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  for (size_t n : {0u, 1u, 3u, 64u, 1000u}) {
    std::vector<std::atomic<int>> hits(n);
    pool.ParallelFor(n, [&](size_t i) {
      hits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
  }
}

TEST(ThreadPoolTest, ParallelForActuallyOverlaps) {
  // 4 workers x 4 sleeping tasks of 20 ms: wall time far below the 80 ms a
  // sequential run would need (generous margin for loaded CI machines).
  ThreadPool pool(4);
  const auto start = std::chrono::steady_clock::now();
  pool.ParallelFor(4, [](size_t) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  });
  const double ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - start)
                        .count();
  EXPECT_LT(ms, 70.0) << "4x20ms tasks on 4 threads should overlap";
}

TEST(ThreadPoolTest, NestedParallelForDoesNotDeadlock) {
  // Outer iterations issue inner ParallelFors from worker threads; the
  // caller-participation design must keep making progress even when every
  // worker is occupied by an outer iteration.
  ThreadPool pool(2);
  std::atomic<int> total{0};
  pool.ParallelFor(4, [&](size_t) {
    pool.ParallelFor(8, [&](size_t) {
      total.fetch_add(1, std::memory_order_relaxed);
    });
  });
  EXPECT_EQ(total.load(), 32);
}

TEST(ThreadPoolTest, InlineExecutorRunsInOrderOnCallerThread) {
  InlineExecutor inline_exec;
  std::vector<size_t> order;
  const std::thread::id self = std::this_thread::get_id();
  inline_exec.ParallelFor(5, [&](size_t i) {
    EXPECT_EQ(std::this_thread::get_id(), self);
    order.push_back(i);
  });
  EXPECT_EQ(order, (std::vector<size_t>{0, 1, 2, 3, 4}));
  EXPECT_EQ(inline_exec.concurrency(), 1u);
  EXPECT_EQ(GlobalInlineExecutor()->concurrency(), 1u);
}

TEST(ThreadPoolTest, ConcurrencyReportsThreadCount) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.concurrency(), 3u);
  std::atomic<int> ran{0};
  {
    ThreadPool clamped(0);  // clamps to one worker rather than zero
    EXPECT_EQ(clamped.concurrency(), 1u);
    clamped.Submit([&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
  }
  EXPECT_EQ(ran.load(), 1);
}

TEST(ThreadPoolTest, DestructorDrainsQueuedWork) {
  std::atomic<int> ran{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 64; ++i)
      pool.Submit([&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
  }  // destructor joins; queued tasks must all have run
  EXPECT_EQ(ran.load(), 64);
}

}  // namespace
}  // namespace polysse
