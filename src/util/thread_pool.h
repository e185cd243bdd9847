// Execution seam for the multi-server fan-out: per-server subrequests are
// submitted to an Executor, which either runs them inline (deterministic,
// single-threaded — the default for tests and small deployments) or on a
// fixed-size worker pool so k server round-trips overlap and k-server wall
// time approaches one server's latency instead of k of them.
//
//   ThreadPool pool(8);
//   pool.Submit([request] { Serve(request); });  // runs later: copy inputs
//   pool.ParallelFor(k, [&](size_t s) { responses[s] = Call(servers[s]); });
//
// Tasks must not throw (the library is exception-free); report failures
// through the task's own channel (e.g. write a Result<T> into its slot).
#ifndef POLYSSE_UTIL_THREAD_POOL_H_
#define POLYSSE_UTIL_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace polysse {

/// Where fan-out work runs. Implementations: InlineExecutor (caller thread,
/// deterministic) and ThreadPool (worker threads, concurrent).
class Executor {
 public:
  virtual ~Executor() = default;

  /// Runs body(0) .. body(n-1), returning only when all calls finished.
  /// Distinct indices may run concurrently; the same index runs once.
  /// A body may itself call ParallelFor on the same executor, and the outer
  /// call must still finish: a collection scatters its shard walks with
  /// one call and each walk fans out to its servers with another.
  /// ThreadPool meets this because every caller runs the indices of its
  /// own call that no worker has claimed (NestedParallelForDoesNotDeadlock).
  virtual void ParallelFor(size_t n,
                           const std::function<void(size_t)>& body) = 0;

  /// Number of OS threads doing work (1 for inline execution).
  virtual size_t concurrency() const = 0;
};

/// Runs everything on the calling thread, in index order. The zero-cost
/// default that keeps single-server deployments and deterministic tests on
/// exactly the historical execution order.
class InlineExecutor final : public Executor {
 public:
  void ParallelFor(size_t n, const std::function<void(size_t)>& body) override {
    for (size_t i = 0; i < n; ++i) body(i);
  }
  size_t concurrency() const override { return 1; }
};

/// Process-wide shared inline executor (stateless, so sharing is free).
InlineExecutor* GlobalInlineExecutor();

/// Fixed-size worker pool. Threads start in the constructor and join in the
/// destructor; Submit never blocks (the queue is unbounded).
class ThreadPool final : public Executor {
 public:
  /// `num_threads` is clamped to at least 1.
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool() override;

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Schedules `task` on a worker; the destructor runs every task still
  /// queued. `task` must not throw, and reports its outcome itself.
  void Submit(std::function<void()> task);

  /// Blocks until body(0..n-1) all completed. The calling thread helps run
  /// tasks, so a ParallelFor issued from a worker thread cannot deadlock
  /// the pool, and a 1-thread pool still makes progress.
  void ParallelFor(size_t n, const std::function<void(size_t)>& body) override;

  size_t concurrency() const override { return threads_.size(); }

 private:
  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  bool shutdown_ = false;
  std::vector<std::thread> threads_;
};

}  // namespace polysse

#endif  // POLYSSE_UTIL_THREAD_POOL_H_
