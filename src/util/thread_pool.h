// Execution seam for the multi-server fan-out: per-server subrequests are
// submitted to an Executor, which either runs them inline (deterministic,
// single-threaded — the default for tests and small deployments) or on a
// fixed-size worker pool so k server round-trips overlap and k-server wall
// time approaches one server's latency instead of k of them.
//
//   ThreadPool pool(8);
//   Future<int> f = pool.Submit([] { return 42; });
//   int v = f.Get();
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
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

namespace polysse {

/// One-shot value handoff between a submitted task and its consumer.
/// Simpler than std::future: no exceptions, no shared_future, movable.
template <typename T>
class Future {
 public:
  Future() : state_(std::make_shared<State>()) {}

  /// Blocks until the producer calls Set, then returns the value (by move).
  T Get() {
    std::unique_lock<std::mutex> lock(state_->mu);
    state_->cv.wait(lock, [&] { return state_->value.has_value(); });
    return std::move(*state_->value);
  }

  bool Ready() const {
    std::lock_guard<std::mutex> lock(state_->mu);
    return state_->value.has_value();
  }

 private:
  template <typename U>
  friend class Promise;

  struct State {
    std::mutex mu;
    std::condition_variable cv;
    std::optional<T> value;  ///< present once the producer delivered
  };
  std::shared_ptr<State> state_;
};

/// Producer side of a Future.
template <typename T>
class Promise {
 public:
  Future<T> GetFuture() { return future_; }

  void Set(T value) {
    {
      std::lock_guard<std::mutex> lock(future_.state_->mu);
      future_.state_->value = std::move(value);
    }
    future_.state_->cv.notify_all();
  }

 private:
  Future<T> future_;
};

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

  /// Schedules `fn` and returns a Future for its result. `fn` must not
  /// throw.
  template <typename Fn, typename T = std::invoke_result_t<Fn>>
  Future<T> Submit(Fn fn) {
    Promise<T> promise;
    Future<T> future = promise.GetFuture();
    Enqueue([promise = std::move(promise), fn = std::move(fn)]() mutable {
      promise.Set(fn());
    });
    return future;
  }

  /// Blocks until body(0..n-1) all completed. The calling thread helps run
  /// tasks, so a ParallelFor issued from a worker thread cannot deadlock
  /// the pool, and a 1-thread pool still makes progress.
  void ParallelFor(size_t n, const std::function<void(size_t)>& body) override;

  size_t concurrency() const override { return threads_.size(); }

 private:
  void Enqueue(std::function<void()> task);
  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  bool shutdown_ = false;
  std::vector<std::thread> threads_;
};

}  // namespace polysse

#endif  // POLYSSE_UTIL_THREAD_POOL_H_
