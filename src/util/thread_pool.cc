#include "util/thread_pool.h"

#include <atomic>
#include <memory>

namespace polysse {

InlineExecutor* GlobalInlineExecutor() {
  static InlineExecutor executor;
  return &executor;
}

ThreadPool::ThreadPool(size_t num_threads) {
  if (num_threads == 0) num_threads = 1;
  threads_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i)
    threads_.emplace_back([this] { WorkerLoop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(task));
  }
  cv_.notify_one();
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [&] { return shutdown_ || !queue_.empty(); });
      if (queue_.empty()) return;  // shutdown with a drained queue
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

void ThreadPool::ParallelFor(size_t n, const std::function<void(size_t)>& body) {
  if (n == 0) return;
  if (n == 1) {
    body(0);
    return;
  }

  // Work-claiming loop shared by the workers and the caller. The caller
  // participating guarantees progress even when every worker is busy with
  // an outer ParallelFor (nested fan-out cannot deadlock the pool).
  struct BatchState {
    std::atomic<size_t> next{0};
    std::atomic<size_t> done{0};
    std::mutex mu;
    std::condition_variable cv;
  };
  auto state = std::make_shared<BatchState>();

  auto drain = [state, &body, n] {
    for (;;) {
      const size_t i = state->next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) break;
      body(i);
      if (state->done.fetch_add(1, std::memory_order_acq_rel) + 1 == n) {
        std::lock_guard<std::mutex> lock(state->mu);
        state->cv.notify_all();
      }
    }
  };

  // One helper per worker is enough: each claims indices until none remain.
  const size_t helpers = std::min(threads_.size(), n - 1);
  // The helpers only borrow `body`, which outlives them because the caller
  // blocks below until all n indices report done.
  for (size_t h = 0; h < helpers; ++h) Submit(drain);
  drain();

  std::unique_lock<std::mutex> lock(state->mu);
  state->cv.wait(lock, [&] {
    return state->done.load(std::memory_order_acquire) == n;
  });
}

}  // namespace polysse
