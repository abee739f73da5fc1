#include "common/thread_pool.h"

namespace elsm::common {

ThreadPool::ThreadPool(size_t threads) {
  workers_.reserve(threads);
  for (size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::packaged_task<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      // Drain the queue even after stop: a queued task has a future some
      // caller is blocked on.
      if (queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop();
    }
    task();
  }
}

std::future<void> ThreadPool::Submit(std::function<void()> fn) {
  std::packaged_task<void()> task(std::move(fn));
  std::future<void> future = task.get_future();
  if (workers_.empty()) {
    task();
    return future;
  }
  {
    // Notify under the lock: once a worker can pop the task, Submit
    // touches the pool no more (see the header).
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push(std::move(task));
    cv_.notify_one();
  }
  return future;
}

void ThreadPool::ParallelFor(size_t n, const std::function<void(size_t)>& fn) {
  if (workers_.empty() || n <= 1) {
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  std::vector<std::future<void>> futures;
  futures.reserve(n - 1);
  for (size_t i = 1; i < n; ++i) {
    futures.push_back(Submit([&fn, i] { fn(i); }));
  }
  // Caller-runs: the calling thread takes a partition instead of idling on
  // the join, so num_shards-1 workers already capture full parallelism and
  // a busy shared pool can never stall an op completely.
  std::exception_ptr first_error;
  try {
    fn(0);
  } catch (...) {
    first_error = std::current_exception();
  }
  // Join every future before any rethrow: a still-queued task references
  // fn and the caller's stack, so unwinding past it would hand a worker
  // dangling state. The first exception (caller's partition first, then
  // ascending index) wins; later ones are swallowed.
  for (std::future<void>& future : futures) {
    try {
      future.get();
    } catch (...) {
      if (first_error == nullptr) first_error = std::current_exception();
    }
  }
  if (first_error != nullptr) std::rethrow_exception(first_error);
}

}  // namespace elsm::common
