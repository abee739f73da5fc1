// Fixed-size shared worker pool for cross-shard fan-out (ROADMAP "parallel
// cross-shard scan fan-out and batch fan-out"); each common::BackgroundJob
// runs on one too. Tasks are plain
// std::function<void()> jobs pushed onto one FIFO queue; Submit returns a
// future the caller can join on, ParallelFor is the fork-join helper the
// ShardedDb fan-out paths use. A pool of size 0 degrades to inline
// execution on the calling thread — the sequential fallback — so callers
// never need two code paths.
//
// Shutdown is clean: the destructor stops intake, drains every task already
// queued, and joins the workers, so a ShardedDb can hold a pool by
// shared_ptr and die while benches/tests still share it elsewhere.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <future>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace elsm::common {

class ThreadPool {
 public:
  // Spawns `threads` workers; 0 means "no workers": every task runs inline
  // in Submit/ParallelFor on the calling thread.
  explicit ThreadPool(size_t threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t size() const { return workers_.size(); }

  // Enqueues one task (runs it inline when the pool has no workers). The
  // returned future rethrows any task exception on get(). Submit touches no
  // pool state once the task can start, so a caller that has seen the
  // task finish may destroy the pool while the Submit call returns.
  std::future<void> Submit(std::function<void()> fn);

  // Runs fn(0), ..., fn(n-1) and blocks until all complete. With workers
  // the iterations run concurrently (order unspecified; the calling thread
  // runs fn(0) itself instead of idling); without, they run inline in
  // index order. fn must therefore only touch per-index state or
  // synchronize itself. If any iteration throws, ParallelFor still joins
  // every other iteration before rethrowing the first exception — fn and
  // the caller's stack stay valid for the stragglers.
  void ParallelFor(size_t n, const std::function<void(size_t)>& fn);

 private:
  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable cv_;
  std::queue<std::packaged_task<void()>> queue_;
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace elsm::common
