// Fixed-size worker pool with a caller-participating ParallelFor helper.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace alaya {

/// A fixed-size thread pool. Tasks are plain std::function<void()>; use Wait()
/// or ParallelFor for synchronization. Destruction drains pending tasks.
class ThreadPool {
 public:
  /// Creates a pool with `num_threads` workers (0 -> hardware concurrency).
  explicit ThreadPool(size_t num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task for asynchronous execution.
  void Submit(std::function<void()> task);

  /// Blocks until all submitted tasks (including ones submitted from within
  /// tasks) have completed.
  void Wait();

  /// Runs fn(i) for i in [begin, end), blocking until done. The caller always
  /// participates: a pool of N workers works the range with N+1 threads (so a
  /// one-worker pool is two wide). Each participant claims one index at a time
  /// from a shared cursor. Runs inline only when end - begin <= min_grain.
  void ParallelFor(size_t begin, size_t end, const std::function<void(size_t)>& fn,
                   size_t min_grain = 1);

  size_t num_threads() const { return workers_.size(); }

  /// Process-wide shared pool (lazily constructed with hardware concurrency).
  static ThreadPool& Global();

 private:
  void WorkerLoop();

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::condition_variable idle_cv_;
  size_t in_flight_ = 0;
  bool stop_ = false;
};

}  // namespace alaya
