#include "src/common/thread_pool.h"

#include <algorithm>
#include <cassert>
#include <memory>

namespace alaya {

ThreadPool::ThreadPool(size_t num_threads) {
  if (num_threads == 0) {
    num_threads = std::max<size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::unique_lock<std::mutex> lk(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    std::unique_lock<std::mutex> lk(mu_);
    queue_.push_back(std::move(task));
    ++in_flight_;
  }
  cv_.notify_one();
}

void ThreadPool::Wait() {
  std::unique_lock<std::mutex> lk(mu_);
  idle_cv_.wait(lk, [this] { return in_flight_ == 0; });
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lk(mu_);
      cv_.wait(lk, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) {
        if (stop_) return;
        continue;
      }
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
    {
      std::unique_lock<std::mutex> lk(mu_);
      if (--in_flight_ == 0) idle_cv_.notify_all();
    }
  }
}

namespace {

// Shared state of one ParallelFor call. Heap-allocated and reference-counted
// because helper tasks may still be queued (and never claim an index) after
// the caller has returned; they must find live atomics, not a dead stack frame.
struct ParallelForState {
  std::atomic<size_t> next;
  std::atomic<size_t> done{0};
  size_t end = 0;
  size_t total = 0;
  const std::function<void(size_t)>* fn = nullptr;  ///< Valid until done == total.
  std::mutex mu;
  std::condition_variable cv;

  /// Claims and runs one index at a time until the range is exhausted, then
  /// credits its count to `done`; whoever completes the range signals cv.
  void Run() {
    size_t ran = 0;
    for (size_t i = next.fetch_add(1); i < end; i = next.fetch_add(1)) {
      (*fn)(i);
      ++ran;
    }
    if (ran > 0 && done.fetch_add(ran) + ran == total) {
      std::unique_lock<std::mutex> lk(mu);
      cv.notify_all();
    }
  }
};

}  // namespace

void ThreadPool::ParallelFor(size_t begin, size_t end,
                             const std::function<void(size_t)>& fn, size_t min_grain) {
  if (begin >= end) return;
  const size_t n = end - begin;
  if (n <= min_grain) {
    for (size_t i = begin; i < end; ++i) fn(i);
    return;
  }
  auto state = std::make_shared<ParallelForState>();
  state->next.store(begin);
  state->end = end;
  state->total = n;
  state->fn = &fn;
  // At most one helper per worker, and the caller is itself a participant: a
  // pool of N workers works the range N+1 wide. Indices are claimed one at a
  // time, so items of uneven cost (per-head DIPRS searches) balance across the
  // participants. The caller claiming work (instead of sleeping on a condvar)
  // is also what makes nested ParallelFor calls — e.g. an index build issued
  // from inside a serving-engine pool task — deadlock-free: every caller is
  // guaranteed forward progress on its own work even when all workers are busy.
  const size_t helpers = std::min(n - 1, num_threads());
  for (size_t h = 0; h < helpers; ++h) {
    Submit([state] { state->Run(); });
  }
  state->Run();
  std::unique_lock<std::mutex> lk(state->mu);
  state->cv.wait(lk, [&] { return state->done.load() == state->total; });
}

ThreadPool& ThreadPool::Global() {
  static ThreadPool pool(0);
  return pool;
}

}  // namespace alaya
