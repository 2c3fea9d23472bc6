#include "src/common/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <thread>
#include <vector>

namespace alaya {
namespace {

TEST(ThreadPoolTest, SubmitAndWait) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&] { count.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPoolTest, ParallelForCoversRange) {
  ThreadPool pool(8);
  std::vector<std::atomic<int>> hits(1000);
  pool.ParallelFor(0, 1000, [&](size_t i) { hits[i].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ParallelForEmptyRange) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  pool.ParallelFor(5, 5, [&](size_t) { count.fetch_add(1); });
  pool.ParallelFor(7, 3, [&](size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 0);
}

TEST(ThreadPoolTest, ParallelForSingleElement) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  pool.ParallelFor(3, 4, [&](size_t i) {
    EXPECT_EQ(i, 3u);
    count.fetch_add(1);
  });
  EXPECT_EQ(count.load(), 1);
}

TEST(ThreadPoolTest, ParallelForComputesCorrectSum) {
  ThreadPool pool(8);
  const size_t n = 100000;
  std::vector<uint64_t> out(n);
  pool.ParallelFor(0, n, [&](size_t i) { out[i] = i * 2; });
  uint64_t sum = std::accumulate(out.begin(), out.end(), uint64_t{0});
  EXPECT_EQ(sum, uint64_t(n) * (n - 1));
}

TEST(ThreadPoolTest, NestedSubmitFromTask) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  pool.Submit([&] {
    for (int i = 0; i < 10; ++i) {
      pool.Submit([&] { count.fetch_add(1); });
    }
  });
  pool.Wait();
  EXPECT_EQ(count.load(), 10);
}

TEST(ThreadPoolTest, NestedParallelForFromTasks) {
  // Every worker issues its own ParallelFor: the caller-participates scheme
  // must make progress even when all workers are simultaneously inside one
  // (the serving engine nests index builds inside pool tasks).
  ThreadPool pool(4);
  std::atomic<int> total{0};
  for (int t = 0; t < 8; ++t) {
    pool.Submit([&] {
      pool.ParallelFor(0, 100, [&](size_t) { total.fetch_add(1); });
    });
  }
  pool.Wait();
  EXPECT_EQ(total.load(), 800);
}

TEST(ThreadPoolTest, OneWorkerPoolSharesRangeWithCaller) {
  // A pool of N workers works a range N+1 wide: with one worker, the caller
  // and the worker must each run one of two items at the same time. Each body
  // waits (bounded) for the other to start, so a caller that ran the range
  // alone would time out with only one body started.
  ThreadPool pool(1);
  std::atomic<int> started{0};
  std::thread::id ran_on[2];
  bool met[2] = {false, false};
  pool.ParallelFor(0, 2, [&](size_t i) {
    ran_on[i] = std::this_thread::get_id();
    started.fetch_add(1);
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (started.load() < 2 && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::yield();
    }
    met[i] = started.load() == 2;
  });
  EXPECT_TRUE(met[0]);
  EXPECT_TRUE(met[1]);
  EXPECT_NE(ran_on[0], ran_on[1]);
}

TEST(ThreadPoolTest, OneWorkerNestedParallelFor) {
  // The sole worker issues a ParallelFor from inside its own task: its helper
  // can only queue behind that task, so the caller must finish the range.
  ThreadPool pool(1);
  std::atomic<int> total{0};
  pool.Submit([&] {
    pool.ParallelFor(0, 100, [&](size_t) { total.fetch_add(1); });
  });
  pool.Wait();
  EXPECT_EQ(total.load(), 100);
}

TEST(ThreadPoolTest, GlobalPoolIsUsable) {
  std::atomic<int> count{0};
  ThreadPool::Global().ParallelFor(0, 50, [&](size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 50);
  EXPECT_GE(ThreadPool::Global().num_threads(), 1u);
}

TEST(ThreadPoolTest, DestructorDrainsTasks) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 20; ++i) {
      pool.Submit([&] { count.fetch_add(1); });
    }
    pool.Wait();
  }
  EXPECT_EQ(count.load(), 20);
}

}  // namespace
}  // namespace alaya
