// parallel_for_dynamic + resolve_workers: the scheduling primitives the
// parallel round engines rely on.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "util/thread_pool.hpp"

namespace fedca::util {
namespace {

TEST(ParallelForDynamic, RunsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(101);
  for (auto& h : hits) h.store(0);
  pool.parallel_for_dynamic(hits.size(), [&](std::size_t i) { ++hits[i]; });
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ParallelForDynamic, ResultsLandInPreSizedSlots) {
  ThreadPool pool(3);
  std::vector<std::size_t> out(257, 0);
  pool.parallel_for_dynamic(out.size(), [&](std::size_t i) { out[i] = i * i; });
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], i * i);
}

TEST(ParallelForDynamic, LowestThrowingIndexWinsAndAllIndicesRun) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(40);
  for (auto& h : hits) h.store(0);
  try {
    pool.parallel_for_dynamic(hits.size(), [&](std::size_t i) {
      ++hits[i];
      if (i == 7 || i == 23) {
        throw std::runtime_error("boom " + std::to_string(i));
      }
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "boom 7");  // lowest index, schedule-independent
  }
  // Every index still ran despite the failures.
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ParallelForDynamic, InlineWhenCapIsOne) {
  // A 1-worker pool runs inline on the calling thread, in index order.
  ThreadPool single(1);
  const auto main_id = std::this_thread::get_id();
  std::vector<int> order;
  std::vector<std::thread::id> seen;
  single.parallel_for_dynamic(5, [&](std::size_t i) {
    order.push_back(static_cast<int>(i));
    seen.push_back(std::this_thread::get_id());
  });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
  for (const auto& id : seen) EXPECT_EQ(id, main_id);
}

TEST(ParallelForDynamic, ZeroAndSingleItemWork) {
  ThreadPool pool(2);
  int calls = 0;
  pool.parallel_for_dynamic(0, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  pool.parallel_for_dynamic(1, [&](std::size_t i) { calls += static_cast<int>(i) + 1; });
  EXPECT_EQ(calls, 1);
}

TEST(ResolveWorkers, ExplicitRequestWins) {
  EXPECT_EQ(ThreadPool::resolve_workers(3), 3u);
  EXPECT_EQ(ThreadPool::resolve_workers(1), 1u);
}

TEST(ResolveWorkers, EnvVariableFillsDefault) {
  ::unsetenv("FEDCA_THREADS");
  const std::size_t fallback = ThreadPool::resolve_workers(0);
  EXPECT_GE(fallback, 1u);
  ::setenv("FEDCA_THREADS", "5", 1);
  EXPECT_EQ(ThreadPool::resolve_workers(0), 5u);
  // Explicit request still beats the env var.
  EXPECT_EQ(ThreadPool::resolve_workers(2), 2u);
  ::setenv("FEDCA_THREADS", "4096", 1);
  EXPECT_EQ(ThreadPool::resolve_workers(0), 4096u);
  // Anything but a plain decimal in [1, 4096] falls through to hardware
  // concurrency: "-1" must not wrap to a huge unsigned count.
  for (const char* bad : {"banana", "0", "-1", "5000", "+3", " 3", "3x", ""}) {
    ::setenv("FEDCA_THREADS", bad, 1);
    EXPECT_EQ(ThreadPool::env_workers(), 0u) << "FEDCA_THREADS=" << bad;
    EXPECT_EQ(ThreadPool::resolve_workers(0), fallback) << "FEDCA_THREADS=" << bad;
  }
  ::unsetenv("FEDCA_THREADS");
  EXPECT_EQ(ThreadPool::resolve_workers(0), fallback);
}

}  // namespace
}  // namespace fedca::util
