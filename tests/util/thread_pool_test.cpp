// ThreadPool correctness: task completion, exceptions, the shared pool.
// parallel_for_dynamic has its own suite (thread_pool_dynamic_test.cpp).
#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <vector>

#include "util/thread_pool.hpp"

namespace fedca {
namespace {

TEST(ThreadPool, RunsSubmittedTasks) {
  util::ThreadPool pool(2);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 32; ++i) {
    futures.push_back(pool.submit([&counter] { counter.fetch_add(1); }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(counter.load(), 32);
}

TEST(ThreadPool, PropagatesExceptions) {
  util::ThreadPool pool(2);
  auto f = pool.submit([] { throw std::runtime_error("boom"); });
  EXPECT_THROW(f.get(), std::runtime_error);
}

TEST(ThreadPool, SharedPoolIsSingleton) {
  EXPECT_EQ(&util::ThreadPool::shared(), &util::ThreadPool::shared());
  EXPECT_GE(util::ThreadPool::shared().worker_count(), 1u);
}

}  // namespace
}  // namespace fedca
