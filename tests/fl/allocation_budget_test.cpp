// Allocation budget: heap allocations per steady-state federated round and
// peak heap bytes, at 1 and 4 worker threads.
//
// This translation unit replaces the global operator new/delete, so every
// allocation in the test process is counted (it has its own executable;
// no other test sees the override). The workload is the geometry of
// micro_kernels' BM_RoundThroughput: CNN, 8 clients x 5 iterations,
// batch 16, 800/32 samples, FedAvg, 3 warm-up rounds and 30 measured ones.
//
// Each ceiling is a recorded baseline plus 10%: 1241.1 / 1255.6 allocations
// per round and 8 245 072 / 11 330 520 peak bytes at 1 / 4 workers (the
// 4-worker peak is the largest of five runs). Repeat runs of one build
// agree exactly on the counts and to within 0.4% on the 4-worker peak, so
// the margin is room for code changes, not for noise. Sanitizer runtimes
// allocate on their own account, so the bounds are skipped in sanitizer
// builds.
#include <gtest/gtest.h>
#include <malloc.h>  // malloc_usable_size (glibc)

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>

#include "fl/experiment.hpp"
#include "fl/scheme.hpp"

namespace {

std::atomic<std::uint64_t> g_allocs{0};
std::atomic<std::int64_t> g_current_bytes{0};
std::atomic<std::int64_t> g_peak_bytes{0};

void note_alloc(void* p) {
  if (p == nullptr) return;
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  const auto sz = static_cast<std::int64_t>(malloc_usable_size(p));
  const std::int64_t cur =
      g_current_bytes.fetch_add(sz, std::memory_order_relaxed) + sz;
  std::int64_t peak = g_peak_bytes.load(std::memory_order_relaxed);
  while (cur > peak &&
         !g_peak_bytes.compare_exchange_weak(peak, cur,
                                             std::memory_order_relaxed)) {
  }
}

void* counted_alloc(std::size_t size) {
  void* p = std::malloc(size == 0 ? 1 : size);
  note_alloc(p);
  return p;
}

void* counted_aligned_alloc(std::size_t size, std::size_t align) {
  void* p = nullptr;
  if (posix_memalign(&p, align, size == 0 ? align : size) != 0) return nullptr;
  note_alloc(p);
  return p;
}

void counted_free(void* p) {
  if (p == nullptr) return;
  g_current_bytes.fetch_sub(static_cast<std::int64_t>(malloc_usable_size(p)),
                            std::memory_order_relaxed);
  std::free(p);
}

}  // namespace

// The standard's default array and nothrow forms all forward to these, so
// replacing them counts every allocation.
void* operator new(std::size_t size) {
  void* p = counted_alloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new(std::size_t size, std::align_val_t align) {
  void* p = counted_aligned_alloc(size, static_cast<std::size_t>(align));
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void operator delete(void* p) noexcept { counted_free(p); }
void operator delete(void* p, std::align_val_t) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  counted_free(p);
}

namespace fedca {
namespace {

struct Budget {
  std::size_t workers;
  double max_allocs_per_round;
  std::int64_t max_peak_bytes;
};

void expect_within_budget(const Budget& budget) {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  GTEST_SKIP() << "sanitizer runtimes allocate on their own account; the "
                  "allocation budget holds for uninstrumented builds only";
#endif
  // Peak heap is measured above what was live when the test started, so
  // the test framework's own bookkeeping is not charged to the workload.
  const std::int64_t base = g_current_bytes.load(std::memory_order_relaxed);
  g_peak_bytes.store(base, std::memory_order_relaxed);

  fl::ExperimentOptions options;  // analyze:waive(scenario-hardcode)
  options.model = nn::ModelKind::kCnn;
  options.num_clients = 8;
  options.local_iterations = 5;
  options.batch_size = 16;
  options.train_samples = 800;
  options.test_samples = 32;
  options.seed = 21;
  options.worker_threads = budget.workers;
  fl::FedAvgScheme scheme;
  fl::ExperimentSetup setup = fl::make_setup(options, scheme);

  // Warm-up fills the replica free lists, the loader scratch and the
  // per-thread kernel scratch, so the measured window is steady state.
  constexpr std::size_t kWarmup = 3;
  constexpr std::size_t kRounds = 30;
  for (std::size_t r = 0; r < kWarmup; ++r) setup.engine->run_round();
  const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
  for (std::size_t r = 0; r < kRounds; ++r) setup.engine->run_round();
  const std::uint64_t after = g_allocs.load(std::memory_order_relaxed);

  const double allocs_per_round =
      static_cast<double>(after - before) / static_cast<double>(kRounds);
  const std::int64_t peak = g_peak_bytes.load(std::memory_order_relaxed) - base;
  ::testing::Test::RecordProperty("allocs_per_round", std::to_string(allocs_per_round));
  ::testing::Test::RecordProperty("peak_bytes", std::to_string(peak));
  EXPECT_LE(allocs_per_round, budget.max_allocs_per_round);
  EXPECT_LE(peak, budget.max_peak_bytes);
}

TEST(AllocationBudget, OneWorker) {
  expect_within_budget({1, 1365.2, 9'069'579});
}

TEST(AllocationBudget, FourWorkers) {
  expect_within_budget({4, 1381.2, 12'463'572});
}

}  // namespace
}  // namespace fedca
