// Fixed-size thread pool with a dynamically scheduled parallel loop.
//
// The round engine trains many simulated clients per round; their local SGD
// passes are independent, so on multi-core hosts we farm them out here.
// Determinism note: every unit of work owns its forked Rng stream, so the
// *results* are identical regardless of worker count or interleaving — the
// pool only changes wall-clock time, never experiment output.
#pragma once

#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <thread>
#include <vector>

#include "util/sync.hpp"
#include "util/thread_annotations.hpp"

namespace fedca::util {

class ThreadPool {
 public:
  // `workers` == 0 selects std::thread::hardware_concurrency() (min 1).
  explicit ThreadPool(std::size_t workers = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t worker_count() const { return threads_.size(); }

  // Enqueues one task; returns a future for its completion. Exceptions
  // thrown by the task are delivered through the future.
  std::future<void> submit(std::function<void()> task);

  // Runs body(i) for i in [0, n) across the pool and blocks until all are
  // done. Indices are handed out through an atomic counter, so uneven work
  // (clients whose local rounds differ wildly in cost) never serializes
  // behind a fixed chunk; at most `max_workers` (0 = whole pool) run at
  // once. Determinism contract: callers must write results into pre-sized
  // per-index slots; scheduling then cannot affect output. Every index runs
  // even if an earlier one throws, and the exception of the *lowest*
  // throwing index is rethrown, so error behaviour is schedule-independent
  // too. max_workers == 1 (or a 1-worker pool, or n <= 1) runs inline on
  // the calling thread in index order.
  void parallel_for_dynamic(std::size_t n, const std::function<void(std::size_t)>& body,
                            std::size_t max_workers = 0);

  // Largest worker count a run accepts: the [run] workers key, the
  // workers= override and FEDCA_THREADS share this ceiling.
  static constexpr std::size_t kMaxWorkers = 4096;

  // FEDCA_THREADS when it is a plain decimal in [1, kMaxWorkers]; 0 when
  // it is unset or holds anything else (signs, spaces, "0", garbage).
  static std::size_t env_workers();

  // Resolves a requested worker count: non-zero wins; otherwise
  // env_workers() when non-zero; otherwise hardware concurrency. Always
  // >= 1.
  static std::size_t resolve_workers(std::size_t requested);

  // Process-wide shared pool (lazily constructed, one per process). Sized
  // by resolve_workers(0), i.e. FEDCA_THREADS caps/raises it.
  static ThreadPool& shared();

 private:
  void worker_loop();

  // Immutable after the constructor returns (workers only read their own
  // entry via `this`); not guarded.
  std::vector<std::thread> threads_;
  Mutex mutex_;
  CondVar cv_;
  std::deque<std::packaged_task<void()>> queue_ FEDCA_GUARDED_BY(mutex_);
  bool stop_ FEDCA_GUARDED_BY(mutex_) = false;
};

}  // namespace fedca::util
