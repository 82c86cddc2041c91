// Fixed-size thread pool with a dynamically scheduled parallel loop.
//
// The round engine trains many simulated clients per round; their local SGD
// passes are independent, so on multi-core hosts we farm them out here.
// Each fl::ClientTrainer owns the one pool its run uses, so no pool thread
// outlives the run that started it.
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
  // Starts `workers` threads; size it with resolve_workers().
  explicit ThreadPool(std::size_t workers);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t worker_count() const { return threads_.size(); }

  // Runs body(i) for i in [0, n) across the pool and blocks until all are
  // done. Indices are handed out through an atomic counter, so uneven work
  // (clients whose local rounds differ wildly in cost) never serializes
  // behind a fixed chunk. Determinism contract: callers must write results
  // into pre-sized per-index slots; scheduling then cannot affect output.
  // Every index runs even if an earlier one throws, and the exception of
  // the *lowest* throwing index is rethrown, so error behaviour is
  // schedule-independent too. A pool of at most one worker (or n <= 1)
  // runs inline on the calling thread in index order.
  void parallel_for_dynamic(std::size_t n, const std::function<void(std::size_t)>& body);

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

 private:
  // Enqueues one task; the future delivers its completion or exception.
  std::future<void> submit(std::function<void()> task);
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
