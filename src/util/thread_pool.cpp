#include "util/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <exception>

#include "util/thread_registry.hpp"

namespace fedca::util {

namespace {

// Task-latency observer timestamps. The observer measures *real*
// queue/run latency (threadpool.queue_seconds / run_seconds), which is
// host-clock work by definition — a sanctioned exception to the
// virtual-clock discipline the wall-clock analyzer rule enforces.
double observer_now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())  // analyze:waive(wall-clock)
      .count();
}

}  // namespace

ThreadPool::ThreadPool(std::size_t workers) {
  if (workers == 0) {
    workers = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  threads_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    threads_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& t : threads_) t.join();
}

std::future<void> ThreadPool::submit(std::function<void()> task) {
  std::shared_ptr<const TaskObserver> observer;
  {
    MutexLock lock(mutex_);
    observer = observer_;
  }
  if (observer) {
    const double enqueued = observer_now_seconds();
    task = [observer, enqueued, inner = std::move(task)] {
      const double started = observer_now_seconds();
      const double queued = started - enqueued;
      try {
        inner();
      } catch (...) {
        (*observer)(queued, observer_now_seconds() - started);
        throw;
      }
      (*observer)(queued, observer_now_seconds() - started);
    };
  }
  std::packaged_task<void()> packaged(std::move(task));
  std::future<void> fut = packaged.get_future();
  {
    MutexLock lock(mutex_);
    queue_.push_back(std::move(packaged));
  }
  cv_.notify_one();
  return fut;
}

void ThreadPool::set_task_observer(TaskObserver observer) {
  MutexLock lock(mutex_);
  observer_ = observer ? std::make_shared<const TaskObserver>(std::move(observer))
                       : nullptr;
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& body) {
  if (n == 0) return;
  const std::size_t workers = worker_count();
  if (workers <= 1 || n == 1) {
    for (std::size_t i = 0; i < n; ++i) body(i);
    return;
  }
  const std::size_t chunks = std::min(n, workers * 4);
  std::vector<std::future<void>> futures;
  futures.reserve(chunks);
  for (std::size_t c = 0; c < chunks; ++c) {
    const std::size_t begin = n * c / chunks;
    const std::size_t end = n * (c + 1) / chunks;
    futures.push_back(submit([&body, begin, end] {
      for (std::size_t i = begin; i < end; ++i) body(i);
    }));
  }
  std::exception_ptr first_error;
  for (auto& fut : futures) {
    try {
      fut.get();
    } catch (...) {
      if (!first_error) first_error = std::current_exception();
    }
  }
  if (first_error) std::rethrow_exception(first_error);
}

void ThreadPool::parallel_for_dynamic(std::size_t n,
                                      const std::function<void(std::size_t)>& body,
                                      std::size_t max_workers) {
  if (n == 0) return;
  std::size_t cap = max_workers == 0 ? worker_count() : std::min(max_workers, worker_count());
  if (cap <= 1 || n == 1) {
    for (std::size_t i = 0; i < n; ++i) body(i);
    return;
  }
  struct Shared {
    std::atomic<std::size_t> next{0};
    Mutex error_mutex;
    std::size_t error_index FEDCA_GUARDED_BY(error_mutex);
    std::exception_ptr error FEDCA_GUARDED_BY(error_mutex);
    Shared(std::size_t n) : error_index(n) {}
  };
  Shared shared(n);
  const std::size_t pumps = std::min(cap, n);
  std::vector<std::future<void>> futures;
  futures.reserve(pumps);
  for (std::size_t p = 0; p < pumps; ++p) {
    futures.push_back(submit([&shared, &body, n] {
      for (;;) {
        const std::size_t i = shared.next.fetch_add(1, std::memory_order_relaxed);
        if (i >= n) return;
        try {
          body(i);
        } catch (...) {
          MutexLock lock(shared.error_mutex);
          if (i < shared.error_index) {
            shared.error_index = i;
            shared.error = std::current_exception();
          }
        }
      }
    }));
  }
  for (auto& fut : futures) fut.get();
  // All workers have joined, but take the lock anyway: it costs nothing
  // here and keeps the guarded-access discipline exception-free.
  std::exception_ptr error;
  {
    MutexLock lock(shared.error_mutex);
    error = shared.error;
  }
  if (error) std::rethrow_exception(error);
}

std::size_t ThreadPool::env_workers() {
  const char* env = std::getenv("FEDCA_THREADS");
  if (env == nullptr || *env == '\0') return 0;
  std::size_t value = 0;
  for (const char* p = env; *p != '\0'; ++p) {
    if (*p < '0' || *p > '9') return 0;
    value = value * 10 + static_cast<std::size_t>(*p - '0');
    if (value > kMaxWorkers) return 0;
  }
  return value;
}

std::size_t ThreadPool::resolve_workers(std::size_t requested) {
  if (requested != 0) return requested;
  if (const std::size_t env = env_workers()) return env;
  return std::max<std::size_t>(1, std::thread::hardware_concurrency());
}

ThreadPool& ThreadPool::shared() {
  static ThreadPool pool(resolve_workers(0));
  return pool;
}

void ThreadPool::worker_loop() {
  // Take a thread-registry id up front: the flight recorder indexes its
  // per-thread rings by these ids, so pool workers get stable, low ids
  // before the first task ever records an event.
  ThreadRegistry::current_id();
  for (;;) {
    std::packaged_task<void()> task;
    {
      MutexLock lock(mutex_);
      // Plain predicate loop (not a lambda handed to the cv): the guarded
      // reads of stop_/queue_ stay inside this annotated scope.
      while (!stop_ && queue_.empty()) cv_.wait(mutex_);
      if (stop_ && queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

}  // namespace fedca::util
