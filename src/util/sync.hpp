// Annotated synchronization primitives for the thread-safety annotations.
//
// These thin wrappers add the annotations (and nothing else): Mutex wraps
// std::mutex, MutexLock replaces std::lock_guard, and CondVar replaces
// std::condition_variable with an explicit REQUIRES(mutex) wait. Every
// lock-holding subsystem in src/ uses these types, and fedca_analyze reads
// their scopes: a guarded member touched, or wait() called, without its
// mutex held is a `guarded-access` finding. They compile to exactly the
// std:: primitives they wrap.
#pragma once

#include <condition_variable>
#include <mutex>

#include "util/thread_annotations.hpp"

namespace fedca::util {

class FEDCA_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() FEDCA_ACQUIRE() { mu_.lock(); }
  void unlock() FEDCA_RELEASE() { mu_.unlock(); }
  bool try_lock() FEDCA_TRY_ACQUIRE(true) { return mu_.try_lock(); }

 private:
  friend class CondVar;
  std::mutex mu_;
};

// RAII scope lock (the std::lock_guard of this layer).
class FEDCA_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) FEDCA_ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  ~MutexLock() FEDCA_RELEASE() { mu_.unlock(); }
  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

// Condition variable bound to Mutex. wait() REQUIRES the mutex: the caller
// holds it on entry and on return, exactly like std::condition_variable —
// but the requirement is now checked by fedca_analyze. Predicate re-checks
// stay in the caller (a plain while loop), which keeps guarded-member
// reads inside the locked scope instead of inside a lambda, whose body
// holds no lock.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void wait(Mutex& mu) FEDCA_REQUIRES(mu) {
    // Adopt the already-held std::mutex for the duration of the wait and
    // release it back to the caller's MutexLock afterwards.
    std::unique_lock<std::mutex> lk(mu.mu_, std::adopt_lock);
    cv_.wait(lk);
    lk.release();
  }

  void notify_one() noexcept { cv_.notify_one(); }
  void notify_all() noexcept { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace fedca::util
