// Stand-in for src/util/sync.hpp: the declarations the guarded-access rule
// reads. CondVar::wait's FEDCA_REQUIRES names its parameter, so a call
// requires whatever mutex the caller passes.
#pragma once

namespace fedca::util {

class Mutex {
 public:
  void lock();
  void unlock();
  bool try_lock();
};

class MutexLock {
 public:
  explicit MutexLock(Mutex& mu);
  ~MutexLock();
};

class CondVar {
 public:
  void wait(Mutex& mu) FEDCA_REQUIRES(mu);
  void notify_one();
};

}  // namespace fedca::util
