// Disciplined locking that must draw no guarded-access finding: every
// guarded access under a MutexLock, a FEDCA_REQUIRES helper called with
// the lock held, and a CondVar wait in a plain predicate loop.
#include <cstddef>
#include <deque>

#include "util/sync.hpp"
#include "util/thread_annotations.hpp"

namespace fedca::sa_fixture {

class BoundedCounter {
 public:
  void add(int v) {
    util::MutexLock lock(mu_);
    add_locked(v);
  }

  int value() const {
    util::MutexLock lock(mu_);
    return value_;
  }

  // Producer/consumer pair exercising the CondVar REQUIRES contract.
  void push(int v) {
    util::MutexLock lock(mu_);
    queue_.push_back(v);
    cv_.notify_one();
  }

  int pop() {
    util::MutexLock lock(mu_);
    while (queue_.empty()) cv_.wait(mu_);
    const int v = queue_.front();
    queue_.pop_front();
    return v;
  }

 private:
  void add_locked(int v) FEDCA_REQUIRES(mu_) { value_ += v; }

  mutable util::Mutex mu_;
  util::CondVar cv_;
  int value_ FEDCA_GUARDED_BY(mu_) = 0;
  std::deque<int> queue_ FEDCA_GUARDED_BY(mu_);
};

}  // namespace fedca::sa_fixture
