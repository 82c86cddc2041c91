// guarded-access violations: one finding each.
#include <functional>

#include "a/sync.hpp"

namespace fixture {

class Ledger {
 public:
  // The write lands after the MutexLock's scope closed.
  void late_write(int v) {
    {
      fedca::util::MutexLock lock(mu_);
      total_ += v;
    }
    total_ = 0;  // expect: guarded-access
  }

  // A lambda written under the lock runs later, without it.
  std::function<int()> deferred() {
    fedca::util::MutexLock lock(mu_);
    return [this] { return total_; };  // expect: guarded-access
  }

  // The REQUIRES helper's own body is fine; its caller holds nothing.
  void bump() {
    bump_locked();  // expect: guarded-access
  }

  // CondVar::wait requires the mutex it is handed.
  void block() {
    cv_.wait(mu_);  // expect: guarded-access
  }

  // A body after a trailing return type is checked too.
  auto trailing() const -> int {
    return total_;  // expect: guarded-access
  }

  // So is an operator's body.
  Ledger& operator+=(int v) {
    total_ += v;  // expect: guarded-access
    return *this;
  }

 private:
  void bump_locked() FEDCA_REQUIRES(mu_) { ++total_; }

  fedca::util::Mutex mu_;
  fedca::util::CondVar cv_;
  int total_ FEDCA_GUARDED_BY(mu_) = 0;
};

}  // namespace fixture
