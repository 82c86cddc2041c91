// guarded-access negatives: every shape here is correct and must stay
// silent.
#include <cstddef>
#include <exception>
#include <vector>

#include "util/sync.hpp"

namespace fixture {

using fedca::util::Mutex;
using fedca::util::MutexLock;

// Guarded `counts_` ...
class GuardedHistogram {
 public:
  explicit GuardedHistogram(std::size_t bins) : counts_(bins, 0) {
    counts_.reserve(bins);  // constructor body: not yet shared
  }
  ~GuardedHistogram() { counts_.clear(); }

  void add(std::size_t bin) {
    MutexLock lock(mu_);
    ++counts_[bin];
  }

  // Locked bodies after a trailing return type and of an operator.
  auto total() -> std::size_t {
    MutexLock lock(mu_);
    return counts_.size();
  }
  GuardedHistogram& operator+=(std::size_t bin) {
    MutexLock lock(mu_);
    ++counts_[bin];
    return *this;
  }

  // try_lock on the fall-through path, released by unlock().
  void try_reset() {
    if (!mu_.try_lock()) return;
    counts_.assign(counts_.size(), 0);
    mu_.unlock();
  }

 private:
  Mutex mu_;
  std::vector<int> counts_ FEDCA_GUARDED_BY(mu_);
};

// ... and an unguarded `counts_` of the same name in another class.
class PlainHistogram {
 public:
  void add(std::size_t bin);

 private:
  std::vector<int> counts_;
};

void PlainHistogram::add(std::size_t bin) { ++counts_[bin]; }

// A function-local struct guarded through `shared.`; the bare local
// `error` of the same name as a member is not the member.
void run_all(std::size_t n) {
  struct Shared {
    Mutex error_mutex;
    std::size_t error_index FEDCA_GUARDED_BY(error_mutex);
    std::exception_ptr error FEDCA_GUARDED_BY(error_mutex);
    Shared(std::size_t count) : error_index(count) {}
  };
  Shared shared(n);
  auto record = [&shared](std::size_t i) {
    MutexLock lock(shared.error_mutex);
    if (i < shared.error_index) {
      shared.error_index = i;
      shared.error = std::current_exception();
    }
  };
  record(0);
  std::exception_ptr error;
  {
    MutexLock lock(shared.error_mutex);
    error = shared.error;
  }
  if (error) std::rethrow_exception(error);
}

}  // namespace fixture
