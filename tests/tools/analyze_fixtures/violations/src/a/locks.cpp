// Lock-order fixtures: an A->B / B->A inversion across two functions, the
// same through a FEDCA_REQUIRES body, and re-acquisition of a mutex the
// scope already holds.
#include "a/base.hpp"

namespace fixture {

struct MutexLock {
  explicit MutexLock(int&) {}
};
using Mutex = int;

struct Inversion {
  Mutex mu_a;
  Mutex mu_b;

  void forward() {
    MutexLock first(mu_a);
    MutexLock second(mu_b);
  }

  void backward() {
    MutexLock first(mu_b);
    MutexLock second(mu_a);  // expect: lock-order
  }

  void reacquire() {
    MutexLock first(mu_a);
    MutexLock again(mu_a);  // expect: lock-order
  }
};

// FEDCA_REQUIRES(mu_d) holds mu_d throughout the body, so taking mu_c
// there inverts forward()'s order.
struct RequiresInversion {
  Mutex mu_c;
  Mutex mu_d;

  void forward() {
    MutexLock first(mu_c);
    MutexLock second(mu_d);
  }

  void backward_locked() FEDCA_REQUIRES(mu_d) {
    MutexLock inner(mu_c);  // expect: lock-order
  }
};

}  // namespace fixture
