// Reads a FEDCA_GUARDED_BY member without holding its mutex.
#include "a/sync.hpp"

namespace fedca::sa_fixture {

class Unguarded {
 public:
  int read() const {
    return value_;  // expect: guarded-access
  }

 private:
  mutable util::Mutex mu_;
  int value_ FEDCA_GUARDED_BY(mu_) = 0;
};

int negative_fixture_anchor() {
  Unguarded u;
  return u.read();
}

}  // namespace fedca::sa_fixture
