#include "a/shared.hpp"

namespace fixture {
int shared() { return 2; }
}  // namespace fixture
