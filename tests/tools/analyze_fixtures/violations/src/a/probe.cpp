#include "a/probe.hpp"

namespace fixture {
int probe() { return 1; }
}  // namespace fixture
