// The only caller of a/probe.hpp outside its own .cpp.
#include "a/probe.hpp"

namespace fixture {
int check() { return probe(); }
}  // namespace fixture
