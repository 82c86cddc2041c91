#include "a/shared.hpp"

namespace fixture {
int user() { return shared() + 1; }
}  // namespace fixture
