#include "a/shared.hpp"

namespace fixture {
int check() { return shared(); }
}  // namespace fixture
