// Exit-hook fixtures: every spelling of a process-exit hook.
#include <cstdlib>

namespace fixture {

void flush_everything() {}

struct Registry {
  int atexit(int v) { return v; }
};

void install_hooks(Registry& registry) {
  std::atexit(flush_everything);        // expect: exit-hook
  atexit(flush_everything);             // expect: exit-hook
  std::at_quick_exit(flush_everything);  // expect: exit-hook
  registry.atexit(3);  // a member named atexit is not the libc hook
}

}  // namespace fixture
