#include "util/thread_registry.hpp"

#include <atomic>

namespace fedca::util {

namespace {

std::atomic<std::uint32_t> g_next_id{1};

}  // namespace

std::uint32_t ThreadRegistry::current_id() {
  thread_local const std::uint32_t id =
      g_next_id.fetch_add(1, std::memory_order_relaxed);
  return id;
}

}  // namespace fedca::util
