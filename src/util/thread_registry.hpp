// Process-wide thread registry — stable, small thread ids.
//
// std::thread::id is opaque and unordered; the tracer needs a small
// integer per thread to emit stable Chrome-trace tids for wall-clock
// spans. Ids are handed out lazily, on a thread's first call,
// first-come-first-served, starting at 1, and never reused: a thread keeps
// its id for its life, and each run's pool threads take fresh ids. Nothing
// bounds the number of ids.
//
// current_id() after the first call is a thread-local read — no locks, no
// atomics.
#pragma once

#include <cstdint>

namespace fedca::util {

class ThreadRegistry {
 public:
  // Stable id (>= 1) of the calling thread, assigned on first call.
  static std::uint32_t current_id();
};

}  // namespace fedca::util
