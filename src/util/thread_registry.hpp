// Process-wide thread registry — stable, small, dense thread ids.
//
// std::thread::id is opaque and unordered; the observability layer needs a
// small integer per thread so it can (a) index the flight recorder's
// fixed array of per-thread ring buffers in O(1) without hashing and
// (b) emit stable Chrome-trace tids for wall-clock spans. Ids are handed
// out lazily, first-come-first-served, starting at 1, and never reused:
// a thread keeps its id for the life of the process. ThreadPool workers
// take their id as soon as they start, so pool threads occupy the low,
// predictable end of the id space.
//
// current_id() after the first call is a thread-local read — no locks, no
// atomics — which keeps it safe on the recorder's hot path.
#pragma once

#include <cstdint>

namespace fedca::util {

class ThreadRegistry {
 public:
  // Upper bound on distinct registered threads; ids beyond it are still
  // handed out (monotonically) but consumers with fixed per-thread slots
  // (the recorder) treat them as overflow. Far above any real worker
  // count here, tiny as an array of pointers.
  static constexpr std::uint32_t kMaxTrackedThreads = 256;

  // Stable id (>= 1) of the calling thread, assigned on first call.
  static std::uint32_t current_id();
};

}  // namespace fedca::util
