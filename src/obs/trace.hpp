// Span tracer — Chrome trace_event JSON over two clock domains.
//
// The FedCA harness interleaves two notions of time:
//   * the simulator's *virtual* clock (download/compute/upload/aggregation
//     in virtual seconds — what the paper's figures are drawn in), and
//   * the host's *wall* clock (real SGD steps, conv2d/LSTM kernels,
//     profiler anchor recording — what actually costs CPU).
// The tracer keeps them distinct by construction: every virtual process
// gets its own pid (allocated per engine: one for the server, one per
// client), while all wall-clock spans live in the reserved pid
// kWallClockPid with per-thread tids. Events carry a "virtual"/"wall"
// category so either domain can be filtered out in the viewer.
//
// Output is the Chrome trace_event JSON array format: load the file in
// chrome://tracing or https://ui.perfetto.dev. tools/check_trace.py
// validates emitted files.
//
// A collector exists only while tracing is armed: an obs::Session
// (obs/session.hpp) builds one when its trace path is set, and
// instrumented code finds it through obs::current_trace(), which is null
// when tracing is off.
//
// Every record_* call builds its TraceEvent and appends it, under the
// collector's mutex, to the one event list that every read API
// (event_count, snapshot_events, write_chrome_json, save) reads. Nothing
// is dropped or cut: names and args are kept whole. The traced round loop
// records tens of thousands of events per second at most, so one lock per
// event is cheap enough to leave on (tools/bench_obs.py gates it).
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "util/sync.hpp"
#include "util/thread_annotations.hpp"

namespace fedca::obs {

enum class Clock { kVirtual, kWall };

// pid reserved for the wall-clock domain ("host" process).
inline constexpr std::uint32_t kWallClockPid = 0;

using TraceArgs = std::vector<std::pair<std::string, std::string>>;

struct TraceEvent {
  std::string name;
  char phase = 'X';     // 'X' complete span, 'i' instant
  Clock clock = Clock::kVirtual;
  double ts_us = 0.0;   // microseconds in the event's clock domain
  double dur_us = 0.0;  // 'X' only
  std::uint32_t pid = 0;
  std::uint32_t tid = 0;
  TraceArgs args;
};

struct TraceOptions {
  // Also record per-kernel wall spans (conv2d/LSTM forward/backward, SGD
  // steps): they multiply event counts by the batch loop, so they are
  // opt-in (FEDCA_TRACE_DETAIL=kernels).
  bool kernel_detail = false;
};

class TraceCollector {
 public:
  explicit TraceCollector(TraceOptions options = {});
  TraceCollector(const TraceCollector&) = delete;
  TraceCollector& operator=(const TraceCollector&) = delete;

  bool kernel_detail() const { return kernel_detail_; }

  // Reserves `n` consecutive pids for one engine's virtual processes
  // (server + clients). Wall pid 0 is never handed out.
  std::uint32_t allocate_process_ids(std::uint32_t n);
  void set_process_name(std::uint32_t pid, std::string name);

  // Spans/instants on the virtual clock, in virtual seconds.
  void record_span(std::uint32_t pid, std::string name, double start_seconds,
                   double end_seconds, TraceArgs args = {}, std::uint32_t tid = 0);
  void record_instant(std::uint32_t pid, std::string name, double t_seconds,
                      TraceArgs args = {}, std::uint32_t tid = 0);
  // Wall-clock span, in seconds since the collector's wall epoch,
  // attributed to pid kWallClockPid and the calling thread's tid.
  void record_wall_span(std::string name, double start_seconds, double end_seconds,
                        TraceArgs args = {});

  // Seconds since the collector was built (steady clock).
  double wall_now_seconds() const;

  std::size_t event_count() const;
  std::vector<TraceEvent> snapshot_events() const;
  std::map<std::uint32_t, std::string> process_names() const;

  // Serializes metadata + events (stable-sorted by pid, tid, ts) as a
  // Chrome trace JSON array.
  void write_chrome_json(std::ostream& os) const;
  // Writes the whole trace to `path`; throws std::runtime_error on I/O
  // failure.
  void save(const std::string& path) const;

 private:
  void append(TraceEvent event);

  const bool kernel_detail_;
  const std::chrono::steady_clock::time_point wall_epoch_;
  mutable util::Mutex mutex_;
  std::vector<TraceEvent> events_ FEDCA_GUARDED_BY(mutex_);
  std::map<std::uint32_t, std::string> process_names_ FEDCA_GUARDED_BY(mutex_);
  std::uint32_t next_pid_ FEDCA_GUARDED_BY(mutex_) = 1;
};

}  // namespace fedca::obs
