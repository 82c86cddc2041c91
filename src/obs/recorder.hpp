// Lock-free flight recorder — per-thread ring buffers of POD events.
//
// The first-generation tracer serialized every span through one mutex,
// which put a contended lock on the engine hot loop (per-iteration
// `sgd.step` kernel spans from every pool worker). The recorder replaces
// that with one fixed-size single-producer/single-consumer ring buffer
// per thread:
//
//   * producers (any instrumented thread) write a trivially-copyable
//     RecorderEvent into their own ring and publish it with one
//     release-store — no locks, no allocation, no syscalls;
//   * a single collector drains all rings (serialized by a mutex that is
//     never on the producer path) and feeds the events into the existing
//     Chrome-trace / metrics exporters via TraceCollector;
//   * memory is bounded by construction: when a ring is full the new
//     event is dropped and counted, and the drain publishes the total as
//     the `obs.recorder.dropped` metric. Drop-newest (rather than
//     overwrite-oldest) keeps the drained stream per-thread chronological
//     and makes the accounting exact: a ring of capacity C that received
//     N events drains exactly min(N, C) events and reports N - C drops.
//
// Rings are indexed by util::ThreadRegistry ids and allocated lazily by
// the owning thread, so unregistered threads cost nothing. Rings are freed
// with the recorder, so its owner (an obs::Session, through its
// TraceCollector) must outlive every thread still recording into it: the
// engines install a session only for the extent of a round or a client
// pass, which is what keeps the producer path free of reference counting.
//
// Crash/fault dump: the rings always hold the last <= capacity events per
// thread that the collector has not yet consumed, so Session::flush
// (called when an injected crash fires) can drain and persist them even
// when the run dies mid-round.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <type_traits>
#include <vector>

#include "util/sync.hpp"
#include "util/thread_registry.hpp"

namespace fedca::obs {

enum class RecordKind : std::uint8_t {
  kSpan = 0,     // t0 = start seconds, t1 = end seconds
  kInstant = 1,  // t0 = timestamp seconds
};

// POD ring-buffer slot. Fixed-size char fields instead of std::string so
// the producer path never allocates; names/args that do not fit are
// truncated and counted (obs.recorder.truncated).
struct RecorderEvent {
  static constexpr std::size_t kNameCapacity = 48;
  static constexpr std::size_t kArgCapacity = 128;

  RecordKind kind = RecordKind::kInstant;
  std::uint8_t clock = 0;       // 0 = virtual, 1 = wall
  std::uint16_t arg_bytes = 0;  // used bytes of `args`
  std::uint32_t pid = 0;
  std::uint32_t tid = 0;
  double t0 = 0.0;
  double t1 = 0.0;
  char name[kNameCapacity] = {};  // NUL-terminated
  // Packed "key\0value\0" pairs — preserves arbitrary bytes (quotes,
  // newlines, '=') so the JSON writer sees exactly what was recorded.
  char args[kArgCapacity] = {};
};
static_assert(std::is_trivially_copyable_v<RecorderEvent>,
              "ring slots must be memcpy-safe");

// Appends one key/value pair to `event`'s arg blob. Returns false (and
// leaves the blob untouched) when the pair does not fit.
bool append_arg(RecorderEvent& event, const char* key, const char* value);
// Decodes the packed blob into (key, value) callbacks.
void for_each_arg(const RecorderEvent& event,
                  const std::function<void(const char*, const char*)>& fn);

// Single-producer/single-consumer bounded ring. The owning thread pushes;
// whoever holds the Recorder's drain lock pops. head_/tail_ are monotonic
// event counts, so size and drop accounting never wrap ambiguously.
class EventRing {
 public:
  explicit EventRing(std::size_t capacity)
      : capacity_(capacity), slots_(new RecorderEvent[capacity]) {}

  // Producer side. False = ring full, event dropped (and counted).
  bool try_push(const RecorderEvent& event) {
    const std::uint64_t head = head_.load(std::memory_order_relaxed);
    if (head - tail_.load(std::memory_order_acquire) >= capacity_) {
      dropped_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    slots_[head % capacity_] = event;
    head_.store(head + 1, std::memory_order_release);
    return true;
  }

  // Consumer side: pops everything published so far, oldest first.
  std::size_t drain(const std::function<void(const RecorderEvent&)>& sink) {
    const std::uint64_t head = head_.load(std::memory_order_acquire);
    std::uint64_t tail = tail_.load(std::memory_order_relaxed);
    const std::size_t n = static_cast<std::size_t>(head - tail);
    for (; tail != head; ++tail) sink(slots_[tail % capacity_]);
    tail_.store(head, std::memory_order_release);
    return n;
  }

  // Consumer side, callback-free: appends everything published so far to
  // `out` (oldest first). The Recorder collects through this under its
  // drain lock and invokes the sink only after releasing it, so user sinks
  // never run while the lock is held.
  std::size_t pop_into(std::vector<RecorderEvent>& out) {
    const std::uint64_t head = head_.load(std::memory_order_acquire);
    std::uint64_t tail = tail_.load(std::memory_order_relaxed);
    const std::size_t n = static_cast<std::size_t>(head - tail);
    out.reserve(out.size() + n);
    for (; tail != head; ++tail) out.push_back(slots_[tail % capacity_]);
    tail_.store(head, std::memory_order_release);
    return n;
  }

  std::size_t capacity() const { return capacity_; }
  std::size_t size() const {
    return static_cast<std::size_t>(head_.load(std::memory_order_acquire) -
                                    tail_.load(std::memory_order_acquire));
  }
  std::uint64_t dropped() const { return dropped_.load(std::memory_order_relaxed); }

 private:
  const std::size_t capacity_;
  std::unique_ptr<RecorderEvent[]> slots_;
  // Producer-written / consumer-written cursors on separate cache lines so
  // drains do not false-share with the hot producer store.
  alignas(64) std::atomic<std::uint64_t> head_{0};
  alignas(64) std::atomic<std::uint64_t> tail_{0};
  std::atomic<std::uint64_t> dropped_{0};
};

class Recorder {
 public:
  static constexpr std::size_t kDefaultRingCapacity = 8192;

  using Sink = std::function<void(const RecorderEvent&)>;

  // Every ring holds `ring_capacity` events (min 1). When a producer finds
  // its ring 3/4 full it volunteers to drain every ring through
  // `auto_drain_sink` (try-lock only, so the hot path never blocks); an
  // empty sink turns the volunteer drain off, which makes overflow and its
  // drop accounting deterministic.
  explicit Recorder(std::size_t ring_capacity = kDefaultRingCapacity,
                    Sink auto_drain_sink = {});
  ~Recorder();
  Recorder(const Recorder&) = delete;
  Recorder& operator=(const Recorder&) = delete;

  // Producer path: push into the calling thread's ring (allocated on
  // first use). Lock-free; a full ring drops the event and counts it.
  void record(const RecorderEvent& event);

  // Drains every ring into `sink` (oldest-first per ring). Ring
  // consumption is serialized against concurrent drains; the sink itself
  // runs after the drain lock is released, so it may safely re-enter the
  // recorder. Returns the number of events delivered.
  std::size_t drain(const Sink& sink);

  // Total events dropped by full rings plus events from threads beyond
  // ThreadRegistry::kMaxTrackedThreads. Monotonic.
  std::uint64_t dropped_total() const;
  // Names/args that did not fit their fixed slot (the event itself is
  // still recorded).
  std::uint64_t truncated_total() const {
    return truncated_.load(std::memory_order_relaxed);
  }
  void note_truncated() { truncated_.fetch_add(1, std::memory_order_relaxed); }

 private:
  EventRing* ring_for_current_thread();
  void maybe_auto_drain(const EventRing& ring);

  const std::size_t ring_capacity_;
  const Sink auto_sink_;
  std::atomic<EventRing*> rings_[util::ThreadRegistry::kMaxTrackedThreads + 1] = {};
  std::atomic<std::uint64_t> overflow_dropped_{0};
  std::atomic<std::uint64_t> truncated_{0};
  mutable util::Mutex drain_mutex_;
};

}  // namespace fedca::obs
