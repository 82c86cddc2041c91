#include "obs/recorder.hpp"

#include <cstring>
#include <utility>

namespace fedca::obs {

bool append_arg(RecorderEvent& event, const char* key, const char* value) {
  const std::size_t key_len = std::strlen(key);
  const std::size_t value_len = std::strlen(value);
  const std::size_t need = key_len + value_len + 2;
  if (event.arg_bytes + need > RecorderEvent::kArgCapacity) return false;
  char* out = event.args + event.arg_bytes;
  std::memcpy(out, key, key_len + 1);
  std::memcpy(out + key_len + 1, value, value_len + 1);
  event.arg_bytes = static_cast<std::uint16_t>(event.arg_bytes + need);
  return true;
}

void for_each_arg(const RecorderEvent& event,
                  const std::function<void(const char*, const char*)>& fn) {
  std::size_t offset = 0;
  while (offset < event.arg_bytes) {
    const char* key = event.args + offset;
    offset += std::strlen(key) + 1;
    if (offset >= event.arg_bytes) break;  // malformed tail: drop it
    const char* value = event.args + offset;
    offset += std::strlen(value) + 1;
    fn(key, value);
  }
}

Recorder::Recorder(std::size_t ring_capacity, Sink auto_drain_sink)
    : ring_capacity_(ring_capacity == 0 ? 1 : ring_capacity),
      auto_sink_(std::move(auto_drain_sink)) {}

Recorder::~Recorder() {
  for (std::atomic<EventRing*>& slot : rings_) {
    delete slot.load(std::memory_order_acquire);
  }
}

EventRing* Recorder::ring_for_current_thread() {
  const std::uint32_t id = util::ThreadRegistry::current_id();
  if (id > util::ThreadRegistry::kMaxTrackedThreads) return nullptr;
  std::atomic<EventRing*>& slot = rings_[id];
  EventRing* ring = slot.load(std::memory_order_acquire);
  if (ring == nullptr) {
    // Only the owning thread ever populates its slot, so this is not a
    // race — the release-store publishes the ring to drainers.
    ring = new EventRing(ring_capacity_);
    slot.store(ring, std::memory_order_release);
  }
  return ring;
}

void Recorder::record(const RecorderEvent& event) {
  EventRing* ring = ring_for_current_thread();
  if (ring == nullptr) {
    overflow_dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  ring->try_push(event);
  maybe_auto_drain(*ring);
}

void Recorder::maybe_auto_drain(const EventRing& ring) {
  // High-water volunteer drain: when this thread's ring is 3/4 full, try
  // to drain everything through the sink. try_lock only — if another
  // thread is already draining (or there is no sink), the producer moves
  // on without blocking.
  if (!auto_sink_) return;
  if (ring.size() < ring.capacity() - ring.capacity() / 4) return;
  if (!drain_mutex_.try_lock()) return;
  // Collect under the lock, deliver after releasing it: the sink is user
  // code (it takes the TraceCollector's own mutex, and may re-enter the
  // recorder), so invoking it while drain_mutex_ is held risks deadlock
  // and lock-order inversion.
  std::vector<RecorderEvent> batch;
  for (std::size_t i = 0; i <= util::ThreadRegistry::kMaxTrackedThreads; ++i) {
    EventRing* r = rings_[i].load(std::memory_order_acquire);
    if (r != nullptr) r->pop_into(batch);
  }
  drain_mutex_.unlock();
  for (const RecorderEvent& event : batch) auto_sink_(event);
}

std::size_t Recorder::drain(const Sink& sink) {
  // Same collect-then-deliver split as maybe_auto_drain: drain_mutex_
  // serializes ring consumption (the SPSC consumer side must be exclusive)
  // but is released before the first sink call, so a sink that drains
  // again cannot deadlock. Per-ring chronology is preserved by the
  // buffered batch.
  std::vector<RecorderEvent> batch;
  {
    util::MutexLock lock(drain_mutex_);
    for (std::size_t i = 0; i <= util::ThreadRegistry::kMaxTrackedThreads; ++i) {
      EventRing* ring = rings_[i].load(std::memory_order_acquire);
      if (ring != nullptr) ring->pop_into(batch);
    }
  }
  for (const RecorderEvent& event : batch) sink(event);
  return batch.size();
}

std::uint64_t Recorder::dropped_total() const {
  std::uint64_t total = overflow_dropped_.load(std::memory_order_relaxed);
  for (std::size_t i = 0; i <= util::ThreadRegistry::kMaxTrackedThreads; ++i) {
    const EventRing* ring = rings_[i].load(std::memory_order_acquire);
    if (ring != nullptr) total += ring->dropped();
  }
  return total;
}

}  // namespace fedca::obs
