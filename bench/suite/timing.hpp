// Wall-clock instrumentation of the round engine through its public hooks.
//
// TimedScheme decorates any fl::Scheme (like fl::CompressedScheme does) and
// forwards every virtual unchanged, so the decorated run is bit-identical to
// the plain one. It timestamps the hook boundaries; the phases of a round are
// the gaps between them (run_client order in src/fl/round_engine.cpp):
//
//   setup        run_experiment entry   -> bind return
//   plan         plan_round entry       -> plan_round return
//   select       plan_round return      -> first client_policy entry
//   train        first client_policy    -> last on_round_end return
//   server       last on_round_end      -> observe_round entry
//   observe      observe_round entry    -> observe_round return
//   eval         observe_round return   -> next plan_round entry / run end
//
// and, per client on the thread that trains it (traced runs only):
//
//   materialize  make_compressor return -> on_round_start entry
//   step         previous hook return   -> after_iteration entry
//   finalize     last after_iteration   -> select_retransmissions entry
//   upload       select_retransmissions -> on_round_end entry
//   policy.*     each hook's own entry -> return
//
// Untraced runs keep only the O(1)-per-round plan_round / observe_round
// stamps, plus one wrapped client per run that reports where the engine
// keeps its global state (so the final state can be fingerprinted). Traced
// runs wrap every ClientPolicy in a per-thread TimedPolicy (a thread drives
// one client at a time, so wrapper state is O(threads), not O(clients)) and
// record spans into per-thread buffers.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <type_traits>
#include <vector>

#include "fl/scheme.hpp"
#include "nn/state.hpp"

namespace fedca::suite {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// One closed wall-clock interval. `name` and `parent` are string literals;
// `parent` names the enclosing span (same round, and same client when the
// span is client-scoped). -1 marks an unset round/client.
struct Span {
  const char* name = "";
  const char* parent = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t round = -1;
  std::int64_t client = -1;
  std::uint32_t tid = 0;
};

// Per-thread span buffers. A thread registers its buffer on first use; the
// log owns every buffer for the life of the process, so pool threads keep a
// valid pointer across runs. Collect only while no thread is recording.
class SpanLog {
 public:
  static SpanLog& global();

  void record(const Span& span);
  // Moves every buffered span out (sorted by tid, then start) and clears
  // the buffers.
  std::vector<Span> take();

 private:
  struct Buffer {
    std::uint32_t tid = 0;
    std::vector<Span> spans;
  };
  Buffer& local();

  std::mutex mutex_;
  std::vector<std::unique_ptr<Buffer>> buffers_;
};

// Records one span into SpanLog::global() from the calling thread.
void record_span(const char* name, const char* parent, std::int64_t start_ns,
                 std::int64_t end_ns, std::int64_t round, std::int64_t client = -1);

// Per-run timestamps the decorator records on the engine thread.
struct RunStamps {
  std::int64_t entry_ns = 0;    // set by the caller just before run_experiment
  std::int64_t bind_ns = 0;     // bind return: setup ends, the run begins
  std::int64_t end_ns = 0;      // set by the caller when run_experiment returns
  std::vector<std::int64_t> round_start_ns;  // plan_round entry per round
  std::size_t participants = 0;
  std::size_t offline = 0;
  std::uint64_t state_fnv = 0;  // global state after the final round
};

class TimedScheme final : public fl::Scheme {
 public:
  // `final_round` is the index of the last round the run will execute; the
  // global state is fingerprinted when that round is observed.
  TimedScheme(std::unique_ptr<fl::Scheme> inner, bool traced, std::size_t final_round);

  std::string name() const override { return inner_->name(); }
  void bind(std::size_t num_clients, std::size_t nominal_iterations) override;
  fl::RoundPlan plan_round(std::size_t round_index) override;
  fl::ClientPolicy& client_policy(std::size_t client_id) override;
  nn::SgdOptions local_optimizer(const nn::SgdOptions& base) override {
    return inner_->local_optimizer(base);
  }
  void observe_round(const fl::RoundRecord& record) override;
  std::unique_ptr<fl::UpdateCompressor> make_compressor(std::size_t client_id,
                                                        std::size_t round_index) override;

  RunStamps& stamps() { return stamps_; }
  // Closes the last round's eval span at run end (traced runs).
  void finish(std::int64_t end_ns);

  // Called by the worker-thread wrappers.
  void client_finished(std::int64_t t);
  void saw_global(const nn::ModelState* global) {
    global_.store(global, std::memory_order_relaxed);
  }

 private:
  void client_started(std::int64_t t);

  std::unique_ptr<fl::Scheme> inner_;
  bool traced_;
  std::size_t final_round_;
  RunStamps stamps_;
  std::int64_t round_ = -1;
  std::int64_t plan_return_ns_ = 0;
  std::int64_t observe_return_ns_ = 0;
  std::atomic<std::int64_t> first_client_ns_{0};
  std::atomic<std::int64_t> last_client_ns_{0};
  // The engine's global state, learned from the first on_round_start.
  std::atomic<const nn::ModelState*> global_{nullptr};
};

// 64-bit FNV-1a, fed raw bytes or trivially copyable values.
struct Fnv {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  void add_bytes(const void* data, std::size_t size) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; ++i) {
      hash ^= bytes[i];
      hash *= 0x100000001b3ULL;
    }
  }
  template <typename T>
  Fnv& operator<<(const T& value) {
    static_assert(std::is_trivially_copyable_v<T>);
    add_bytes(&value, sizeof(T));
    return *this;
  }
};

// FNV-1a over the bytes of every tensor of `state`.
std::uint64_t fnv1a(const nn::ModelState& state);

}  // namespace fedca::suite
