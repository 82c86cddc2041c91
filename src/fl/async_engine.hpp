// Asynchronous FL engine (FedAsync/Papaya-style baseline).
//
// Sec. 6 of the paper contrasts FedCA with asynchronous training: "each
// client can proceed independently without waiting for others. Yet,
// asynchronous updating may incur stale parameters and compromise the
// training accuracy." This engine implements that alternative so the
// claim is testable (bench/ext_async):
//
//   * every client loops independently — download the current global,
//     train K local iterations, upload;
//   * the server applies each update the moment it arrives, scaled by a
//     staleness-discounted mixing weight
//         w = mix / (1 + staleness)^staleness_power
//     where staleness = number of global versions applied since the
//     client downloaded (FedAsync's polynomial discount);
//   * no rounds, no deadlines, no waiting — and no round-structure for
//     FedCA-style intra-round autonomy to exploit.
//
// Simulation: clients' in-flight work is tracked as (arrival time, the
// downloaded snapshot); arrivals are processed in virtual-time order, so
// the run is deterministic.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "data/dataset.hpp"
#include "fl/client_trainer.hpp"
#include "fl/types.hpp"
#include "nn/models.hpp"
#include "nn/sgd.hpp"
#include "sim/cluster.hpp"
#include "util/rng.hpp"

namespace fedca::fl {

struct AsyncEngineOptions {
  std::size_t local_iterations = 30;  // K per cycle
  std::size_t batch_size = 10;
  // prox_mu must be 0: async cycles run no client-policy hooks, so
  // nothing would own a FedProx anchor.
  nn::SgdOptions optimizer;
  // Base mixing weight (FedAsync's alpha).
  double mix = 0.6;
  // Polynomial staleness discount exponent (0 = ignore staleness).
  double staleness_power = 0.5;
  // Cap on one client cycle (download + compute + upload). A cycle that
  // would run longer is abandoned at start + cycle_timeout and the client
  // relaunched; kNoDeadline (default) keeps behavior bit-identical.
  double cycle_timeout = kNoDeadline;
  // Worker threads for speculative parallel training of in-flight cycles:
  // 0 resolves through FEDCA_THREADS (falling back to hardware
  // concurrency), 1 forces serial. When a winner's update is not yet
  // cached, the engine batch-trains EVERY untrained live in-flight cycle
  // concurrently on model replicas — each cycle's update depends only on
  // its own snapshot and its client's private loader stream, so results
  // are bit-identical for any worker count. Cycles train on private model
  // replicas (Module::clone) through fl::ClientTrainer.
  std::size_t worker_threads = 0;
  // Cap on how many cycles one speculative batch may train (winner plus
  // the earliest-arriving others). 0 = unlimited, the historical behavior;
  // a bound keeps one batch's replica/update memory O(cap) when the
  // population is huge. Training remains bit-identical per cycle — only
  // *when* a cycle trains (speculatively vs at its own arrival) changes.
  std::size_t speculative_cap = 0;
};

struct AsyncUpdateRecord {
  std::size_t client_id = 0;
  double arrival_time = 0.0;
  std::size_t downloaded_version = 0;
  std::size_t applied_version = 0;  // global version after applying
  std::size_t staleness = 0;
  double weight = 0.0;              // effective mixing weight used
  // The cycle was abandoned (dropout/crash mid-cycle or cycle timeout):
  // nothing was trained or applied and the global version did not move.
  bool lost = false;
};

class AsyncEngine {
 public:
  // `session` receives the engine's trace, metrics and report lines (null:
  // disarmed); it is current for the constructor's launches and each step.
  AsyncEngine(nn::Classifier* model, sim::Cluster* cluster,
              std::vector<data::Dataset> shards, AsyncEngineOptions options,
              util::Rng rng, obs::Session* session = nullptr);

  // Processes the next arriving client update: applies it to the global
  // model and immediately relaunches that client. Returns the record (a
  // `lost` record when the cycle was abandoned — nothing applied). Throws
  // when every client is permanently dead.
  AsyncUpdateRecord step();

  // Runs until `updates` arrivals have been processed, stopping early if
  // no live clients remain.
  std::vector<AsyncUpdateRecord> run_updates(std::size_t updates);

  double now() const { return clock_; }
  std::size_t global_version() const { return version_; }
  const nn::ModelState& global_state() const { return global_; }
  // Clients not permanently crashed / cut off (fault injection).
  std::size_t live_clients() const;
  void load_global_into_model();

 private:
  struct InFlight {
    double arrival_time = 0.0;
    std::size_t downloaded_version = 0;
    // The global the client trained from. Shared: every cycle launched at
    // the same global version points at one immutable copy, so in-flight
    // memory is O(distinct versions), not O(clients) x O(model).
    std::shared_ptr<const nn::ModelState> snapshot;
    bool lost = false;        // cycle abandoned at arrival_time
    // Why the cycle was abandoned ("crash"/"dropout"/"timeout"); points at
    // a string literal, consumed by the RoundReport pipeline.
    const char* lost_cause = "";
    bool dead = false;        // client permanently out (crash / dead link)
    // Speculative training cache: the cycle's SGD result (and the replica's
    // batch-norm buffers) once a batch-training pass has run it.
    bool trained = false;
    nn::ModelState update;
    std::vector<double> buffers;
  };

  // Starts client `c`'s next cycle at virtual time `t`.
  void launch(std::size_t c, double t);
  // Trains `winner_flight` (client `winner`) plus every other untrained
  // live in-flight cycle (up to speculative_cap), each on its own replica.
  // Fills each flight's `update` / `buffers` / `trained`.
  void train_pending(InFlight& winner_flight, std::size_t winner);

  sim::Cluster* cluster_;
  AsyncEngineOptions options_;
  // Replicas, shards, loader cursors (fork salt 0xA517C), the session,
  // trace pids and the crash record.
  ClientTrainer trainer_;
  std::vector<InFlight> in_flight_;  // one slot per client
  nn::ModelState global_;
  // Shared snapshot of `global_` at `snapshot_version_`, handed to every
  // cycle launched before the next version bump.
  std::shared_ptr<const nn::ModelState> snapshot_cache_;
  std::size_t snapshot_version_ = 0;
  std::size_t version_ = 0;
  double clock_ = 0.0;
  // Monotone sequence number for run-report async_update lines (applied,
  // lost, and permanently-dead records all consume one).
  std::size_t report_sequence_ = 0;
};

}  // namespace fedca::fl
