// The client-training core shared by both engines.
//
// RoundEngine and AsyncEngine differ only in *when* clients train and what
// the server does with the result (deadline and quorum vs staleness
// mixing). *How* a client trains lives here: the shared model and a
// free-list of its replicas, the shard pool (client c reads
// shards[c % pool]), each client's loader stream (a pure per-client fork of
// the loader RNG plus a 16-byte cursor carried between passes), the K-step
// SGD pass, the observability session (installed on every pool worker for
// the extent of a pass), trace pids and a once-per-client crash record.
//
// Results are bit-identical for every worker count: a pass reads only its
// start weights, its client's loader stream and the buffer snapshot taken
// when the jobs start, and callers collect results into pre-sized slots.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string_view>
#include <vector>

#include "data/dataset.hpp"
#include "data/loader.hpp"
#include "nn/models.hpp"
#include "nn/sgd.hpp"
#include "nn/state.hpp"
#include "obs/session.hpp"
#include "sim/cluster.hpp"
#include "util/rng.hpp"
#include "util/sync.hpp"
#include "util/thread_annotations.hpp"
#include "util/thread_pool.hpp"

namespace fedca::fl {

class ClientTrainer {
 public:
  // `owner` prefixes constructor errors. `model` and `cluster` must be
  // non-null; the shard pool must be non-empty and no larger than the
  // cluster. Client c's loader stream is loader_rng.fork(fork_salt + c).
  // `session` receives the passes' spans and metrics (null: disarmed).
  // Passes run on resolve_workers(worker_threads) threads.
  ClientTrainer(const char* owner, nn::Classifier* model, const sim::Cluster* cluster,
                std::vector<data::Dataset> shards, std::size_t batch_size,
                std::size_t worker_threads, util::Rng loader_rng,
                std::uint64_t fork_salt, obs::Session* session);

  nn::Classifier& model() { return *model_; }
  obs::Session* session() const { return session_; }
  const data::Dataset& shard(std::size_t client) const {
    return shards_[client % shards_.size()];
  }
  // Bytes of live per-client loader state (the stored cursors).
  std::size_t live_loader_bytes() const;

  // One local pass of `client` on `model`: loads `start` in training mode,
  // resumes the client's loader from its cursor, builds an SGD optimizer
  // (anchoring FedProx when prox_mu != 0) and calls on_start(). Then runs
  // up to `steps` SGD steps; after step tau (from 1) with loss `loss`,
  // after_step(tau, loss, optimizer) returns false to end the pass. The
  // loader cursor is committed when the pass ends. The step loop is a
  // template so the hot path stays free of indirection and allocation.
  template <typename OnStart, typename AfterStep>
  void train(std::size_t client, nn::Classifier& model, const nn::ModelState& start,
             const nn::SgdOptions& options, std::size_t steps, OnStart&& on_start,
             AfterStep&& after_step);

  // Runs job(i, replica) for every i < count, serially or on the
  // trainer's pool, with the trainer's session current on the running
  // thread. Each job gets a private replica holding the shared model's
  // batch-norm buffers as of this call, and returns whether it trained the
  // replica; if it did, buffers[i] receives the replica's buffers afterwards
  // (empty when the model has none).
  using Job = std::function<bool(std::size_t, nn::Classifier&)>;
  void run_jobs(std::size_t count, const Job& job,
                std::vector<std::vector<double>>& buffers);

  // Reserves trace pids in the current session and names the processes
  // "<prefix>/server" and "<prefix>/client c"; a no-op once done or while
  // tracing is off.
  void register_trace(std::string_view prefix);
  bool trace_registered() const { return trace_pid_base_ != 0; }
  std::uint32_t server_pid() const { return trace_pid_base_; }
  std::uint32_t client_pid(std::size_t client) const {
    return trace_pid_base_ + 1 + static_cast<std::uint32_t>(client);
  }

  // Announces the permanent crash of `client` at virtual time `at`: bumps
  // faults.crashes, records a fault.crash instant with `args` and flushes
  // the session (the crash dump). Only the first call per client does this,
  // so a crash seen twice (mid-pass, then at the next start) counts once.
  // Thread-safe.
  void announce_crash(std::size_t client, double at, obs::TraceArgs args);

 private:
  std::unique_ptr<nn::Classifier> acquire_replica();
  void release_replica(std::unique_ptr<nn::Classifier> replica);

  nn::Classifier* model_;
  std::size_t population_;
  std::vector<data::Dataset> shards_;
  std::size_t batch_size_;
  std::size_t workers_;  // resolve_workers(worker_threads)
  util::Rng loader_rng_;
  std::uint64_t fork_salt_;
  obs::Session* session_;
  std::vector<data::BatchLoader::Cursor> loader_cursors_;
  std::uint32_t trace_pid_base_ = 0;  // 0 = not yet reserved
  util::Mutex mutex_;
  std::vector<std::unique_ptr<nn::Classifier>> replicas_ FEDCA_GUARDED_BY(mutex_);
  // One flag per client once the first crash is announced.
  std::vector<char> crash_announced_ FEDCA_GUARDED_BY(mutex_);
  // The run's one pool, workers_ threads, built on the first parallel
  // run_jobs; its threads end with the trainer.
  std::unique_ptr<util::ThreadPool> pool_;
};

template <typename OnStart, typename AfterStep>
void ClientTrainer::train(std::size_t client, nn::Classifier& model,
                          const nn::ModelState& start, const nn::SgdOptions& options,
                          std::size_t steps, OnStart&& on_start, AfterStep&& after_step) {
  data::BatchLoader loader(&shard(client), batch_size_, loader_rng_.fork(fork_salt_ + client));
  const data::BatchLoader::Cursor& cursor = loader_cursors_[client];
  if (cursor.epochs > 0 || cursor.position > 0) loader.restore(cursor);
  model.load(start);
  model.set_training(true);
  nn::SgdOptimizer optimizer(model.parameters(), options);
  if (options.prox_mu != 0.0) optimizer.capture_prox_anchor();
  on_start();
  for (std::size_t tau = 1; tau <= steps; ++tau) {
    double loss;
    {
      FEDCA_KERNEL_SPAN("sgd.step");
      // Reference into the loader's reused batch storage: no per-step
      // gather allocation.
      const data::Batch& batch = loader.next_batch();
      loss = model.compute_gradients(batch.inputs, batch.labels);
      optimizer.step();
    }
    if (!after_step(tau, loss, optimizer)) break;
  }
  loader_cursors_[client] = loader.cursor();
}

}  // namespace fedca::fl
