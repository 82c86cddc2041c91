#include "fl/client_trainer.hpp"

#include <cmath>
#include <stdexcept>
#include <string>

namespace fedca::fl {

namespace {

std::size_t population_of(const char* owner, const nn::Classifier* model,
                          const sim::Cluster* cluster) {
  if (model == nullptr || cluster == nullptr) {
    throw std::invalid_argument(std::string(owner) + ": null dependency");
  }
  return cluster->size();
}

}  // namespace

ClientTrainer::ClientTrainer(const char* owner, nn::Classifier* model,
                             const sim::Cluster* cluster, std::vector<data::Dataset> shards,
                             std::size_t batch_size, std::size_t worker_threads,
                             util::Rng loader_rng, std::uint64_t fork_salt,
                             obs::Session* session)
    : model_(model),
      population_(population_of(owner, model, cluster)),
      shards_(std::move(shards)),
      batch_size_(batch_size),
      workers_(util::ThreadPool::resolve_workers(worker_threads)),
      loader_rng_(loader_rng),
      fork_salt_(fork_salt),
      session_(session),
      loader_cursors_(population_) {
  // Clients may share a shard pool smaller than the population; an empty
  // or oversized pool is a caller bug.
  if (shards_.empty() || shards_.size() > population_) {
    throw std::invalid_argument(std::string(owner) + ": shard pool size " +
                                std::to_string(shards_.size()) +
                                " invalid for cluster size " +
                                std::to_string(population_));
  }
}

std::size_t ClientTrainer::live_loader_bytes() const {
  return loader_cursors_.capacity() * sizeof(data::BatchLoader::Cursor);
}

std::unique_ptr<nn::Classifier> ClientTrainer::acquire_replica() {
  {
    util::MutexLock lock(mutex_);
    if (!replicas_.empty()) {
      std::unique_ptr<nn::Classifier> replica = std::move(replicas_.back());
      replicas_.pop_back();
      return replica;
    }
  }
  // Clone outside the lock: deep copies are the expensive part.
  return model_->clone();
}

void ClientTrainer::release_replica(std::unique_ptr<nn::Classifier> replica) {
  util::MutexLock lock(mutex_);
  replicas_.push_back(std::move(replica));
}

void ClientTrainer::run_jobs(std::size_t count, const Job& job,
                             std::vector<std::vector<double>>& buffers) {
  const std::vector<double> start_buffers = nn::capture_buffers(model_->backbone());
  buffers.assign(count, {});
  const auto run_one = [&](std::size_t i) {
    const obs::SessionScope scope(session_);
    std::unique_ptr<nn::Classifier> replica = acquire_replica();
    if (!start_buffers.empty()) nn::load_buffers(replica->backbone(), start_buffers);
    if (job(i, *replica) && !start_buffers.empty()) {
      buffers[i] = nn::capture_buffers(replica->backbone());
    }
    release_replica(std::move(replica));
  };
  if (workers_ <= 1 || count <= 1) {
    for (std::size_t i = 0; i < count; ++i) run_one(i);
    return;
  }
  // Created on the first parallel call, so setup starts no threads.
  if (!pool_) pool_ = std::make_unique<util::ThreadPool>(workers_);
  pool_->parallel_for_dynamic(count, run_one);
}

void ClientTrainer::register_trace(std::string_view prefix) {
  obs::TraceCollector* tracer = obs::current_trace();
  if (trace_registered() || tracer == nullptr) return;
  const auto n = static_cast<std::uint32_t>(population_);
  trace_pid_base_ = tracer->allocate_process_ids(n + 1);
  const std::string name(prefix);
  tracer->set_process_name(server_pid(), name + "/server");
  for (std::uint32_t c = 0; c < n; ++c) {
    tracer->set_process_name(client_pid(c), name + "/client " + std::to_string(c));
  }
}

void ClientTrainer::announce_crash(std::size_t client, double at, obs::TraceArgs args) {
  {
    util::MutexLock lock(mutex_);
    if (crash_announced_.empty()) crash_announced_.resize(population_, 0);
    if (crash_announced_[client]) return;
    crash_announced_[client] = 1;
  }
  FEDCA_MCOUNT("faults.crashes", 1.0);
  obs::TraceCollector* tracer = obs::current_trace();
  if (tracer != nullptr && std::isfinite(at)) {
    tracer->record_instant(client_pid(client), "fault.crash", at, std::move(args));
  }
  // Crash dump: write every event recorded so far (including the instant
  // just recorded) at the moment the injected crash fires.
  if (session_ != nullptr) session_->flush();
}

}  // namespace fedca::fl
