#include "fl/async_engine.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "nn/sgd.hpp"
#include "obs/metrics.hpp"
#include "obs/round_report.hpp"
#include "obs/trace.hpp"
#include "sim/faults.hpp"
#include "tensor/pool.hpp"

namespace fedca::fl {

namespace {

// Appends one async_update line to the run report (no-op until
// obs::configure arms the writer). `seq` is the engine's monotone record
// counter, bumped only when a line is actually written.
void report_async_update(std::size_t& seq, std::size_t client, double arrival,
                         std::size_t staleness, double weight, bool lost,
                         const char* outcome) {
  obs::RoundReportWriter& reporter = obs::RoundReportWriter::global();
  if (!reporter.enabled()) return;
  obs::AsyncUpdateReport report;
  report.update_index = seq++;
  report.client_id = client;
  report.arrival_time = arrival;
  report.staleness = staleness;
  report.weight = weight;
  report.lost = lost;
  report.outcome = outcome;
  reporter.append(report);
}

}  // namespace

AsyncEngine::AsyncEngine(nn::Classifier* model, sim::Cluster* cluster,
                         std::vector<data::Dataset> shards, AsyncEngineOptions options,
                         util::Rng rng)
    : model_(model), cluster_(cluster), shards_(std::move(shards)), options_(options) {
  if (model_ == nullptr || cluster_ == nullptr) {
    throw std::invalid_argument("AsyncEngine: null dependency");
  }
  // Shard pool semantics as in RoundEngine: client c reads shards_[c % pool].
  if (shards_.empty() || shards_.size() > cluster_->size()) {
    throw std::invalid_argument("AsyncEngine: shard pool size invalid");
  }
  if (options_.local_iterations == 0) {
    throw std::invalid_argument("AsyncEngine: local_iterations must be > 0");
  }
  if (options_.mix <= 0.0 || options_.mix > 1.0) {
    throw std::invalid_argument("AsyncEngine: mix must be in (0, 1]");
  }
  // Loaders are built per training pass from pure forks of this snapshot.
  loader_rng_ = rng;
  loader_cursors_.resize(cluster_->size());
  tensor::BufferPool::set_capacity_hint(
      static_cast<std::size_t>(model_->state().numel()) * sizeof(float),
      util::ThreadPool::resolve_workers(options_.worker_threads));
  // Arm the crash-dump seam before any launch can hit an injected fault:
  // a permanent crash flushes the flight recorder / metrics / report so
  // the tail of the run survives.
  sim::set_fault_dump_hook(&obs::flush_on_fault);
  global_ = model_->state();
  in_flight_.resize(cluster_->size());
  for (std::size_t c = 0; c < cluster_->size(); ++c) launch(c, 0.0);
}

void AsyncEngine::load_global_into_model() { model_->load(global_); }

std::unique_ptr<nn::Classifier> AsyncEngine::acquire_replica() {
  {
    util::MutexLock lock(replica_mutex_);
    if (!replicas_.empty()) {
      std::unique_ptr<nn::Classifier> replica = std::move(replicas_.back());
      replicas_.pop_back();
      return replica;
    }
  }
  return model_->clone();
}

void AsyncEngine::release_replica(std::unique_ptr<nn::Classifier> replica) {
  util::MutexLock lock(replica_mutex_);
  replicas_.push_back(std::move(replica));
}

util::ThreadPool& AsyncEngine::dispatch_pool(std::size_t workers) {
  util::ThreadPool& shared = util::ThreadPool::shared();
  if (workers <= shared.worker_count()) return shared;
  if (!own_pool_ || own_pool_->worker_count() < workers) {
    own_pool_ = std::make_unique<util::ThreadPool>(workers);
  }
  return *own_pool_;
}

void AsyncEngine::train_cycle(nn::Classifier& net, std::size_t c) {
  nn::SgdOptimizer optimizer(net.parameters(), options_.optimizer);
  data::BatchLoader loader(&shards_[c % shards_.size()], options_.batch_size,
                           loader_rng_.fork(0xA517C + c));
  const data::BatchLoader::Cursor& cursor = loader_cursors_[c];
  if (cursor.epochs > 0 || cursor.position > 0) loader.restore(cursor);
  for (std::size_t it = 0; it < options_.local_iterations; ++it) {
    const data::Batch& batch = loader.next_batch();
    net.compute_gradients(batch.inputs, batch.labels);
    optimizer.step();
  }
  loader_cursors_[c] = loader.cursor();
}

void AsyncEngine::train_pending(InFlight& winner_flight, std::size_t winner) {
  if (!clone_checked_) {
    clone_checked_ = true;
    std::unique_ptr<nn::Classifier> first = model_->clone();
    cloneable_ = first != nullptr;
    if (cloneable_) release_replica(std::move(first));
  }

  if (!cloneable_) {
    // Legacy serial path: train only the winner, in place on the shared
    // model (batch-norm buffers chain arrival-to-arrival exactly as
    // before).
    model_->load(*winner_flight.snapshot);
    model_->set_training(true);
    train_cycle(*model_, winner);
    nn::capture_state_into(model_->parameters(), winner_flight.update);
    nn::state_sub_inplace(winner_flight.update, *winner_flight.snapshot);
    winner_flight.trained = true;
    winner_flight.snapshot.reset();
    return;
  }

  // Speculative batch: the winner plus every other live, non-lost,
  // untrained cycle. Each cycle's result depends only on its own snapshot
  // and its client's private loader (one cycle in flight per client, so
  // loader consumption order is the client's cycle order no matter when or
  // on which thread training runs). The batch set itself is a function of
  // virtual time only — worker-count invariant.
  std::vector<std::size_t> others;
  others.reserve(in_flight_.size());
  for (std::size_t c = 0; c < in_flight_.size(); ++c) {
    if (c == winner) continue;
    const InFlight& f = in_flight_[c];
    if (f.dead || f.lost || f.trained || !std::isfinite(f.arrival_time)) continue;
    others.push_back(c);
  }
  // Speculation bound: keep the earliest-arriving cap-1 companions (ties by
  // client id). Dropped cycles simply train in a later batch or at their
  // own arrival — the per-cycle result is unchanged either way.
  if (options_.speculative_cap > 0 &&
      others.size() + 1 > options_.speculative_cap) {
    const std::size_t keep = options_.speculative_cap - 1;
    std::sort(others.begin(), others.end(), [this](std::size_t a, std::size_t b) {
      if (in_flight_[a].arrival_time != in_flight_[b].arrival_time) {
        return in_flight_[a].arrival_time < in_flight_[b].arrival_time;
      }
      return a < b;
    });
    others.resize(keep);
    std::sort(others.begin(), others.end());
  }
  std::vector<InFlight*> jobs;
  std::vector<std::size_t> ids;
  jobs.reserve(others.size() + 1);
  ids.reserve(others.size() + 1);
  jobs.push_back(&winner_flight);
  ids.push_back(winner);
  for (const std::size_t c : others) {
    jobs.push_back(&in_flight_[c]);
    ids.push_back(c);
  }

  const std::vector<double> base_buffers = nn::capture_buffers(model_->backbone());
  const auto train_one = [&](std::size_t i) {
    InFlight& f = *jobs[i];
    std::unique_ptr<nn::Classifier> replica = acquire_replica();
    if (!base_buffers.empty()) nn::load_buffers(replica->backbone(), base_buffers);
    replica->load(*f.snapshot);
    replica->set_training(true);
    train_cycle(*replica, ids[i]);
    nn::capture_state_into(replica->parameters(), f.update);
    nn::state_sub_inplace(f.update, *f.snapshot);
    if (!base_buffers.empty()) f.buffers = nn::capture_buffers(replica->backbone());
    f.trained = true;
    f.snapshot.reset();  // no longer needed; drop this cycle's reference
    release_replica(std::move(replica));
  };

  const std::size_t workers = util::ThreadPool::resolve_workers(options_.worker_threads);
  if (workers <= 1 || jobs.size() <= 1) {
    for (std::size_t i = 0; i < jobs.size(); ++i) train_one(i);
  } else {
    dispatch_pool(workers).parallel_for_dynamic(jobs.size(), train_one, workers);
  }
  FEDCA_MCOUNT("async.speculative_batches", 1.0);
  FEDCA_MCOUNT("async.speculative_cycles", static_cast<double>(jobs.size()));
}

void AsyncEngine::launch(std::size_t c, double t) {
  obs::TraceCollector& tracer = obs::TraceCollector::global();
  const bool tracing = tracer.enabled();
  if (tracing && trace_pid_base_ == 0) {
    const auto n = static_cast<std::uint32_t>(cluster_->size());
    trace_pid_base_ = tracer.allocate_process_ids(n + 1);
    tracer.set_process_name(trace_pid_base_, "async/server");
    for (std::uint32_t i = 0; i < n; ++i) {
      tracer.set_process_name(trace_pid_base_ + 1 + i,
                              "async/client " + std::to_string(i));
    }
  }
  const std::uint32_t pid = trace_pid_base_ + 1 + static_cast<std::uint32_t>(c);

  // Fault gate: a crashed client never launches again; a client inside a
  // dropout window starts its cycle when the window closes.
  const sim::FaultInjector* faults = cluster_->faults().get();
  double start = t;
  if (faults != nullptr) {
    start = faults->online_after(c, t);
    if (!std::isfinite(start)) {
      in_flight_[c].dead = true;
      in_flight_[c].arrival_time = kNoDeadline;
      FEDCA_MCOUNT("faults.crashes", 1.0);
      if (tracing) {
        tracer.record_instant(pid, "fault.crash", t,
                              {{"client", std::to_string(c)}});
      }
      report_async_update(report_sequence_, c, t, 0, 0.0, true, "crash");
      sim::notify_fault_dump();
      return;
    }
  }

  sim::DeviceLease device_lease = cluster_->lease(c);
  sim::ClientDevice& device = *device_lease;
  const double bytes_per_param = model_->info().bytes_per_actual_param();
  const double model_bytes =
      static_cast<double>(global_.numel()) * bytes_per_param +
      options_.upload_header_bytes;

  const sim::Transfer download = device.downlink().transmit(start, model_bytes);
  const double compute_work = static_cast<double>(options_.local_iterations) *
                              model_->info().nominal_iteration_seconds;
  const double compute_done = device.compute_finish(download.end, compute_work);
  const sim::Transfer upload = device.uplink().transmit(compute_done, model_bytes);

  InFlight flight;
  flight.downloaded_version = version_;

  if (!std::isfinite(upload.end)) {
    // Permanent link outage somewhere in the cycle: the client can never
    // deliver again.
    in_flight_[c].dead = true;
    in_flight_[c].arrival_time = kNoDeadline;
    FEDCA_MCOUNT("faults.link_outages", 1.0);
    if (tracing) {
      tracer.record_instant(pid, "fault.link_outage", start,
                            {{"client", std::to_string(c)}});
    }
    report_async_update(report_sequence_, c, start, 0, 0.0, true, "link_outage");
    return;
  }

  // Mid-cycle dropout/crash: the cycle is lost at the moment the client
  // goes offline; step() relaunches it once it is back.
  const double fail_time =
      faults != nullptr ? faults->next_offline(c, start) : kNoDeadline;
  if (upload.end > fail_time) {
    flight.lost = true;
    flight.arrival_time = fail_time;
    const bool is_crash = faults->crashed_at(c, fail_time);
    flight.lost_cause = is_crash ? "crash" : "dropout";
    if (is_crash) {
      FEDCA_MCOUNT("faults.crashes", 1.0);
    } else {
      FEDCA_MCOUNT("faults.dropouts", 1.0);
    }
    if (tracing) {
      tracer.record_instant(pid, is_crash ? "fault.crash" : "fault.dropout",
                            fail_time, {{"client", std::to_string(c)}});
    }
    if (is_crash) sim::notify_fault_dump();
    in_flight_[c] = std::move(flight);
    return;
  }

  // Cycle timeout: a straggler cycle is cut off and retried rather than
  // blocking the arrival queue for virtual hours.
  if (options_.cycle_timeout != kNoDeadline &&
      upload.end > start + options_.cycle_timeout) {
    flight.lost = true;
    flight.arrival_time = start + options_.cycle_timeout;
    flight.lost_cause = "timeout";
    FEDCA_MCOUNT("async.cycle_timeouts", 1.0);
    if (tracing) {
      tracer.record_instant(pid, "recovery.cycle_timeout", flight.arrival_time,
                            {{"client", std::to_string(c)}});
    }
    in_flight_[c] = std::move(flight);
    return;
  }

  if (tracing) {
    const obs::TraceArgs version{{"version", std::to_string(version_)}};
    tracer.record_span(pid, "download", start, download.end, version);
    tracer.record_span(pid, "compute", download.end, compute_done, version);
    tracer.record_span(pid, "upload", upload.start, upload.end, version);
  }

  flight.arrival_time = upload.end;
  // All cycles launched at the current version share one immutable copy.
  if (snapshot_cache_ == nullptr || snapshot_version_ != version_) {
    snapshot_cache_ = std::make_shared<const nn::ModelState>(global_);
    snapshot_version_ = version_;
  }
  flight.snapshot = snapshot_cache_;
  in_flight_[c] = std::move(flight);
}

std::size_t AsyncEngine::live_clients() const {
  std::size_t live = 0;
  for (const InFlight& f : in_flight_) {
    if (!f.dead) ++live;
  }
  return live;
}

AsyncUpdateRecord AsyncEngine::step() {
  // Earliest arrival wins (ties: lowest client id for determinism);
  // permanently dead clients never arrive.
  std::size_t winner = in_flight_.size();
  double best = std::numeric_limits<double>::infinity();
  for (std::size_t c = 0; c < in_flight_.size(); ++c) {
    if (!in_flight_[c].dead && in_flight_[c].arrival_time < best) {
      best = in_flight_[c].arrival_time;
      winner = c;
    }
  }
  if (winner == in_flight_.size()) {
    throw std::runtime_error("AsyncEngine::step: no live clients remain");
  }
  InFlight flight = std::move(in_flight_[winner]);
  clock_ = flight.arrival_time;

  if (flight.lost) {
    // Abandoned cycle: nothing arrives and nothing is applied; the client
    // simply starts over (launch() waits out any dropout window).
    AsyncUpdateRecord record;
    record.client_id = winner;
    record.arrival_time = flight.arrival_time;
    record.downloaded_version = flight.downloaded_version;
    record.applied_version = version_;
    record.staleness = version_ - flight.downloaded_version;
    record.weight = 0.0;
    record.lost = true;
    FEDCA_MCOUNT("faults.async_lost", 1.0);
    report_async_update(report_sequence_, winner, record.arrival_time,
                        record.staleness, 0.0, true,
                        flight.lost_cause[0] != '\0' ? flight.lost_cause
                                                     : "dropout");
    launch(winner, clock_);
    return record;
  }

  // The winner's cycle trains from the snapshot it downloaded; the timing
  // was already committed at launch, so training is time-free and may have
  // happened speculatively in an earlier batch. Install the winner's
  // post-training batch-norm buffers at apply time (arrival order), so the
  // shared model evolves exactly as a serial schedule would leave it.
  if (!flight.trained) train_pending(flight, winner);
  nn::ModelState update = std::move(flight.update);
  if (!flight.buffers.empty()) nn::load_buffers(model_->backbone(), flight.buffers);

  AsyncUpdateRecord record;
  record.client_id = winner;
  record.arrival_time = flight.arrival_time;
  record.downloaded_version = flight.downloaded_version;
  record.staleness = version_ - flight.downloaded_version;
  record.weight =
      options_.mix /
      std::pow(1.0 + static_cast<double>(record.staleness), options_.staleness_power);
  {
    FEDCA_WALL_SPAN("server.apply_async_update");
    nn::state_add_scaled(global_, static_cast<float>(record.weight), update);
  }
  ++version_;
  record.applied_version = version_;
  FEDCA_MCOUNT("async.updates", 1.0);
  FEDCA_MHISTO("async.staleness", 0.0, 64.0, 64,
               static_cast<double>(record.staleness));
  if (obs::metrics_enabled() && tensor::BufferPool::enabled()) {
    tensor::BufferPool::global().publish_metrics();
  }
  if (obs::TraceCollector::global().enabled() && trace_pid_base_ != 0) {
    obs::TraceCollector::global().record_instant(
        trace_pid_base_, "apply_update", clock_,
        {{"client", std::to_string(record.client_id)},
         {"staleness", std::to_string(record.staleness)},
         {"version", std::to_string(record.applied_version)}});
  }
  report_async_update(report_sequence_, winner, record.arrival_time,
                      record.staleness, record.weight, false, "applied");

  launch(winner, clock_);
  return record;
}

std::vector<AsyncUpdateRecord> AsyncEngine::run_updates(std::size_t updates) {
  std::vector<AsyncUpdateRecord> records;
  records.reserve(updates);
  for (std::size_t i = 0; i < updates; ++i) {
    if (live_clients() == 0) break;  // fault injection killed everyone
    records.push_back(step());
  }
  return records;
}

}  // namespace fedca::fl
