#include "fl/async_engine.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "nn/sgd.hpp"
#include "obs/session.hpp"
#include "sim/faults.hpp"

namespace fedca::fl {

namespace {

// Appends one async_update line to the current session's run report
// (no-op while the report is disarmed). `seq` is the engine's monotone
// record counter, bumped only when a line is actually written.
void report_async_update(std::size_t& seq, std::size_t client, double arrival,
                         std::size_t staleness, double weight, bool lost,
                         const char* outcome) {
  obs::RoundReportWriter* reporter = obs::current_report();
  if (reporter == nullptr) return;
  obs::AsyncUpdateReport report;
  report.update_index = seq++;
  report.client_id = client;
  report.arrival_time = arrival;
  report.staleness = staleness;
  report.weight = weight;
  report.lost = lost;
  report.outcome = outcome;
  reporter->append(report);
}

}  // namespace

AsyncEngine::AsyncEngine(nn::Classifier* model, sim::Cluster* cluster,
                         std::vector<data::Dataset> shards, AsyncEngineOptions options,
                         util::Rng rng, obs::Session* session)
    : cluster_(cluster),
      options_(options),
      trainer_("AsyncEngine", model, cluster, std::move(shards), options.batch_size,
               options.worker_threads, rng, /*fork_salt=*/0xA517C, session) {
  if (options_.local_iterations == 0) {
    throw std::invalid_argument("AsyncEngine: local_iterations must be > 0");
  }
  if (options_.mix <= 0.0 || options_.mix > 1.0) {
    throw std::invalid_argument("AsyncEngine: mix must be in (0, 1]");
  }
  // FedProx's anchor is a client-policy concern and async cycles run no
  // client-policy hooks yet.
  if (options_.optimizer.prox_mu != 0.0) {
    throw std::invalid_argument("AsyncEngine: prox_mu is not supported (must be 0)");
  }
  global_ = trainer_.model().state();
  in_flight_.resize(cluster_->size());
  const obs::SessionScope scope(session);
  for (std::size_t c = 0; c < cluster_->size(); ++c) launch(c, 0.0);
}

void AsyncEngine::load_global_into_model() { trainer_.model().load(global_); }

void AsyncEngine::train_pending(InFlight& winner_flight, std::size_t winner) {
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

  std::vector<std::vector<double>> buffers;
  trainer_.run_jobs(
      jobs.size(),
      [&](std::size_t i, nn::Classifier& replica) {
        InFlight& f = *jobs[i];
        trainer_.train(ids[i], replica, *f.snapshot, options_.optimizer,
                       options_.local_iterations, [] {},
                       [](std::size_t, double, nn::SgdOptimizer&) { return true; });
        nn::capture_state_into(replica.parameters(), f.update);
        nn::state_sub_inplace(f.update, *f.snapshot);
        f.trained = true;
        f.snapshot.reset();  // no longer needed; drop this cycle's reference
        return true;
      },
      buffers);
  for (std::size_t i = 0; i < jobs.size(); ++i) jobs[i]->buffers = std::move(buffers[i]);
  FEDCA_MCOUNT("async.speculative_batches", 1.0);
  FEDCA_MCOUNT("async.speculative_cycles", static_cast<double>(jobs.size()));
}

void AsyncEngine::launch(std::size_t c, double t) {
  obs::TraceCollector* tracer = obs::current_trace();
  trainer_.register_trace("async");
  const std::uint32_t pid = trainer_.client_pid(c);

  // Fault gate: a crashed client never launches again; a client inside a
  // dropout window starts its cycle when the window closes.
  const sim::FaultInjector* faults = cluster_->faults().get();
  double start = t;
  if (faults != nullptr) {
    start = faults->online_after(c, t);
    if (!std::isfinite(start)) {
      in_flight_[c].dead = true;
      in_flight_[c].arrival_time = kNoDeadline;
      // The run report gets a dead-client line even when the crash was
      // already announced with the cycle it cut short.
      report_async_update(report_sequence_, c, t, 0, 0.0, true, "crash");
      trainer_.announce_crash(c, t, {{"client", std::to_string(c)}});
      return;
    }
  }

  sim::DeviceLease device_lease = cluster_->lease(c);
  sim::ClientDevice& device = *device_lease;
  const nn::ModelInfo& info = trainer_.model().info();
  const double bytes_per_param = info.bytes_per_actual_param();
  const double model_bytes =
      static_cast<double>(global_.numel()) * bytes_per_param + kUploadHeaderBytes;

  const sim::Transfer download = device.downlink().transmit(start, model_bytes);
  const double compute_work = static_cast<double>(options_.local_iterations) *
                              info.nominal_iteration_seconds;
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
    if (tracer != nullptr) {
      tracer->record_instant(pid, "fault.link_outage", start,
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
      trainer_.announce_crash(c, fail_time, {{"client", std::to_string(c)}});
    } else {
      FEDCA_MCOUNT("faults.dropouts", 1.0);
      if (tracer != nullptr) {
        tracer->record_instant(pid, "fault.dropout", fail_time,
                               {{"client", std::to_string(c)}});
      }
    }
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
    if (tracer != nullptr) {
      tracer->record_instant(pid, "recovery.cycle_timeout", flight.arrival_time,
                             {{"client", std::to_string(c)}});
    }
    in_flight_[c] = std::move(flight);
    return;
  }

  if (tracer != nullptr) {
    const obs::TraceArgs version{{"version", std::to_string(version_)}};
    tracer->record_span(pid, "download", start, download.end, version);
    tracer->record_span(pid, "compute", download.end, compute_done, version);
    tracer->record_span(pid, "upload", upload.start, upload.end, version);
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
  const obs::SessionScope scope(trainer_.session());
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
  if (!flight.buffers.empty()) {
    nn::load_buffers(trainer_.model().backbone(), flight.buffers);
  }

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
  obs::TraceCollector* tracer = obs::current_trace();
  if (tracer != nullptr && trainer_.trace_registered()) {
    tracer->record_instant(
        trainer_.server_pid(), "apply_update", clock_,
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
