#include "workloads.hpp"

#include <cinttypes>
#include <cstdio>
#include <stdexcept>

#include "core/factory.hpp"
#include "timing.hpp"

namespace fedca::suite {

namespace {

// Two worker threads: the engines' parallel dispatch path (a thread pool
// and model replicas), which users get by default, instead of the serial
// one a single worker takes.
constexpr std::size_t kWorkers = 2;
// The seed Table 1's quick-scale results are reported at.
constexpr std::uint64_t kTable1Seed = 42;

// The compact registry is the only population path once the legacy cluster
// is deleted; this line then compiles away with the field.
template <typename Options>
void use_compact_registry(Options& o) {
  if constexpr (requires { o.compact; }) o.compact = true;
}

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, v);
  return buf;
}

// Table 1 quick-scale geometry: 10 clients, K=30, batch 10, 600 samples
// under Dirichlet(0.1), ~5 local epochs per round.
fl::ExperimentOptions table1_quick(nn::ModelKind model, std::uint64_t seed) {
  fl::ExperimentOptions o;
  o.model = model;
  o.num_clients = 10;
  o.local_iterations = 30;
  o.batch_size = 10;
  o.train_samples = 600;
  o.test_samples = 320;
  o.dirichlet_alpha = 0.1;
  o.collect_fraction = 0.9;
  o.participation_fraction = 1.0;
  o.accuracy_smoothing = 3;
  o.eval_every = 1;
  o.target_accuracy = 0.0;
  o.cluster.dynamicity.enabled = true;
  o.cluster.heterogeneity.bandwidth_mbps = 13.7;
  o.worker_threads = kWorkers;
  o.seed = seed;
  if (model == nn::ModelKind::kLstm) {
    o.data_spec.noise_stddev = 1.0;
    o.optimizer = {0.10, 0.01, 0.0};
  } else {
    o.data_spec.noise_stddev = 1.6;
    o.optimizer = {0.05, 0.01, 0.0};
  }
  return o;
}

// The Table 1 cell itself (its data, partition and devices at the seed the
// paper results use), with the seed driving FedCA's profiler sampling:
// every seed changes FedCA's early-stop and eager decisions bit for bit,
// but not the cell. With the cell's data drawn from the seed too, the
// amount of local work a run does moves by ~10% between seeds.
Workload tta_cnn_fedca(std::uint64_t seed, bool smoke) {
  Workload w;
  w.name = "tta_cnn_fedca";
  w.options = table1_quick(nn::ModelKind::kCnn, kTable1Seed);
  w.options.max_rounds = smoke ? 3 : 23;
  w.scheme = "fedca";
  w.scheme_seed = seed;
  // FedCA v3 with the quick-scale 1-in-5 anchor period; the rest are the
  // paper's Sec. 5.1 values, written out so factory defaults cannot move
  // the workload.
  for (const auto& [key, value] :
       {std::pair<const char*, const char*>{"fedca_period", "5"},
        {"fedca_beta", "0.01"},
        {"fedca_min_iterations", "1"},
        {"fedca_te", "0.95"},
        {"fedca_tr", "0.6"},
        {"fedca_sample_fraction", "0.5"},
        {"fedca_sample_cap", "100"}}) {
    w.scheme_config.set(key, value);
  }
  w.target = 0.55;
  return w;
}

Workload tta_lstm_fedavg(std::uint64_t seed, bool smoke) {
  Workload w;
  w.name = "tta_lstm_fedavg";
  w.options = table1_quick(nn::ModelKind::kLstm, seed);
  w.options.max_rounds = smoke ? 3 : 15;
  w.scheme = "fedavg";
  w.scheme_seed = seed;
  w.target = 0.85;
  return w;
}

// A million clients on the compact registry, one batch-1 step per
// participant: per-participant machinery (lease, loader restore, state
// load/capture, selection, availability, aggregation) is as large a share
// of the round as this simulator allows.
Workload pop_1m_fedsgd(std::uint64_t seed, bool smoke) {
  Workload w;
  w.name = "pop_1m_fedsgd";
  fl::ExperimentOptions& o = w.options;
  o.model = nn::ModelKind::kCnn;
  o.num_clients = smoke ? 10'000 : 1'000'000;
  o.shard_pool = 64;
  o.local_iterations = 1;
  o.batch_size = 1;
  o.train_samples = 2048;
  o.test_samples = 64;
  o.dirichlet_alpha = 0.1;
  o.optimizer = {0.05, 0.0, 0.0};
  o.collect_fraction = 0.9;
  o.participation_fraction = 1024.0 / static_cast<double>(o.num_clients);
  o.max_rounds = smoke ? 3 : 40;
  o.eval_every = o.max_rounds;  // run_experiment evaluates rounds 0 and last
  o.target_accuracy = 0.0;
  o.cluster.dynamicity.enabled = true;
  o.cluster.availability.enabled = true;
  use_compact_registry(o.cluster);
  o.worker_threads = kWorkers;
  o.seed = seed;
  w.scheme = "fedavg";
  w.scheme_seed = seed;
  return w;
}

// Table 1 quick-scale CNN on the asynchronous engine (FedAsync mixing).
Workload async_cnn(std::uint64_t seed, bool smoke) {
  Workload w;
  w.name = "async_cnn";
  w.async = true;
  w.options = table1_quick(nn::ModelKind::kCnn, seed);
  fl::AsyncEngineOptions& a = w.async_options;
  a.local_iterations = w.options.local_iterations;
  a.batch_size = w.options.batch_size;
  a.optimizer = w.options.optimizer;
  a.mix = 0.6;
  a.staleness_power = 0.5;
  a.worker_threads = kWorkers;
  // Speculative batches of two: the winner plus the next arrival. An
  // unbounded batch trains every in-flight cycle, so how many trained but
  // never applied cycles a run ends with would change with the seed.
  a.speculative_cap = 2;
  w.updates = smoke ? 20 : 160;
  w.window = w.options.num_clients;
  return w;
}

void add(RepResult& r, const char* key, std::string value) {
  r.outputs.emplace_back(key, std::move(value));
}

RepResult run_sync(const Workload& w, bool traced, std::size_t limit) {
  fl::ExperimentOptions options = w.options;
  if (limit > 0) options.max_rounds = limit;
  const std::size_t rounds = options.max_rounds;
  TimedScheme scheme(core::make_scheme(w.scheme, w.scheme_config, w.scheme_seed), traced,
                     rounds - 1);
  RunStamps& stamps = scheme.stamps();
  stamps.entry_ns = now_ns();
  const fl::ExperimentResult result = fl::run_experiment(options, scheme);
  stamps.end_ns = now_ns();
  scheme.finish(stamps.end_ns);
  if (traced) record_span("setup", "", stamps.entry_ns, stamps.bind_ns, -1);
  if (result.rounds.size() != rounds || stamps.round_start_ns.size() != rounds) {
    throw std::runtime_error("run ended after " + std::to_string(result.rounds.size()) +
                             " of " + std::to_string(rounds) + " rounds");
  }

  RepResult r;
  r.traced = traced;
  r.setup_s = static_cast<double>(stamps.bind_ns - stamps.entry_ns) * 1e-9;
  r.wall_s = static_cast<double>(stamps.end_ns - stamps.bind_ns) * 1e-9;
  for (std::size_t i = 0; i < rounds; ++i) {
    const std::int64_t end = i + 1 < rounds ? stamps.round_start_ns[i + 1] : stamps.end_ns;
    r.round_ms.push_back(static_cast<double>(end - stamps.round_start_ns[i]) * 1e-6);
  }
  for (const fl::RoundSummary& round : result.rounds) {
    Fnv fnv;
    fnv << round.round_index << round.start_time << round.end_time << round.deadline;
    for (const fl::ClientRoundSummary& c : round.clients) {
      r.steps += c.iterations_run;
      if (!c.collected) r.wasted_steps += c.iterations_run;
      r.eager_layers += c.eager.size();
      fnv << c.client_id << c.iterations_run << c.planned_iterations << c.early_stopped
          << c.arrival_time << c.compute_seconds << c.bytes_sent << c.eager_bytes
          << c.collected << c.collected_weight << c.failed;
      for (const auto& e : c.eager) {
        r.retransmitted_layers += e.retransmitted ? 1 : 0;
        fnv << e.layer << e.iteration << e.retransmitted;
      }
    }
    r.record_fnv.push_back(fnv.hash);
  }

  // Time-to-target by run_experiment's own rule (smoothed accuracy over the
  // last accuracy_smoothing evaluations), without stopping the run.
  bool reached = false;
  std::size_t rounds_to_target = 0;
  double time_to_target = 0.0;
  for (std::size_t i = 0; w.target > 0.0 && i < result.curve.size() && !reached; ++i) {
    const std::size_t from = i + 1 > options.accuracy_smoothing
                                 ? i + 1 - options.accuracy_smoothing
                                 : 0;
    double sum = 0.0;
    for (std::size_t j = from; j <= i; ++j) sum += result.curve[j].accuracy;
    if (sum / static_cast<double>(i + 1 - from) >= w.target) {
      reached = true;
      rounds_to_target = result.curve[i].round_index + 1;
      time_to_target = result.curve[i].virtual_time;
    }
  }
  if (w.target > 0.0) {
    add(r, "reached_target", reached ? "1" : "0");
    add(r, "rounds_to_target", std::to_string(rounds_to_target));
    add(r, "time_to_target", exact(time_to_target));
  }
  if (options.cluster.availability.enabled) {
    add(r, "participants", std::to_string(stamps.participants));
    add(r, "offline_skips", std::to_string(stamps.offline));
  }
  add(r, "final_accuracy", exact(result.final_accuracy));
  add(r, "total_time", exact(result.total_time));
  add(r, "state_fnv", hex(stamps.state_fnv));
  return r;
}

RepResult run_async(const Workload& w, bool traced, std::size_t limit) {
  const std::size_t updates = limit > 0 ? limit : w.updates;
  RepResult r;
  r.traced = traced;
  const std::int64_t entry = now_ns();
  fl::FedAvgScheme placeholder;  // make_setup plumbing only; never trains
  fl::ExperimentSetup setup = fl::make_setup(w.options, placeholder);
  fl::AsyncEngine engine(setup.model.get(), setup.cluster.get(), setup.shards,
                         w.async_options, util::Rng(w.options.seed ^ 0xA57));
  const std::int64_t start = now_ns();
  r.setup_s = static_cast<double>(start - entry) * 1e-9;
  if (traced) record_span("setup", "", entry, start, -1);

  std::int64_t window_start = start;
  for (std::size_t i = 0; i < updates; ++i) {
    const auto round = static_cast<std::int64_t>(i / w.window);
    const std::int64_t t = now_ns();
    const fl::AsyncUpdateRecord record = engine.step();
    // One step(): speculative training + apply.
    if (traced) record_span("train", "round", t, now_ns(), round, record.client_id);
    if (!record.lost) r.steps += w.async_options.local_iterations;
    Fnv fnv;
    r.record_fnv.push_back((fnv << record.client_id << record.arrival_time
                                << record.downloaded_version << record.applied_version
                                << record.staleness << record.weight << record.lost)
                               .hash);
    const bool last = i + 1 == updates;
    if ((i + 1) % w.window != 0 && !last) continue;
    if (last) {
      // The final evaluation belongs to the last round, as in run_experiment.
      const std::int64_t e = now_ns();
      engine.load_global_into_model();
      const data::Batch test = setup.test_set.as_batch();
      const double accuracy = setup.model->evaluate(test.inputs, test.labels).accuracy;
      add(r, "final_accuracy", exact(accuracy));
      if (traced) record_span("eval", "round", e, now_ns(), round);
    }
    const std::int64_t end = now_ns();
    r.round_ms.push_back(static_cast<double>(end - window_start) * 1e-6);
    if (traced) record_span("round", "", window_start, end, round);
    window_start = end;
  }
  r.wall_s = static_cast<double>(window_start - start) * 1e-9;
  add(r, "global_version", std::to_string(engine.global_version()));
  add(r, "clock", exact(engine.now()));
  add(r, "state_fnv", hex(fnv1a(engine.global_state())));
  return r;
}

}  // namespace

std::string exact(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

Workload make_workload(const std::string& name, std::uint64_t seed, bool smoke) {
  if (name == "tta_cnn_fedca") return tta_cnn_fedca(seed, smoke);
  if (name == "tta_lstm_fedavg") return tta_lstm_fedavg(seed, smoke);
  if (name == "pop_1m_fedsgd") return pop_1m_fedsgd(seed, smoke);
  if (name == "async_cnn") return async_cnn(seed, smoke);
  throw std::invalid_argument("unknown workload '" + name + "'");
}

RepResult run_rep(const Workload& workload, bool traced, std::size_t limit) {
  return workload.async ? run_async(workload, traced, limit)
                        : run_sync(workload, traced, limit);
}

double run_setup(const Workload& w) {
  const std::int64_t entry = now_ns();
  if (w.async) {
    fl::FedAvgScheme placeholder;
    fl::ExperimentSetup setup = fl::make_setup(w.options, placeholder);
    fl::AsyncEngine engine(setup.model.get(), setup.cluster.get(), setup.shards,
                           w.async_options, util::Rng(w.options.seed ^ 0xA57));
    return static_cast<double>(now_ns() - entry) * 1e-9;
  }
  TimedScheme scheme(core::make_scheme(w.scheme, w.scheme_config, w.scheme_seed), false, 0);
  const fl::ExperimentSetup setup = fl::make_setup(w.options, scheme);
  return static_cast<double>(scheme.stamps().bind_ns - entry) * 1e-9;
}

}  // namespace fedca::suite
