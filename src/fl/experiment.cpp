#include "fl/experiment.hpp"

#include <algorithm>
#include <numeric>
#include <map>
#include <utility>

#include "obs/session.hpp"
#include "util/logging.hpp"

namespace fedca::fl {

std::vector<double> ExperimentResult::early_stop_iterations() const {
  std::vector<double> out;
  for (const RoundSummary& round : rounds) {
    for (const ClientRoundSummary& c : round.clients) {
      if (c.early_stopped) out.push_back(static_cast<double>(c.iterations_run));
    }
  }
  return out;
}

std::vector<double> ExperimentResult::eager_iterations(bool effective_with_retrans) const {
  std::vector<double> out;
  for (const RoundSummary& round : rounds) {
    for (const ClientRoundSummary& c : round.clients) {
      for (const auto& e : c.eager) {
        if (effective_with_retrans && e.retransmitted) {
          out.push_back(static_cast<double>(c.iterations_run));
        } else {
          out.push_back(static_cast<double>(e.iteration));
        }
      }
    }
  }
  return out;
}

ExperimentSetup make_setup(const ExperimentOptions& options, Scheme& scheme) {
  return make_setup(options, scheme,
                    obs::resolve_outputs(options.trace_path, options.metrics_path,
                                         options.report_path));
}

ExperimentSetup make_setup(const ExperimentOptions& options, Scheme& scheme,
                           obs::SessionOptions outputs) {
  util::Rng root(options.seed);
  util::Rng model_rng = root.fork(1);
  util::Rng data_rng = root.fork(2);
  util::Rng partition_rng = root.fork(3);
  util::Rng cluster_rng = root.fork(4);
  util::Rng loader_rng = root.fork(5);

  ExperimentSetup setup;
  setup.session = std::make_unique<obs::Session>(std::move(outputs));
  const obs::SessionScope scope(setup.session.get());
  setup.model = std::make_unique<nn::Classifier>(
      [&] { return nn::build_model(options.model, model_rng); }());

  // One task fixes the class structure; train and test sets are disjoint
  // draws from it.
  data::SyntheticTask task(options.model, options.data_spec, data_rng);
  util::Rng train_rng = data_rng.fork(10);
  util::Rng test_rng = data_rng.fork(11);
  data::Dataset full_train = task.sample(options.train_samples, train_rng);
  setup.test_set = task.sample(options.test_samples, test_rng);

  data::PartitionOptions part;
  part.num_clients = options.shard_pool > 0
                         ? std::min(options.shard_pool, options.num_clients)
                         : options.num_clients;
  part.num_classes = options.data_spec.num_classes;
  part.alpha = options.dirichlet_alpha;
  part.min_examples_per_client = std::max<std::size_t>(2, options.batch_size / 2);
  setup.shards = data::dirichlet_partition(full_train, part, partition_rng);

  sim::ClusterOptions cluster_options = options.cluster;
  cluster_options.num_clients = options.num_clients;
  setup.cluster = std::make_unique<sim::Cluster>(cluster_options, cluster_rng);
  setup.faults = sim::FaultInjector::from_options(options.faults, options.num_clients);
  if (setup.faults != nullptr) setup.cluster->install_faults(setup.faults);

  RoundEngineOptions engine_options;
  engine_options.local_iterations = options.local_iterations;
  engine_options.batch_size = options.batch_size;
  engine_options.optimizer = options.optimizer;
  engine_options.collect_fraction = options.collect_fraction;
  engine_options.participation_fraction = options.participation_fraction;
  engine_options.upload_timeout = options.upload_timeout;
  engine_options.eager_wire = options.eager_wire;
  engine_options.worker_threads = options.worker_threads;
  setup.engine = std::make_unique<RoundEngine>(setup.model.get(), setup.cluster.get(),
                                               setup.shards, &scheme, engine_options,
                                               loader_rng, setup.session.get());
  return setup;
}

nn::Classifier::EvalResult evaluate_global(ExperimentSetup& setup) {
  setup.engine->load_global_into_model();
  const data::Batch test = setup.test_set.as_batch();
  return setup.model->evaluate(test.inputs, test.labels);
}

namespace {

RoundSummary summarize(const RoundRecord& record) {
  RoundSummary summary;
  summary.round_index = record.round_index;
  summary.start_time = record.start_time;
  summary.end_time = record.end_time;
  summary.deadline = record.deadline;
  // Ordered map, not unordered: this is an output-affecting path (the
  // summaries land in result tables), and the fedca_analyze unordered-iter
  // rule bans hash containers here — lookup-only today is one range-for
  // away from hash-order output tomorrow. Size is O(participants), so the
  // tree map costs nothing measurable.
  std::map<std::size_t, double> collected;
  for (std::size_t k = 0; k < record.collected.size(); ++k) {
    collected.emplace(record.collected[k],
                      k < record.collected_weights.size()
                          ? record.collected_weights[k]
                          : 0.0);
  }
  summary.clients.reserve(record.clients.size());
  for (std::size_t i = 0; i < record.clients.size(); ++i) {
    const ClientRoundResult& r = record.clients[i];
    ClientRoundSummary c;
    c.client_id = r.client_id;
    c.iterations_run = r.iterations_run;
    c.planned_iterations = r.planned_iterations;
    c.early_stopped = r.early_stopped;
    c.arrival_time = r.arrival_time;
    c.compute_seconds = r.compute_seconds;
    c.bytes_sent = r.bytes_sent;
    c.eager_bytes = r.eager_bytes;
    c.failed = r.failed;
    const auto it = collected.find(i);
    c.collected = it != collected.end();
    c.collected_weight = c.collected ? it->second : 0.0;
    c.eager.reserve(r.eager.size());
    for (const EagerRecord& e : r.eager) {
      c.eager.push_back({e.layer, e.iteration, e.retransmitted});
    }
    summary.clients.push_back(std::move(c));
  }
  return summary;
}

}  // namespace

ExperimentResult run_experiment(const ExperimentOptions& options, Scheme& scheme) {
  // The setup's session collects this run's outputs and writes them when
  // the setup goes out of scope, on return or on an exception.
  ExperimentSetup setup = make_setup(options, scheme);
  const obs::SessionScope scope(setup.session.get());
  ExperimentResult result;
  result.scheme_name = scheme.name();
  result.model_name = setup.model->info().name;

  std::vector<double> recent_acc;
  for (std::size_t round = 0; round < options.max_rounds; ++round) {
    RoundRecord record = setup.engine->run_round();
    result.rounds.push_back(summarize(record));

    if (round % std::max<std::size_t>(1, options.eval_every) == 0 ||
        round + 1 == options.max_rounds) {
      const nn::Classifier::EvalResult eval = evaluate_global(setup);
      EvalPoint point;
      point.round_index = record.round_index;
      point.virtual_time = record.end_time;
      point.accuracy = eval.accuracy;
      point.loss = eval.loss;
      result.curve.push_back(point);
      result.final_accuracy = eval.accuracy;

      recent_acc.push_back(eval.accuracy);
      if (recent_acc.size() > options.accuracy_smoothing) {
        recent_acc.erase(recent_acc.begin());
      }
      const double smoothed =
          std::accumulate(recent_acc.begin(), recent_acc.end(), 0.0) /
          static_cast<double>(recent_acc.size());
      FEDCA_LOG_INFO("experiment")
          << scheme.name() << " round " << record.round_index << " t="
          << record.end_time << " acc=" << eval.accuracy << " smoothed=" << smoothed;
      if (options.target_accuracy > 0.0 && !result.reached_target &&
          smoothed >= options.target_accuracy) {
        result.reached_target = true;
        result.time_to_target = record.end_time;
        result.rounds_to_target = record.round_index + 1;
        break;
      }
    }
  }

  result.total_time = setup.engine->now();
  if (!result.rounds.empty()) {
    double sum = 0.0;
    for (const RoundSummary& r : result.rounds) sum += r.duration();
    result.mean_round_seconds = sum / static_cast<double>(result.rounds.size());
  }
  FEDCA_MGAUGE("experiment.final_accuracy", result.final_accuracy);
  FEDCA_MGAUGE("experiment.total_virtual_seconds", result.total_time);
  FEDCA_MGAUGE("experiment.rounds", static_cast<double>(result.rounds.size()));
  return result;
}

}  // namespace fedca::fl
