#include "fl/scenario.hpp"

#include <fstream>
#include <limits>
#include <sstream>

#include "obs/session.hpp"
#include "sim/scenario.hpp"
#include "util/thread_pool.hpp"

namespace fedca::fl {

namespace {

using sim::scenario::Document;
using sim::scenario::ScenarioError;

constexpr double kMaxD = std::numeric_limits<double>::max();

// [scheme] hyperparameters that pass through to core::make_scheme's
// Config, each with the type and range the binding checks. A closed list
// so typos stay hard errors.
struct SchemeParam {
  const char* key;
  enum Type { kReal, kInteger, kCompressor } type;
  double lo, hi;  // inclusive bounds, except lo when lo_open
  bool lo_open;
};

constexpr long long kMaxCount = 1000000000;

constexpr SchemeParam kSchemeParams[] = {
    {"fedca_beta", SchemeParam::kReal, 0.0, 1.0, false},
    {"fedca_min_iterations", SchemeParam::kInteger, 0, kMaxCount, false},
    {"fedca_te", SchemeParam::kReal, 0.0, 1.0, false},
    {"fedca_tr", SchemeParam::kReal, -1.0, 1.0, false},
    {"fedca_period", SchemeParam::kInteger, 1, kMaxCount, false},
    {"fedca_sample_fraction", SchemeParam::kReal, 0.0, 1.0, true},
    {"fedca_sample_cap", SchemeParam::kInteger, 1, kMaxCount, false},
    {"fedca_lr_threshold", SchemeParam::kReal, 0.0, kMaxD, false},
    {"fedca_lr_decay", SchemeParam::kReal, 0.0, 1.0, true},
    {"fedprox_mu", SchemeParam::kReal, 0.0, kMaxD, false},
    {"fedada_tradeoff", SchemeParam::kReal, 0.0, 1.0, false},
    {"fedada_min_fraction", SchemeParam::kReal, 0.0, 1.0, true},
    {"compress", SchemeParam::kCompressor, 0, 0, false},
    {"compress_levels", SchemeParam::kInteger, 1, kMaxCount, false},
    {"compress_fraction", SchemeParam::kReal, 0.0, 1.0, true}};

const SchemeParam* find_scheme_param(const std::string& key) {
  for (const SchemeParam& p : kSchemeParams) {
    if (key == p.key) return &p;
  }
  return nullptr;
}

// Consumes [scheme] `key` after checking its value against `p`; throws
// ScenarioError at the key's file:line (or <overrides>:N).
void check_scheme_param(Document& doc, const std::string& key, const SchemeParam& p) {
  switch (p.type) {
    case SchemeParam::kReal: {
      const double v = doc.get_double("scheme", key, 0.0, p.lo, p.hi);
      if (p.lo_open && v == p.lo) {
        std::ostringstream msg;
        msg << "key '" << key << "': value " << v << " out of range (" << p.lo << ", " << p.hi
            << "]";
        throw doc.error_at("scheme", key, msg.str());
      }
      return;
    }
    case SchemeParam::kInteger:
      doc.get_int("scheme", key, 0, static_cast<long long>(p.lo),
                  static_cast<long long>(p.hi));
      return;
    case SchemeParam::kCompressor: {
      const std::string v = doc.get_string("scheme", key, "");
      if (!v.empty() && v != "none" && v != "qsgd" && v != "topk") {
        throw doc.error_at("scheme", key,
                           "key '" + key + "': expected none, qsgd or topk, got '" + v + "'");
      }
      return;
    }
  }
}

bool known_scheme(const std::string& name) {
  for (const char* s : kSchemeNames) {
    if (name == s) return true;
  }
  return false;
}

}  // namespace

bool known_scheme_param(const std::string& key) { return find_scheme_param(key) != nullptr; }

Scenario parse_scenario(const std::string& text, const std::string& filename,
                        const std::vector<std::string>& overrides) {
  Document doc = Document::parse(text, filename);
  for (std::size_t i = 0; i < overrides.size(); ++i) {
    doc.apply_override(overrides[i], i + 1);
  }
  Scenario sc;
  ExperimentOptions& o = sc.options;

  // [scenario] — required, versioned.
  if (!doc.has_section("scenario")) {
    throw ScenarioError(doc.filename(), 0,
                        "missing required [scenario] section "
                        "(with `version = 1`)");
  }
  const long long version =
      doc.get_int("scenario", "version", 0, std::numeric_limits<long long>::min(),
                  std::numeric_limits<long long>::max());
  if (version != 1) {
    throw doc.error_at("scenario", "version",
                       "unsupported scenario version " +
                           std::to_string(version) +
                           " (this build reads version 1; the key is "
                           "required)");
  }
  sc.name = doc.get_string("scenario", "name", "");
  sc.description = doc.get_string("scenario", "description", "");

  // [run]
  doc.allow_section("run");
  o.seed = doc.get_u64("run", "seed", o.seed);
  const std::string engine = doc.get_string("run", "engine", "round");
  if (engine == "async") {
    sc.async_engine = true;
  } else if (engine != "round") {
    throw doc.error_at("run", "engine",
                       "key 'engine': expected round or async, got '" +
                           engine + "'");
  }
  o.max_rounds = doc.get_size("run", "rounds", o.max_rounds, 1, 1000000);
  o.target_accuracy = doc.get_double("run", "target_accuracy",
                                     o.target_accuracy, 0.0, 1.0);
  o.accuracy_smoothing =
      doc.get_size("run", "accuracy_smoothing", o.accuracy_smoothing, 1, 1000);
  o.eval_every = doc.get_size("run", "eval_every", o.eval_every, 1, 1000000);
  o.worker_threads = doc.get_size("run", "workers", o.worker_threads, 0,
                                  util::ThreadPool::kMaxWorkers);

  // [model]
  doc.allow_section("model");
  const std::string kind = doc.get_string("model", "kind", "cnn");
  try {
    o.model = nn::parse_model_kind(kind);
  } catch (const std::invalid_argument&) {
    throw doc.error_at("model", "kind",
                       "key 'kind': expected cnn, lstm, or wrn, got '" +
                           kind + "'");
  }
  o.data_spec.num_classes =
      doc.get_size("model", "classes", o.data_spec.num_classes, 2, 10000);
  o.data_spec.noise_stddev =
      doc.get_double("model", "noise", o.data_spec.noise_stddev, 0.0, 100.0);
  o.data_spec.amplitude_lo = doc.get_double("model", "amplitude_lo",
                                            o.data_spec.amplitude_lo, 0.0, 100.0);
  o.data_spec.amplitude_hi = doc.get_double("model", "amplitude_hi",
                                            o.data_spec.amplitude_hi, 0.0, 100.0);
  if (o.data_spec.amplitude_hi < o.data_spec.amplitude_lo) {
    throw doc.error_at("model", "amplitude_hi",
                       "key 'amplitude_hi': must be >= amplitude_lo");
  }

  // [data]
  doc.allow_section("data");
  o.num_clients = doc.get_size("data", "clients", o.num_clients, 1, 10000000);
  o.train_samples =
      doc.get_size("data", "train_samples", o.train_samples, 1, 100000000);
  o.test_samples =
      doc.get_size("data", "test_samples", o.test_samples, 1, 100000000);
  o.dirichlet_alpha =
      doc.get_double("data", "alpha", o.dirichlet_alpha, 1e-6, 1000.0);
  o.batch_size = doc.get_size("data", "batch", o.batch_size, 1, 1000000);

  // [training]
  doc.allow_section("training");
  o.local_iterations =
      doc.get_size("training", "local_iterations", o.local_iterations, 1,
                   1000000);
  o.optimizer.learning_rate =
      doc.get_double("training", "lr", o.optimizer.learning_rate, 0.0, 1000.0);
  o.optimizer.weight_decay = doc.get_double(
      "training", "weight_decay", o.optimizer.weight_decay, 0.0, 1.0);
  o.optimizer.prox_mu =
      doc.get_double("training", "prox_mu", o.optimizer.prox_mu, 0.0, 1000.0);
  const std::string wire =
      doc.get_string("training", "eager_wire", eager_wire_name(o.eager_wire));
  try {
    o.eager_wire = parse_eager_wire(wire);
  } catch (const std::invalid_argument&) {
    throw doc.error_at("training", "eager_wire",
                       "key 'eager_wire': expected fp32 or int8, got '" +
                           wire + "'");
  }

  // [server]
  doc.allow_section("server");
  o.collect_fraction =
      doc.get_double("server", "collect_fraction", o.collect_fraction, 0.0, 1.0);
  o.participation_fraction = doc.get_double(
      "server", "participation", o.participation_fraction, 0.0, 1.0);
  o.upload_timeout = doc.get_duration("server", "upload_timeout",
                                      o.upload_timeout);

  // [scheme] — name plus whitelisted passthrough.
  doc.allow_section("scheme");
  sc.scheme = doc.get_string("scheme", "name", sc.scheme);
  if (!known_scheme(sc.scheme)) {
    throw doc.error_at("scheme", "name",
                       "key 'name': unknown scheme '" + sc.scheme + "'");
  }
  for (const auto& [key, entry] : doc.remaining("scheme")) {
    const SchemeParam* param = find_scheme_param(key);
    if (param == nullptr) {
      throw doc.error_at("scheme", key,
                         "unknown scheme parameter '" + key + "' in [scheme]");
    }
    check_scheme_param(doc, key, *param);
    sc.scheme_params[key] = entry.value;
  }

  // [cluster]
  doc.allow_section("cluster");
  sim::ClusterOptions& cl = o.cluster;
  cl.link_latency_seconds = doc.get_double(
      "cluster", "link_latency", cl.link_latency_seconds, 0.0, 3600.0);
  cl.heterogeneity.speed_sigma = doc.get_double(
      "cluster", "speed_sigma", cl.heterogeneity.speed_sigma, 0.0, 10.0);
  cl.heterogeneity.min_speed = doc.get_double(
      "cluster", "min_speed", cl.heterogeneity.min_speed, 1e-6, 1000.0);
  cl.heterogeneity.max_speed = doc.get_double(
      "cluster", "max_speed", cl.heterogeneity.max_speed, 1e-6, 1000.0);
  if (cl.heterogeneity.max_speed < cl.heterogeneity.min_speed) {
    throw doc.error_at("cluster", "max_speed",
                       "key 'max_speed': must be >= min_speed");
  }
  cl.heterogeneity.bandwidth_mbps = doc.get_double(
      "cluster", "bandwidth_mbps", cl.heterogeneity.bandwidth_mbps, 1e-6,
      1e6);
  cl.dynamicity.enabled =
      doc.get_bool("cluster", "dynamicity", cl.dynamicity.enabled);
  cl.dynamicity.slowdown_lo = doc.get_double(
      "cluster", "slowdown_lo", cl.dynamicity.slowdown_lo, 1.0, 1000.0);
  cl.dynamicity.slowdown_hi = doc.get_double(
      "cluster", "slowdown_hi", cl.dynamicity.slowdown_hi, 1.0, 1000.0);
  if (cl.dynamicity.slowdown_hi < cl.dynamicity.slowdown_lo) {
    throw doc.error_at("cluster", "slowdown_hi",
                       "key 'slowdown_hi': must be >= slowdown_lo");
  }

  // [population] — the availability-dynamics layer. Absent section keeps
  // every client online (bit-identical to a build without the layer).
  doc.allow_section("population");
  sim::AvailabilityOptions& av = cl.availability;
  av.enabled = doc.get_bool("population", "availability", av.enabled);
  av.mean_on = doc.get_double("population", "mean_on", av.mean_on, 1e-6, kMaxD);
  av.mean_off =
      doc.get_double("population", "mean_off", av.mean_off, 1e-6, kMaxD);
  av.day_period =
      doc.get_double("population", "day_period", av.day_period, 1e-6, kMaxD);
  av.day_amplitude = doc.get_double("population", "day_amplitude",
                                    av.day_amplitude, 0.0, 0.9);
  av.outage_groups = doc.get_size("population", "outage_groups",
                                  av.outage_groups, 0, 1000000);
  av.outage_rate =
      doc.get_double("population", "outage_rate", av.outage_rate, 0.0, 1e6);
  av.outage_mean =
      doc.get_double("population", "outage_mean", av.outage_mean, 0.0, kMaxD);
  av.seed = doc.get_u64("population", "seed", av.seed);

  // [faults]
  doc.allow_section("faults");
  sim::FaultScheduleOptions& f = o.faults;
  f.enabled = doc.get_bool("faults", "enabled", f.enabled);
  f.horizon_seconds =
      doc.get_double("faults", "horizon", f.horizon_seconds, 0.0, kMaxD);
  f.crash_fraction =
      doc.get_double("faults", "crash_fraction", f.crash_fraction, 0.0, 1.0);
  f.dropouts_per_client = doc.get_double(
      "faults", "dropouts_per_client", f.dropouts_per_client, 0.0, 1e6);
  f.dropout_mean_seconds = doc.get_double(
      "faults", "dropout_mean", f.dropout_mean_seconds, 0.0, kMaxD);
  f.slowdowns_per_client = doc.get_double(
      "faults", "slowdowns_per_client", f.slowdowns_per_client, 0.0, 1e6);
  f.slowdown_mean_seconds = doc.get_double(
      "faults", "slowdown_mean", f.slowdown_mean_seconds, 0.0, kMaxD);
  f.slowdown_factor_lo = doc.get_double(
      "faults", "slowdown_factor_lo", f.slowdown_factor_lo, 1.0, 1e6);
  f.slowdown_factor_hi = doc.get_double(
      "faults", "slowdown_factor_hi", f.slowdown_factor_hi, 1.0, 1e6);
  f.link_faults_per_client = doc.get_double(
      "faults", "link_faults_per_client", f.link_faults_per_client, 0.0, 1e6);
  f.link_fault_mean_seconds = doc.get_double(
      "faults", "link_fault_mean", f.link_fault_mean_seconds, 0.0, kMaxD);
  f.link_factor_lo =
      doc.get_double("faults", "link_factor_lo", f.link_factor_lo, 0.0, 1.0);
  f.link_factor_hi =
      doc.get_double("faults", "link_factor_hi", f.link_factor_hi, 0.0, 1.0);
  f.eager_loss_probability = doc.get_double(
      "faults", "eager_loss", f.eager_loss_probability, 0.0, 1.0);
  f.eager_truncate_probability = doc.get_double(
      "faults", "eager_truncate", f.eager_truncate_probability, 0.0, 1.0);
  f.seed = doc.get_u64("faults", "seed", f.seed);

  // [async]
  doc.allow_section("async");
  if (doc.has_section("async") && !sc.async_engine) {
    throw ScenarioError(doc.filename(), 0,
                        "[async] section requires `engine = async` in [run]");
  }
  sc.async_updates = doc.get_size("async", "updates", sc.async_updates, 1,
                                  100000000);
  sc.async.local_iterations = doc.get_size(
      "async", "local_iterations", o.local_iterations, 1, 1000000);
  sc.async.batch_size = doc.get_size("async", "batch", o.batch_size, 1,
                                     1000000);
  sc.async.mix = doc.get_double("async", "mix", sc.async.mix, 0.0, 1.0);
  sc.async.staleness_power = doc.get_double(
      "async", "staleness_power", sc.async.staleness_power, 0.0, 100.0);
  sc.async.cycle_timeout =
      doc.get_duration("async", "cycle_timeout", sc.async.cycle_timeout);

  // [observability]
  doc.allow_section("observability");
  o.trace_path = doc.get_string("observability", "trace", o.trace_path);
  o.metrics_path = doc.get_string("observability", "metrics", o.metrics_path);
  o.report_path = doc.get_string("observability", "report", o.report_path);

  doc.finish();
  return sc;
}

Scenario load_scenario_file(const std::string& path,
                            const std::vector<std::string>& overrides) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw ScenarioError(path, 0, "cannot open scenario file");
  }
  std::ostringstream text;
  text << in.rdbuf();
  return parse_scenario(text.str(), path, overrides);
}

std::vector<std::string> env_overrides() {
  std::vector<std::string> out;
  const obs::EnvOutputs env = obs::read_env();
  if (env.trace_path) out.push_back("observability.trace=" + *env.trace_path);
  if (env.metrics_path) out.push_back("observability.metrics=" + *env.metrics_path);
  if (env.report_path) out.push_back("observability.report=" + *env.report_path);
  if (const std::size_t workers = util::ThreadPool::env_workers()) {
    out.push_back("run.workers=" + std::to_string(workers));
  }
  return out;
}

util::Config scheme_config(const Scenario& sc) {
  util::Config config;
  for (const auto& [key, value] : sc.scheme_params) {
    config.set(key, value);
  }
  return config;
}

}  // namespace fedca::fl
