// Scenario DSL, FL binding: maps a parsed scenario document (see
// src/sim/scenario.hpp for the grammar) onto ExperimentOptions + scheme
// selection, and implements the three-tier precedence contract
//
//     scenario file  <  FEDCA_* environment  <  programmatic override.
//
// load_scenario_file()/parse_scenario() read ONLY the file (the scenario
// tier) — tests that must be hermetic from the caller's environment use
// Scenario::options directly. resolve_options() overlays the environment
// tier (FEDCA_TRACE / FEDCA_METRICS / FEDCA_REPORT / FEDCA_THREADS);
// callers apply the programmatic tier by mutating the returned struct,
// which trivially wins. This is consistent with the
// pre-scenario contract pinned by tests/fl/options_precedence_test.cpp:
// explicit ExperimentOptions fields beat the environment, and the
// environment beats a scenario file.
//
// Format reference (version 1; every key optional unless noted, defaults
// are the ExperimentOptions defaults — see README "Scenarios"):
//
//   [scenario] version (required, = 1), name, description
//   [run]      seed, engine (round|async), rounds, target_accuracy,
//              accuracy_smoothing, eval_every, workers
//   [model]    kind (cnn|lstm|wrn), classes, noise, amplitude_lo,
//              amplitude_hi
//   [data]     clients, train_samples, test_samples, alpha, batch
//   [training] local_iterations, lr, weight_decay, prox_mu
//   [server]   collect_fraction, participation, upload_timeout
//              (seconds or `none`)
//   [scheme]   name (one of kSchemeNames below)
//              plus whitelisted hyperparameter passthrough keys
//              (fedca_*, fedprox_mu, fedada_*, compress*)
//   [cluster]  link_latency, speed_sigma, min_speed, max_speed,
//              bandwidth_mbps, dynamicity, slowdown_lo, slowdown_hi
//   [population] availability, mean_on, mean_off, day_period,
//              day_amplitude, outage_groups, outage_rate, outage_mean,
//              seed
//   [faults]   enabled, horizon, crash_fraction, dropouts_per_client,
//              dropout_mean, slowdowns_per_client, slowdown_mean,
//              slowdown_factor_lo, slowdown_factor_hi,
//              link_faults_per_client, link_fault_mean, link_factor_lo,
//              link_factor_hi, eager_loss, eager_truncate, seed
//   [async]    updates, local_iterations, batch, mix, staleness_power,
//              cycle_timeout (engine = async only)
//   [observability] trace, metrics, report (output paths; committed
//              scenarios leave these to the env/override tiers)
//
// Unknown sections and keys are hard errors with file:line diagnostics.
#pragma once

#include <map>
#include <string>

#include "fl/async_engine.hpp"
#include "fl/experiment.hpp"
#include "util/config.hpp"

namespace fedca::fl {

// A fully-resolved scenario: everything a run needs, scenario tier only.
struct Scenario {
  std::string name;
  std::string description;
  std::string scheme = "fedavg";
  // Whitelisted [scheme] hyperparameters, passed to core::make_scheme via
  // scheme_config() (kept as strings — util::Config is string-typed).
  std::map<std::string, std::string> scheme_params;
  // [run] engine: false = synchronous RoundEngine via run_experiment(),
  // true = AsyncEngine driven for `async_updates` updates.
  bool async_engine = false;
  std::size_t async_updates = 16;
  AsyncEngineOptions async;  // [async] knobs (optimizer/worker filled at run)
  ExperimentOptions options;
};

// Parses scenario text / a scenario file. Throws sim::scenario::
// ScenarioError (file:line in what()) on any grammar, type, range,
// unknown-key, or unknown-section violation; a file that cannot be read
// is a ScenarioError at line 0.
Scenario parse_scenario(const std::string& text,
                        const std::string& filename = "<scenario>");
Scenario load_scenario_file(const std::string& path);

// Environment tier: the scenario's options with FEDCA_TRACE /
// FEDCA_METRICS / FEDCA_REPORT / FEDCA_THREADS overrides applied on top. Mutate the result for programmatic overrides.
ExperimentOptions resolve_options(const Scenario& scenario);

// Config for core::make_scheme carrying the scenario's [scheme] params.
util::Config scheme_config(const Scenario& scenario);

// The scheme names core::make_scheme accepts: the one list [scheme] name
// is checked against. fl cannot depend on core (core depends on fl), so
// core_fedca_test builds every entry through the factory to keep the two
// in sync.
inline constexpr const char* kSchemeNames[] = {"fedavg",   "fedprox",  "fedada",
                                               "fedca",    "fedca_v1", "fedca_v2",
                                               "fedca_v3", "fedca_lr"};

// True for a hyperparameter key core::make_scheme reads (fedca_beta,
// compress, ...): the closed list a [scheme] section may set.
bool known_scheme_param(const std::string& key);

}  // namespace fedca::fl
