// Million-client machinery: registry byte identity, availability
// determinism across worker counts, outage marginal statistics, and
// pooled-replica rebind identity.
//
// The compact ClientRegistry (sim/client_registry.hpp) replaced a
// representation that kept one live ClientDevice and one persistent
// BatchLoader per client. Before that representation was deleted, runs on
// it were fingerprinted (same global model bytes, same rosters, same
// virtual clock) and the digests are pinned below, so the registry is
// still held to bit-identity with it across worker counts {1, 2, 8}, with
// and without availability churn.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <vector>

#include "fl/experiment.hpp"
#include "fl/scheme.hpp"
#include "sim/availability.hpp"
#include "sim/cluster.hpp"
#include "trace/trace.hpp"
#include "util/rng.hpp"

namespace fedca {
namespace {

// The paper's population size (128 clients) at CI-friendly training cost:
// a 32-client sampled cohort, two local iterations, two rounds. Built
// programmatically (not from a .scn) because the tests sweep a
// workers matrix over the same geometry.
fl::ExperimentOptions scale_options() {
  fl::ExperimentOptions options;  // analyze:waive(scenario-hardcode)
  options.model = nn::ModelKind::kCnn;
  options.num_clients = 128;
  options.train_samples = 1280;
  options.test_samples = 16;
  options.batch_size = 8;
  options.local_iterations = 2;
  options.participation_fraction = 0.25;  // 32-client cohort per round
  options.max_rounds = 2;
  options.worker_threads = 1;
  options.seed = 97;
  return options;
}

// Everything a run can disagree on: final global model bytes, per-round
// rosters/arrivals/aggregation weights, availability accounting, and the
// virtual clock.
struct RunFingerprint {
  std::vector<float> state;
  std::vector<std::size_t> roster;          // (round-major) participant ids
  std::vector<double> arrivals;             // parallel to roster
  std::vector<std::size_t> collected;       // per-round collected indices
  std::vector<double> collected_weights;    // parallel to collected
  std::vector<std::size_t> population;      // per round
  std::vector<std::size_t> offline;         // per round
  double end_time = 0.0;
};

RunFingerprint run_once(const fl::ExperimentOptions& options) {
  fl::FedAvgScheme scheme;
  fl::ExperimentSetup setup = fl::make_setup(options, scheme);
  RunFingerprint fp;
  for (std::size_t r = 0; r < options.max_rounds; ++r) {
    const fl::RoundRecord record = setup.engine->run_round();
    for (const auto& client : record.clients) {
      fp.roster.push_back(client.client_id);
      fp.arrivals.push_back(client.arrival_time);
    }
    fp.collected.insert(fp.collected.end(), record.collected.begin(),
                        record.collected.end());
    fp.collected_weights.insert(fp.collected_weights.end(),
                                record.collected_weights.begin(),
                                record.collected_weights.end());
    fp.population.push_back(record.population);
    fp.offline.push_back(record.offline);
  }
  fp.state = setup.engine->global_state().flattened();
  fp.end_time = setup.engine->now();
  return fp;
}

// FNV-1a over every fingerprint field (lengths first, then the raw
// little-endian bytes), so one 64-bit value pins a whole run.
std::uint64_t fingerprint_digest(const RunFingerprint& fp) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](const void* data, std::size_t bytes) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < bytes; ++i) {
      h ^= p[i];
      h *= 0x100000001b3ULL;
    }
  };
  const auto mix_u64 = [&mix](std::uint64_t v) { mix(&v, sizeof(v)); };
  const auto mix_ids = [&mix_u64](const std::vector<std::size_t>& v) {
    mix_u64(v.size());
    for (const std::size_t x : v) mix_u64(x);
  };
  const auto mix_doubles = [&](const std::vector<double>& v) {
    mix_u64(v.size());
    mix(v.data(), v.size() * sizeof(double));
  };
  mix_u64(fp.state.size());
  mix(fp.state.data(), fp.state.size() * sizeof(float));
  mix_ids(fp.roster);
  mix_doubles(fp.arrivals);
  mix_ids(fp.collected);
  mix_doubles(fp.collected_weights);
  mix_ids(fp.population);
  mix_ids(fp.offline);
  mix(&fp.end_time, sizeof(fp.end_time));
  return h;
}

// Digests of the old one-live-device-per-client representation (persistent
// loaders, buffered payloads) on scale_options() and churn_options(),
// computed at commit c92882c, the last commit that carried it. Identical
// for workers {1, 2, 8}.
constexpr std::uint64_t kLegacyScaleDigest = 0x7559c84a34fa2153ULL;
constexpr std::uint64_t kLegacyChurnDigest = 0x3f93b56b739dceebULL;

void expect_identical(const RunFingerprint& a, const RunFingerprint& b,
                      const char* what) {
  ASSERT_EQ(a.state.size(), b.state.size()) << what;
  EXPECT_EQ(std::memcmp(a.state.data(), b.state.data(),
                        a.state.size() * sizeof(float)),
            0)
      << what << ": global model bytes differ";
  EXPECT_EQ(a.roster, b.roster) << what;
  ASSERT_EQ(a.arrivals.size(), b.arrivals.size()) << what;
  EXPECT_EQ(std::memcmp(a.arrivals.data(), b.arrivals.data(),
                        a.arrivals.size() * sizeof(double)),
            0)
      << what << ": arrival times differ";
  EXPECT_EQ(a.collected, b.collected) << what;
  ASSERT_EQ(a.collected_weights.size(), b.collected_weights.size()) << what;
  EXPECT_EQ(std::memcmp(a.collected_weights.data(), b.collected_weights.data(),
                        a.collected_weights.size() * sizeof(double)),
            0)
      << what << ": aggregation weights differ";
  EXPECT_EQ(a.population, b.population) << what;
  EXPECT_EQ(a.offline, b.offline) << what;
  EXPECT_EQ(a.end_time, b.end_time) << what;
}

TEST(ScaleIdentity, RegistryMatchesLegacyAcrossWorkerCounts) {
  const RunFingerprint reference = run_once(scale_options());
  ASSERT_EQ(reference.roster.size(), 64u);  // 2 rounds x 32-client cohort
  EXPECT_EQ(fingerprint_digest(reference), kLegacyScaleDigest)
      << "registry run no longer matches the legacy representation";
  for (const std::size_t workers : {1u, 2u, 8u}) {
    fl::ExperimentOptions options = scale_options();
    options.worker_threads = workers;
    const std::string what = "workers=" + std::to_string(workers);
    expect_identical(reference, run_once(options), what.c_str());
  }
}

fl::ExperimentOptions churn_options() {
  fl::ExperimentOptions options;  // analyze:waive(scenario-hardcode)
  options.model = nn::ModelKind::kCnn;
  options.num_clients = 24;
  options.train_samples = 240;
  options.test_samples = 16;
  options.batch_size = 8;
  options.local_iterations = 2;
  options.max_rounds = 4;
  options.worker_threads = 1;
  options.seed = 53;
  auto& avail = options.cluster.availability;
  avail.enabled = true;
  avail.mean_on = 400.0;
  avail.mean_off = 200.0;
  avail.day_period = 2000.0;
  avail.day_amplitude = 0.3;
  avail.outage_groups = 3;
  avail.outage_rate = 0.002;
  avail.outage_mean = 100.0;
  avail.seed = 11;
  return options;
}

TEST(ScaleIdentity, AvailabilityIsDeterministicAcrossWorkersAndRepresentations) {
  const RunFingerprint reference = run_once(churn_options());
  // The seed must actually exercise churn, or the test proves nothing.
  std::size_t total_offline = 0;
  for (const std::size_t n : reference.offline) total_offline += n;
  EXPECT_GT(total_offline, 0u) << "seed never took a client offline";
  for (const std::size_t n : reference.population) EXPECT_EQ(n, 24u);

  for (const std::size_t workers : {2u, 8u}) {
    fl::ExperimentOptions options = churn_options();
    options.worker_threads = workers;
    expect_identical(reference, run_once(options),
                     ("churn workers=" + std::to_string(workers)).c_str());
  }
  // The legacy representation kept availability cursors in a cluster-owned
  // vector rather than in the registry records; both derive from the same
  // streams, so the run matches its pinned digest.
  EXPECT_EQ(fingerprint_digest(reference), kLegacyChurnDigest)
      << "churn run no longer matches the legacy representation";
}

TEST(ScaleIdentity, RenewalMarginalMatchesStationaryProbability) {
  sim::AvailabilityOptions options;
  options.enabled = true;
  options.mean_on = 600.0;
  options.mean_off = 200.0;
  options.day_amplitude = 0.0;  // pure alternating renewal
  options.outage_groups = 0;
  options.seed = 20240807;
  sim::AvailabilityModel model(options);

  const std::size_t clients = 64;
  const std::size_t steps = 500;
  const double dt = 200.0;
  std::vector<sim::AvailabilityCursor> cursors(clients);
  std::size_t online = 0;
  for (std::size_t k = 1; k <= steps; ++k) {
    for (std::size_t c = 0; c < clients; ++c) {
      if (model.online_at(c, cursors[c], static_cast<double>(k) * dt)) ++online;
    }
  }
  const double frac = static_cast<double>(online) / (clients * steps);
  // Stationary-start exponential renewal: P(online) = mean_on/(mean_on+off).
  EXPECT_NEAR(frac, 0.75, 0.02);
}

TEST(ScaleIdentity, CorrelatedOutageMarginalMatchesTheory) {
  sim::AvailabilityOptions options;
  options.enabled = true;
  options.mean_on = 600.0;
  options.mean_off = 200.0;
  options.day_amplitude = 0.0;
  options.outage_groups = 8;
  options.outage_rate = 0.001;  // mean gap 1000 s
  options.outage_mean = 200.0;
  options.seed = 20240807;
  sim::AvailabilityModel model(options);

  const std::size_t clients = 64;
  const std::size_t steps = 1000;
  const double dt = 200.0;
  std::vector<sim::AvailabilityCursor> cursors(clients);
  std::size_t online = 0;
  for (std::size_t k = 1; k <= steps; ++k) {
    for (std::size_t c = 0; c < clients; ++c) {
      if (model.online_at(c, cursors[c], static_cast<double>(k) * dt)) ++online;
    }
  }
  const double frac = static_cast<double>(online) / (clients * steps);
  // Independent thinning of the renewal marginal by the group outage
  // fraction: outage windows cover mean / (gap + mean) of the timeline.
  const double outage_frac = 200.0 / (1000.0 + 200.0);
  EXPECT_NEAR(frac, 0.75 * (1.0 - outage_frac), 0.03);
}

TEST(ScaleIdentity, DiurnalFactorShape) {
  sim::AvailabilityOptions options;
  options.enabled = true;
  options.day_period = 1000.0;
  options.day_amplitude = 0.4;
  sim::AvailabilityModel model(options);
  EXPECT_NEAR(model.diurnal(0.0), 1.0, 1e-12);
  EXPECT_NEAR(model.diurnal(250.0), 1.4, 1e-12);   // mid-day peak
  EXPECT_NEAR(model.diurnal(750.0), 0.6, 1e-12);   // mid-night trough
  options.day_amplitude = 0.0;
  sim::AvailabilityModel flat(options);
  EXPECT_EQ(flat.diurnal(123.0), 1.0);
}

TEST(ScaleIdentity, ReboundReplicaMatchesFreshDevice) {
  sim::ClusterOptions options;
  options.num_clients = 8;

  // Oracle: persistent devices built the way the legacy cluster built them
  // — profiles synthesized from the seed, then one device per client on
  // fork(0x5EED0000 + i) of the post-synthesis generator.
  util::Rng oracle_rng(5);
  const std::vector<trace::DeviceProfile> profiles =
      trace::synthesize_profiles(options.num_clients, options.heterogeneity, oracle_rng);
  std::vector<sim::ClientDevice> oracle;
  oracle.reserve(options.num_clients);
  for (std::size_t i = 0; i < options.num_clients; ++i) {
    oracle.emplace_back(i, profiles[i], options.dynamicity, options.link_latency_seconds,
                        oracle_rng.fork(0x5EED0000 + i));
  }

  util::Rng cluster_rng(5);
  sim::Cluster cluster(options, cluster_rng);

  // Pass 1: materialize every client once (fills the replica pool).
  for (std::size_t i = 0; i < options.num_clients; ++i) {
    sim::DeviceLease lease = cluster.lease(i);
    EXPECT_EQ(lease->id(), i);
    EXPECT_EQ(lease->compute_finish(0.0, 1.0), oracle[i].compute_finish(0.0, 1.0))
        << "client " << i;
  }
  // Pass 2: every lease now rebinds a pooled replica that served a
  // *different* client in pass 1 (reverse order); behavior must still be
  // bit-identical to the persistent device, including timeline state.
  for (std::size_t j = options.num_clients; j-- > 0;) {
    sim::DeviceLease lease = cluster.lease(j);
    EXPECT_EQ(lease->compute_finish(10.0, 2.5), oracle[j].compute_finish(10.0, 2.5))
        << "client " << j;
  }
}

}  // namespace
}  // namespace fedca
