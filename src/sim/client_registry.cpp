#include "sim/client_registry.hpp"

namespace fedca::sim {

namespace {
// Per-client device stream id; scenario goldens pin the streams it yields.
constexpr std::uint64_t kDeviceStreamBase = 0x5EED0000ULL;
}  // namespace

ClientRegistry::ClientRegistry(const ClusterOptions& options, util::Rng& rng)
    : dynamicity_(options.dynamicity),
      link_latency_(options.link_latency_seconds),
      bandwidth_mbps_(options.heterogeneity.bandwidth_mbps),
      device_parent_(rng) {
  const std::vector<trace::DeviceProfile> profiles =
      trace::synthesize_profiles(options.num_clients, options.heterogeneity, rng);
  // Profile synthesis consumed draws from `rng`; snapshot the advanced
  // state as the fork parent.
  device_parent_ = rng;
  records_.resize(options.num_clients);
  for (std::size_t i = 0; i < options.num_clients; ++i) {
    records_[i].base_speed = profiles[i].base_speed;
  }
}

trace::DeviceProfile ClientRegistry::profile_of(std::size_t i) const {
  trace::DeviceProfile profile;
  profile.base_speed = records_[i].base_speed;
  profile.bandwidth_mbps = bandwidth_mbps_;
  return profile;
}

std::unique_ptr<ClientDevice> ClientRegistry::create(std::size_t i) const {
  const ClientRecord& rec = records_.at(i);
  auto device = std::make_unique<ClientDevice>(i, profile_of(i), dynamicity_,
                                               link_latency_,
                                               device_parent_.fork(kDeviceStreamBase + i));
  device->uplink().set_busy_until(rec.uplink_busy);
  device->downlink().set_busy_until(rec.downlink_busy);
  return device;
}

void ClientRegistry::materialize(std::size_t i, ClientDevice& device) const {
  const ClientRecord& rec = records_.at(i);
  device.rebind(i, profile_of(i), device_parent_.fork(kDeviceStreamBase + i));
  device.uplink().set_busy_until(rec.uplink_busy);
  device.downlink().set_busy_until(rec.downlink_busy);
}

void ClientRegistry::commit(std::size_t i, ClientDevice& device) {
  ClientRecord& rec = records_.at(i);
  rec.uplink_busy = device.uplink().busy_until();
  rec.downlink_busy = device.downlink().busy_until();
}

}  // namespace fedca::sim
