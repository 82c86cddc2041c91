#include "core/factory.hpp"

#include <algorithm>
#include <cctype>
#include <stdexcept>

#include "core/fedca_scheme.hpp"
#include "fl/fedada.hpp"

namespace fedca::core {

namespace {

std::string to_lower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  return s;
}

FedCaOptions fedca_options_from(const util::Config& config) {
  FedCaOptions options;
  options.early_stop.beta = config.get_double("fedca_beta", 0.01);
  options.early_stop.min_iterations =
      static_cast<std::size_t>(config.get_int("fedca_min_iterations", 1));
  options.eager.stabilize_threshold = config.get_double("fedca_te", 0.95);
  options.eager.retransmit_threshold = config.get_double("fedca_tr", 0.6);
  options.profiler.period = static_cast<std::size_t>(config.get_int("fedca_period", 10));
  options.profiler.layer_fraction = config.get_double("fedca_sample_fraction", 0.5);
  options.profiler.layer_cap =
      static_cast<std::size_t>(config.get_int("fedca_sample_cap", 100));
  options.adaptive_lr.benefit_threshold =
      config.get_double("fedca_lr_threshold", 0.01);
  options.adaptive_lr.decay = config.get_double("fedca_lr_decay", 0.5);
  return options;
}

}  // namespace

namespace {

// Wraps `scheme` in a compression decorator if the config asks for one
// (compress=qsgd|topk, compress_levels=, compress_fraction=).
std::unique_ptr<fl::Scheme> maybe_compress(std::unique_ptr<fl::Scheme> scheme,
                                           const util::Config& config,
                                           std::uint64_t seed) {
  const std::string kind = config.get_string("compress", "none");
  if (kind == "none" || kind.empty()) return scheme;
  fl::CompressedScheme::CompressionSpec spec;
  spec.kind = kind;
  spec.qsgd_levels = static_cast<std::size_t>(config.get_int("compress_levels", 128));
  spec.topk_fraction = config.get_double("compress_fraction", 0.05);
  return std::make_unique<fl::CompressedScheme>(std::move(scheme), spec, seed ^ 0xC0DEC);
}

std::unique_ptr<fl::Scheme> make_base_scheme(const std::string& key,
                                             const util::Config& config,
                                             std::uint64_t seed);

}  // namespace

std::unique_ptr<fl::Scheme> make_scheme(const std::string& name,
                                        const util::Config& config, std::uint64_t seed) {
  return maybe_compress(make_base_scheme(to_lower(name), config, seed), config, seed);
}

namespace {

std::unique_ptr<fl::Scheme> make_base_scheme(const std::string& key,
                                             const util::Config& config,
                                             std::uint64_t seed) {
  if (key == "fedavg") return std::make_unique<fl::FedAvgScheme>();
  if (key == "fedprox") {
    return std::make_unique<fl::FedProxScheme>(config.get_double("fedprox_mu", 0.01));
  }
  if (key == "fedada") {
    fl::FedAdaOptions options;
    options.tradeoff = config.get_double("fedada_tradeoff", 0.5);
    options.min_fraction = config.get_double("fedada_min_fraction", 0.2);
    return std::make_unique<fl::FedAdaScheme>(options);
  }
  if (key == "fedca" || key == "fedca_v3") {
    return std::make_unique<FedCaScheme>(fedca_options_from(config), FedCaVariant::kV3,
                                         seed);
  }
  if (key == "fedca_v1") {
    return std::make_unique<FedCaScheme>(fedca_options_from(config), FedCaVariant::kV1,
                                         seed);
  }
  if (key == "fedca_v2") {
    return std::make_unique<FedCaScheme>(fedca_options_from(config), FedCaVariant::kV2,
                                         seed);
  }
  if (key == "fedca_lr") {
    // Sec. 6 future-work extension: full FedCA plus intra-round adaptive
    // local learning rate.
    FedCaOptions options = fedca_options_from(config);
    options.adaptive_lr.enabled = true;
    return std::make_unique<FedCaScheme>(options, FedCaVariant::kV3, seed);
  }
  throw std::invalid_argument("make_scheme: unknown scheme '" + key + "'");
}

}  // namespace

}  // namespace fedca::core
