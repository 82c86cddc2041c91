// Scheme factory — the one-stop entry point benches and examples use.
//
// Recognized names (case-insensitive): fl::kSchemeNames (fl/scenario.hpp);
// "fedca" is v3.
// FedCA/FedProx/FedAda hyperparameters are read from `config` with the
// paper's Sec. 5.1 defaults: prox mu 0.01; FedAda trade-off 0.5; profiling
// period 10; beta 0.01; T_e 0.95; T_r 0.6.
#pragma once

#include <memory>
#include <string>

#include "fl/scheme.hpp"
#include "util/config.hpp"

namespace fedca::core {

std::unique_ptr<fl::Scheme> make_scheme(const std::string& name,
                                        const util::Config& config,
                                        std::uint64_t seed = 1);

}  // namespace fedca::core
