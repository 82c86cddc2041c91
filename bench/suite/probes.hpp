// Standalone per-layer probes: public nn, tensor, sim, data and util
// functions timed at exactly the shapes and sizes one workload uses.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "workloads.hpp"

namespace fedca::suite {

// (metric name, value) pairs; names carry their unit suffix (_us, _ns, _ms).
// Every workload's model yields the same names.
std::vector<std::pair<std::string, double>> run_probes(const Workload& workload);

}  // namespace fedca::suite
