#include "core/sampling_profiler.hpp"

#include <algorithm>
#include <stdexcept>

namespace fedca::core {

SamplingProfiler::SamplingProfiler(ProfilerOptions options, util::Rng rng)
    : options_(options), rng_(rng) {
  if (options_.period == 0) {
    throw std::invalid_argument("SamplingProfiler: period must be > 0");
  }
  if (options_.layer_fraction <= 0.0 || options_.layer_fraction > 1.0) {
    throw std::invalid_argument("SamplingProfiler: layer_fraction must be in (0, 1]");
  }
  if (options_.layer_cap == 0) {
    throw std::invalid_argument("SamplingProfiler: layer_cap must be > 0");
  }
}

bool SamplingProfiler::is_anchor_round(std::size_t round_index) const {
  return round_index % options_.period == 0;
}

void SamplingProfiler::ensure_indices(const nn::ModelState& layout) {
  if (!indices_.empty()) return;
  indices_.reserve(layout.tensors.size());
  for (const auto& layer : layout.tensors) {
    const std::size_t n = layer.numel();
    std::size_t k = static_cast<std::size_t>(
        options_.layer_fraction * static_cast<double>(n));
    k = std::min(k, options_.layer_cap);
    k = std::max<std::size_t>(k, std::min<std::size_t>(n, 1));
    indices_.push_back(rng_.sample_without_replacement(n, k));
  }
}

void SamplingProfiler::begin_round(std::size_t round_index,
                                   const nn::ModelState& round_start) {
  if (recording_) {
    throw std::logic_error("SamplingProfiler::begin_round: already recording");
  }
  ensure_indices(round_start);
  recording_ = true;
  pending_round_ = round_index;
  round_start_ = round_start;
  recorded_.assign(round_start.tensors.size(), {});
}

void SamplingProfiler::record_iteration(nn::Module& model) {
  if (!recording_) {
    throw std::logic_error("SamplingProfiler::record_iteration: not recording");
  }
  const std::vector<nn::Parameter*> params = model.parameters();
  if (params.size() != indices_.size()) {
    throw std::logic_error("SamplingProfiler: model layout changed");
  }
  for (std::size_t layer = 0; layer < params.size(); ++layer) {
    std::vector<float> sample(indices_[layer].size());
    const nn::Tensor& current = params[layer]->value;
    const nn::Tensor& start = round_start_.tensors[layer];
    std::size_t j = 0;
    for (const std::size_t idx : indices_[layer]) {
      sample[j++] = current[idx] - start[idx];
    }
    recorded_[layer].push_back(std::move(sample));
  }
}

void SamplingProfiler::finish_round() {
  if (!recording_) {
    throw std::logic_error("SamplingProfiler::finish_round: not recording");
  }
  recording_ = false;
  if (recorded_.empty() || recorded_.front().empty()) {
    recorded_.clear();
    return;  // nothing was recorded; keep previous curves
  }
  const std::size_t iterations = recorded_.front().size();

  layer_curves_.clear();
  layer_curves_.reserve(recorded_.size());
  for (const auto& layer_snapshots : recorded_) {
    layer_curves_.push_back(curve_from_snapshots(layer_snapshots));
  }

  // Whole-model curve over the concatenated per-layer samples.
  std::size_t snap_len = 0;
  for (const auto& layer_snapshots : recorded_) {
    snap_len += layer_snapshots.front().size();
  }
  std::vector<std::vector<float>> model_snapshots(iterations,
                                                  std::vector<float>(snap_len));
  for (std::size_t it = 0; it < iterations; ++it) {
    std::vector<float>& snap = model_snapshots[it];
    std::size_t offset = 0;
    for (const auto& layer_snapshots : recorded_) {
      const std::vector<float>& src = layer_snapshots[it];
      std::copy(src.begin(), src.end(), snap.begin() + offset);
      offset += src.size();
    }
  }
  model_curve_ = curve_from_snapshots(model_snapshots);
  anchor_round_ = pending_round_;
  recorded_.clear();
  round_start_ = nn::ModelState{};
}

std::size_t SamplingProfiler::sampled_param_count() const {
  std::size_t n = 0;
  for (const auto& layer : indices_) n += layer.size();
  return n;
}

std::size_t SamplingProfiler::profiling_bytes(std::size_t iterations) const {
  return sampled_param_count() * sizeof(float) * iterations;
}

}  // namespace fedca::core
