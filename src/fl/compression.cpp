#include "fl/compression.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "tensor/ops.hpp"

namespace fedca::fl {

double IdentityCompressor::compress(tensor::Tensor& layer_update,
                                    double bytes_per_param) {
  return static_cast<double>(layer_update.numel()) * bytes_per_param;
}

QsgdQuantizer::QsgdQuantizer(std::size_t levels, util::Rng rng)
    : levels_(levels), rng_(rng) {
  if (levels_ == 0) throw std::invalid_argument("QsgdQuantizer: levels must be >= 1");
}

std::string QsgdQuantizer::name() const {
  return "qsgd" + std::to_string(levels_);
}

double QsgdQuantizer::bits_per_element() const {
  // Sign bit + ceil(log2(levels + 1)) magnitude bits.
  return 1.0 + std::ceil(std::log2(static_cast<double>(levels_) + 1.0));
}

double QsgdQuantizer::compress(tensor::Tensor& layer_update, double bytes_per_param) {
  if (layer_update.numel() == 0) return 0.0;  // nothing on the wire
  const double norm = tensor::l2_norm(layer_update.data());
  if (norm > 0.0) {
    const auto s = static_cast<double>(levels_);
    for (std::size_t i = 0; i < layer_update.numel(); ++i) {
      const float v = layer_update[i];
      const double ratio = std::abs(static_cast<double>(v)) / norm;  // in [0, 1]
      const double scaled = ratio * s;
      double level = std::floor(scaled);
      // Stochastic rounding keeps the estimator unbiased.
      if (rng_.uniform() < scaled - level) level += 1.0;
      const double magnitude = norm * level / s;
      layer_update[i] = static_cast<float>(v < 0.0f ? -magnitude : magnitude);
    }
  }
  // Wire: norm (one float32) + per-element sign/level code. The
  // bytes_per_param scale maps native scalars to paper-scale wire cost, so
  // apply the same compression ratio to it.
  const double ratio = bits_per_element() / 32.0;
  return 4.0 + static_cast<double>(layer_update.numel()) * bytes_per_param * ratio;
}

TopKSparsifier::TopKSparsifier(double fraction) : fraction_(fraction) {
  if (fraction_ <= 0.0 || fraction_ > 1.0) {
    throw std::invalid_argument("TopKSparsifier: fraction must be in (0, 1]");
  }
}

std::string TopKSparsifier::name() const {
  return "topk" + std::to_string(fraction_);
}

double TopKSparsifier::compress(tensor::Tensor& layer_update, double bytes_per_param) {
  const std::size_t n = layer_update.numel();
  if (n == 0) return 0.0;  // k = max(1, 0) would bill bytes for no payload
  const std::size_t k = std::max<std::size_t>(
      1, static_cast<std::size_t>(fraction_ * static_cast<double>(n)));
  if (k < n) {
    // Threshold = k-th largest magnitude.
    std::vector<float> magnitudes(n);
    for (std::size_t i = 0; i < n; ++i) magnitudes[i] = std::abs(layer_update[i]);
    std::nth_element(magnitudes.begin(), magnitudes.begin() + (k - 1), magnitudes.end(),
                     std::greater<float>());
    const float threshold = magnitudes[k - 1];
    // Keep exactly k entries (ties broken by index order).
    std::size_t kept = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const bool keep = std::abs(layer_update[i]) >= threshold && kept < k;
      if (keep) {
        ++kept;
      } else {
        layer_update[i] = 0.0f;
      }
    }
  }
  // Wire: value + index per kept entry (index costed like a scalar).
  return static_cast<double>(k) * bytes_per_param * 2.0;
}

double Int8Quantizer::compress(tensor::Tensor& layer_update,
                               double bytes_per_param) {
  const std::size_t n = layer_update.numel();
  if (n == 0) return 0.0;  // nothing on the wire
  const tensor::QuantParams p = tensor::compute_quant_params(layer_update.data());
  tensor::fake_quantize_int8(layer_update.data(), p);
  // Wire: scale + zero-point header, then one int8 code per element. The
  // bytes_per_param scale maps native scalars to paper-scale wire cost.
  const double ratio = bits_per_element() / 32.0;
  return header_bytes() + static_cast<double>(n) * bytes_per_param * ratio;
}

EagerWire parse_eager_wire(const std::string& name) {
  if (name == "fp32") return EagerWire::kFp32;
  if (name == "int8") return EagerWire::kInt8;
  throw std::invalid_argument("parse_eager_wire: expected fp32 or int8, got '" +
                              name + "'");
}

const char* eager_wire_name(EagerWire wire) {
  return wire == EagerWire::kInt8 ? "int8" : "fp32";
}

std::unique_ptr<UpdateCompressor> make_compressor(const std::string& kind,
                                                  std::size_t qsgd_levels,
                                                  double topk_fraction, util::Rng rng) {
  if (kind == "none" || kind.empty()) return std::make_unique<IdentityCompressor>();
  if (kind == "qsgd") return std::make_unique<QsgdQuantizer>(qsgd_levels, rng);
  if (kind == "topk") return std::make_unique<TopKSparsifier>(topk_fraction);
  if (kind == "int8") return std::make_unique<Int8Quantizer>();
  throw std::invalid_argument("make_compressor: unknown kind '" + kind + "'");
}

}  // namespace fedca::fl
