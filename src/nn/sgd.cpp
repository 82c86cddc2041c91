#include "nn/sgd.hpp"

#include <stdexcept>

#include "tensor/ops.hpp"

namespace fedca::nn {

SgdOptimizer::SgdOptimizer(std::vector<Parameter*> params, SgdOptions options)
    : params_(std::move(params)), options_(options) {
  for (const Parameter* p : params_) {
    if (p == nullptr) throw std::invalid_argument("SgdOptimizer: null parameter");
  }
}

void SgdOptimizer::capture_prox_anchor() {
  prox_anchor_.clear();
  prox_anchor_.reserve(params_.size());
  for (const Parameter* p : params_) prox_anchor_.push_back(p->value);
}

void SgdOptimizer::step() {
  const auto lr = static_cast<float>(options_.learning_rate);
  const auto wd = static_cast<float>(options_.weight_decay);
  const auto mu = static_cast<float>(options_.prox_mu);
  const bool use_prox = mu != 0.0f && !prox_anchor_.empty();
  if (mu != 0.0f && prox_anchor_.empty()) {
    throw std::logic_error("SgdOptimizer: prox_mu set but capture_prox_anchor() not called");
  }
  for (std::size_t k = 0; k < params_.size(); ++k) {
    Parameter& p = *params_[k];
    tensor::sgd_update(p.value.data(), p.grad.data(),
                       use_prox ? prox_anchor_[k].data() : std::span<const float>(), lr, wd,
                       mu);
  }
}

}  // namespace fedca::nn
