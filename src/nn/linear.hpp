// Fully-connected layer: y = x W^T + b.
#pragma once

#include "nn/module.hpp"

namespace fedca::nn {

class Linear : public Module {
 public:
  // `name_prefix` becomes the parameter-name prefix, e.g. "fc1" yields
  // parameters "fc1.weight" ([out, in]) and "fc1.bias" ([out]).
  Linear(std::string name_prefix, std::size_t in_features, std::size_t out_features,
         util::Rng& rng, bool bias = true);

  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;
  std::vector<Parameter*> parameters() override;
  std::string type_name() const override { return "Linear"; }
  void set_training(bool training) override { training_ = training; }
  std::unique_ptr<Module> clone() const override { return std::make_unique<Linear>(*this); }

  std::size_t in_features() const { return in_features_; }
  std::size_t out_features() const { return out_features_; }

 private:
  std::size_t in_features_;
  std::size_t out_features_;
  Parameter weight_;  // [out, in]
  Parameter bias_;    // [out] (empty tensor when bias disabled)
  bool has_bias_;
  bool training_ = true;
  // A training-mode forward caches its input for dW; an eval-mode forward
  // keeps none and frees an earlier one, so backward() after it throws.
  Tensor cached_input_;  // [N, in]; empty: no training-mode forward
};

}  // namespace fedca::nn
