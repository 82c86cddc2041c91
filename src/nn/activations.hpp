// Parameter-free activation layers and the Flatten adapter.
#pragma once

#include "nn/module.hpp"

namespace fedca::nn {

// In training mode (the default) forward() keeps a copy of its input for
// backward(). In eval mode it keeps none and frees an earlier one:
// backward() after an eval-mode forward throws.
class ReLU : public Module {
 public:
  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;
  std::string type_name() const override { return "ReLU"; }
  void set_training(bool training) override { training_ = training; }
  std::unique_ptr<Module> clone() const override { return std::make_unique<ReLU>(*this); }

 private:
  bool training_ = true;
  Tensor cached_input_;  // empty: no training-mode forward to use
};

class Tanh : public Module {
 public:
  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;
  std::string type_name() const override { return "Tanh"; }
  std::unique_ptr<Module> clone() const override { return std::make_unique<Tanh>(*this); }

 private:
  Tensor cached_output_;
};

class Sigmoid : public Module {
 public:
  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;
  std::string type_name() const override { return "Sigmoid"; }
  std::unique_ptr<Module> clone() const override { return std::make_unique<Sigmoid>(*this); }

 private:
  Tensor cached_output_;
};

// Reshapes [N, ...] to [N, prod(...)]. Forward-only shape change; backward
// restores the cached input shape.
class Flatten : public Module {
 public:
  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;
  std::string type_name() const override { return "Flatten"; }
  std::unique_ptr<Module> clone() const override { return std::make_unique<Flatten>(*this); }

 private:
  tensor::Shape cached_shape_;
};

}  // namespace fedca::nn
