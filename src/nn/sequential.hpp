// Module containers: Sequential chains and residual blocks.
#pragma once

#include <memory>

#include "nn/module.hpp"

namespace fedca::nn {

// Runs children in order; backward in reverse order.
class Sequential : public Module {
 public:
  Sequential() = default;

  // Appends a child; returns a reference for fluent building.
  Sequential& add(std::unique_ptr<Module> child);
  std::size_t child_count() const { return children_.size(); }
  Module& child(std::size_t i) { return *children_.at(i); }

  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;
  // backward() on children n-1..1, then backward_params() on child 0.
  void backward_params(const Tensor& grad_output) override;
  std::vector<Parameter*> parameters() override;
  std::string type_name() const override { return "Sequential"; }
  void set_training(bool training) override;
  std::unique_ptr<Module> clone() const override;
  void visit_buffers(const std::function<void(std::span<double>)>& fn) override;

 private:
  std::vector<std::unique_ptr<Module>> children_;
};

// Pre-activation style residual block: out = main(x) + shortcut(x).
// `shortcut` may be null, meaning identity (shapes must then match).
class Residual : public Module {
 public:
  Residual(std::unique_ptr<Module> main, std::unique_ptr<Module> shortcut = nullptr);

  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;
  std::vector<Parameter*> parameters() override;
  std::string type_name() const override { return "Residual"; }
  void set_training(bool training) override;
  std::unique_ptr<Module> clone() const override;
  void visit_buffers(const std::function<void(std::span<double>)>& fn) override;

 private:
  std::unique_ptr<Module> main_;
  std::unique_ptr<Module> shortcut_;
};

}  // namespace fedca::nn
