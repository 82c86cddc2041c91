#include "nn/sequential.hpp"

#include <stdexcept>

#include "tensor/ops.hpp"

namespace fedca::nn {

Sequential& Sequential::add(std::unique_ptr<Module> child) {
  if (!child) throw std::invalid_argument("Sequential::add: null child");
  children_.push_back(std::move(child));
  return *this;
}

// The first child reads the caller's input and the last child the
// caller's gradient directly: neither is copied.
Tensor Sequential::forward(const Tensor& input) {
  if (children_.empty()) return input;
  Tensor x = children_.front()->forward(input);
  for (std::size_t i = 1; i < children_.size(); ++i) x = children_[i]->forward(x);
  return x;
}

Tensor Sequential::backward(const Tensor& grad_output) {
  if (children_.empty()) return grad_output;
  Tensor g = children_.back()->backward(grad_output);
  for (std::size_t i = children_.size() - 1; i-- > 0;) g = children_[i]->backward(g);
  return g;
}

void Sequential::backward_params(const Tensor& grad_output) {
  if (children_.empty()) return;
  if (children_.size() == 1) {
    children_.front()->backward_params(grad_output);
    return;
  }
  Tensor g = children_.back()->backward(grad_output);
  for (std::size_t i = children_.size() - 2; i > 0; --i) g = children_[i]->backward(g);
  children_.front()->backward_params(g);
}

std::vector<Parameter*> Sequential::parameters() {
  std::vector<Parameter*> params;
  for (auto& child : children_) {
    for (Parameter* p : child->parameters()) params.push_back(p);
  }
  return params;
}

void Sequential::set_training(bool training) {
  for (auto& child : children_) child->set_training(training);
}

std::unique_ptr<Module> Sequential::clone() const {
  auto out = std::make_unique<Sequential>();
  for (const auto& child : children_) out->add(child->clone());
  return out;
}

void Sequential::visit_buffers(const std::function<void(std::span<double>)>& fn) {
  for (auto& child : children_) child->visit_buffers(fn);
}

Residual::Residual(std::unique_ptr<Module> main, std::unique_ptr<Module> shortcut)
    : main_(std::move(main)), shortcut_(std::move(shortcut)) {
  if (!main_) throw std::invalid_argument("Residual: null main branch");
}

Tensor Residual::forward(const Tensor& input) {
  Tensor main_out = main_->forward(input);
  Tensor skip_out = shortcut_ ? shortcut_->forward(input) : input;
  if (!main_out.same_shape(skip_out)) {
    throw std::logic_error("Residual: branch shapes differ: " +
                           tensor::shape_to_string(main_out.shape()) + " vs " +
                           tensor::shape_to_string(skip_out.shape()));
  }
  return tensor::add(main_out, skip_out);
}

Tensor Residual::backward(const Tensor& grad_output) {
  Tensor grad_main = main_->backward(grad_output);
  if (shortcut_) {
    Tensor grad_skip = shortcut_->backward(grad_output);
    return tensor::add(grad_main, grad_skip);
  }
  return tensor::add(grad_main, grad_output);
}

std::vector<Parameter*> Residual::parameters() {
  std::vector<Parameter*> params = main_->parameters();
  if (shortcut_) {
    for (Parameter* p : shortcut_->parameters()) params.push_back(p);
  }
  return params;
}

void Residual::set_training(bool training) {
  main_->set_training(training);
  if (shortcut_) shortcut_->set_training(training);
}

std::unique_ptr<Module> Residual::clone() const {
  return std::make_unique<Residual>(main_->clone(), shortcut_ ? shortcut_->clone() : nullptr);
}

void Residual::visit_buffers(const std::function<void(std::span<double>)>& fn) {
  main_->visit_buffers(fn);
  if (shortcut_) shortcut_->visit_buffers(fn);
}

}  // namespace fedca::nn
