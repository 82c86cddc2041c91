#include "nn/activations.hpp"

#include <stdexcept>

#include "tensor/ops.hpp"

namespace fedca::nn {

Tensor ReLU::forward(const Tensor& input) {
  Tensor out(input.shape());
  tensor::relu(input.data(), out.data());
  if (training_) {
    cached_input_ = input;
  } else {
    cached_input_ = Tensor();
  }
  return out;
}

Tensor ReLU::backward(const Tensor& grad_output) {
  if (cached_input_.ndim() == 0) {
    throw std::invalid_argument(
        "ReLU::backward needs the input of a training-mode forward; the last forward ran "
        "in eval mode (set_training(false)) or none ran");
  }
  if (!grad_output.same_shape(cached_input_)) {
    throw std::invalid_argument("ReLU::backward shape mismatch");
  }
  Tensor dx(grad_output.shape());
  tensor::relu_backward(cached_input_.data(), grad_output.data(), dx.data());
  return dx;
}

Tensor Tanh::forward(const Tensor& input) {
  Tensor out(input.shape());
  tensor::tanh(input.data(), out.data());  // glibc tanhf's bits, vectorized
  cached_output_ = out;
  return out;
}

Tensor Tanh::backward(const Tensor& grad_output) {
  if (!grad_output.same_shape(cached_output_)) {
    throw std::invalid_argument("Tanh::backward shape mismatch");
  }
  Tensor dx(grad_output.shape());
  for (std::size_t i = 0; i < grad_output.numel(); ++i) {
    dx[i] = grad_output[i] * (1.0f - cached_output_[i] * cached_output_[i]);
  }
  return dx;
}

Tensor Sigmoid::forward(const Tensor& input) {
  Tensor out(input.shape());
  tensor::sigmoid(input.data(), out.data());  // libm expf's bits, vectorized
  cached_output_ = out;
  return out;
}

Tensor Sigmoid::backward(const Tensor& grad_output) {
  if (!grad_output.same_shape(cached_output_)) {
    throw std::invalid_argument("Sigmoid::backward shape mismatch");
  }
  Tensor dx(grad_output.shape());
  for (std::size_t i = 0; i < grad_output.numel(); ++i) {
    dx[i] = grad_output[i] * cached_output_[i] * (1.0f - cached_output_[i]);
  }
  return dx;
}

Tensor Flatten::forward(const Tensor& input) {
  cached_shape_ = input.shape();
  if (input.ndim() == 0) throw std::invalid_argument("Flatten::forward on empty tensor");
  const std::size_t n = input.dim(0);
  return input.reshaped({n, input.numel() / n});
}

Tensor Flatten::backward(const Tensor& grad_output) {
  return grad_output.reshaped(cached_shape_);
}

}  // namespace fedca::nn
