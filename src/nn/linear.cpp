#include "nn/linear.hpp"

#include <stdexcept>

#include "tensor/init.hpp"
#include "tensor/ops.hpp"

namespace fedca::nn {

Linear::Linear(std::string name_prefix, std::size_t in_features, std::size_t out_features,
               util::Rng& rng, bool bias)
    : in_features_(in_features),
      out_features_(out_features),
      weight_(name_prefix + ".weight", Tensor({out_features, in_features})),
      has_bias_(bias) {
  tensor::xavier_uniform(weight_.value, in_features, out_features, rng);
  if (has_bias_) {
    bias_ = Parameter(name_prefix + ".bias", Tensor({out_features}));
    tensor::fanin_uniform(bias_.value, in_features, rng);
  }
}

Tensor Linear::forward(const Tensor& input) {
  if (input.ndim() != 2 || input.dim(1) != in_features_) {
    throw std::invalid_argument("Linear::forward expects [N, " +
                                std::to_string(in_features_) + "], got " +
                                tensor::shape_to_string(input.shape()));
  }
  cached_input_ = training_ ? input : Tensor();
  const std::size_t n = input.dim(0);
  Tensor output({n, out_features_});
  // output[N, out] = input[N, in] * weight[out, in]^T
  tensor::gemm_nt(input, weight_.value, output);
  if (has_bias_) tensor::bias_add(output.data(), n, bias_.value.data());
  return output;
}

Tensor Linear::backward(const Tensor& grad_output) {
  if (cached_input_.ndim() == 0) {
    throw std::invalid_argument(
        "Linear::backward needs the input of a training-mode forward; the last forward ran "
        "in eval mode (set_training(false)) or none ran");
  }
  if (grad_output.ndim() != 2 || grad_output.dim(1) != out_features_ ||
      grad_output.dim(0) != cached_input_.dim(0)) {
    throw std::invalid_argument("Linear::backward gradient shape mismatch: " +
                                tensor::shape_to_string(grad_output.shape()));
  }
  const std::size_t n = grad_output.dim(0);
  // dW[out, in] += dY[N, out]^T * X[N, in]
  tensor::gemm_tn(grad_output, cached_input_, weight_.grad, tensor::Store::kAccumulate);
  if (has_bias_) tensor::row_sum(grad_output.data(), n, bias_.grad.data());
  // dX[N, in] = dY[N, out] * W[out, in]
  Tensor dx({n, in_features_});
  tensor::gemm(grad_output, weight_.value, dx);
  return dx;
}

std::vector<Parameter*> Linear::parameters() {
  if (has_bias_) return {&weight_, &bias_};
  return {&weight_};
}

}  // namespace fedca::nn
