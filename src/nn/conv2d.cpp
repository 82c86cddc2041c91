#include "nn/conv2d.hpp"

#include <cstdint>
#include <stdexcept>

#include "obs/session.hpp"
#include "tensor/init.hpp"

namespace fedca::nn {

namespace {

void require_nchw(const Tensor& t, std::size_t c, std::size_t h, std::size_t w,
                  const char* who) {
  if (t.ndim() != 4 || t.dim(1) != c || t.dim(2) != h || t.dim(3) != w) {
    throw std::invalid_argument(std::string(who) + ": expected [N, " + std::to_string(c) +
                                ", " + std::to_string(h) + ", " + std::to_string(w) +
                                "], got " + tensor::shape_to_string(t.shape()));
  }
}

}  // namespace

Conv2d::Conv2d(std::string name_prefix, std::size_t in_channels, std::size_t out_channels,
               std::size_t in_h, std::size_t in_w, std::size_t kernel, std::size_t stride,
               std::size_t pad, util::Rng& rng, bool bias)
    : out_channels_(out_channels),
      geo_{in_channels, in_h, in_w, kernel, kernel, stride, pad},
      weight_(name_prefix + ".weight",
              Tensor({out_channels, in_channels * kernel * kernel})),
      has_bias_(bias) {
  const std::size_t fan_in = in_channels * kernel * kernel;
  tensor::kaiming_normal(weight_.value, fan_in, rng);
  // Sized once for both lowerings, so the first backward does not regrow
  // it and leave the forward-sized block behind as touched heap (about
  // 0.5 MB of peak RSS on tta_cnn_fedca).
  panels_.reserve_conv(geo_);
  if (has_bias_) {
    bias_ = Parameter(name_prefix + ".bias", Tensor({out_channels}));
    tensor::fanin_uniform(bias_.value, fan_in, rng);
  }
}

Tensor Conv2d::forward(const Tensor& input) {
  FEDCA_KERNEL_SPAN("conv2d.forward");
  require_nchw(input, geo_.in_channels, geo_.in_h, geo_.in_w, "Conv2d::forward");
  const std::size_t n = input.dim(0);
  const std::size_t oh = geo_.out_h(), ow = geo_.out_w();
  const std::size_t col_rows = geo_.in_channels * geo_.kernel_h * geo_.kernel_w;
  const std::size_t image_size = geo_.in_channels * geo_.in_h * geo_.in_w;

  if (training_) {
    cached_batch_ = n;
    cached_input_ = input;
  } else {
    cached_batch_ = 0;
    cached_input_ = Tensor();
  }

  packed_weight_.pack(out_channels_, col_rows, weight_.value.raw(), /*a_trans=*/false);
  Tensor output({n, out_channels_, oh, ow});
  for (std::size_t s = 0; s < n; ++s) {
    panels_.pack_conv(input.data().subspan(s * image_size, image_size), geo_);
    const std::span<float> out = output.data().subspan(s * out_channels_ * oh * ow,
                                                       out_channels_ * oh * ow);
    tensor::gemm_packed(packed_weight_, panels_, out.data());
    if (has_bias_) tensor::plane_bias_add(out, oh * ow, bias_.value.data());
  }
  return output;
}

Tensor Conv2d::backward(const Tensor& grad_output) {
  Tensor grad_input;
  backward_into(grad_output, &grad_input);
  return grad_input;
}

void Conv2d::backward_params(const Tensor& grad_output) {
  backward_into(grad_output, nullptr);
}

void Conv2d::backward_into(const Tensor& grad_output, Tensor* grad_input) {
  FEDCA_KERNEL_SPAN("conv2d.backward");
  if (cached_input_.ndim() == 0) {
    throw std::invalid_argument(
        "Conv2d::backward needs the input of a training-mode forward; the last forward ran "
        "in eval mode (set_training(false)) or none ran");
  }
  const std::size_t oh = geo_.out_h(), ow = geo_.out_w();
  require_nchw(grad_output, out_channels_, oh, ow, "Conv2d::backward");
  const std::size_t n = grad_output.dim(0);
  if (n != cached_batch_) {
    throw std::logic_error("Conv2d::backward called with batch different from forward");
  }
  const std::size_t col_rows = geo_.in_channels * geo_.kernel_h * geo_.kernel_w;
  const std::size_t image_size = geo_.in_channels * geo_.in_h * geo_.in_w;

  if (grad_input) *grad_input = Tensor({n, geo_.in_channels, geo_.in_h, geo_.in_w});
  if (grad_input && scratch_dcols_.numel() != col_rows * oh * ow) {
    scratch_dcols_ = Tensor({col_rows, oh * ow});
  }
  // dX's GEMM reads W^T: op(A) (col_rows x out_c) from W stored
  // [out_c, col_rows].
  if (grad_input) {
    packed_weight_.pack(col_rows, out_channels_, weight_.value.raw(), /*a_trans=*/true);
  }
  for (std::size_t s = 0; s < n; ++s) {
    // Lower this sample again from the cached input — a pure function of
    // (input, geometry), so the gradients are bit-identical to keeping
    // every sample's lowering from the forward.
    panels_.pack_conv_t(cached_input_.data().subspan(s * image_size, image_size), geo_);
    const std::span<const float> dy = grad_output.data().subspan(s * out_channels_ * oh * ow,
                                                                 out_channels_ * oh * ow);
    // dW += dY * cols^T (the dY slice is already a contiguous
    // [out_c, oh*ow] matrix — no staging copy needed).
    tensor::gemm_packed(out_channels_, dy.data(), panels_, weight_.grad.raw(),
                        tensor::Store::kAccumulate);
    if (has_bias_) tensor::plane_sum(dy, oh * ow, bias_.grad.data());
    if (!grad_input) continue;
    // dcols = W^T * dY, then scatter back to image layout.
    tensor::gemm_packed(packed_weight_, oh * ow, dy.data(), scratch_dcols_.raw());
    tensor::col2im(scratch_dcols_.data(), geo_,
                   grad_input->data().subspan(s * image_size, image_size));
  }
}

std::vector<Parameter*> Conv2d::parameters() {
  if (has_bias_) return {&weight_, &bias_};
  return {&weight_};
}

MaxPool2d::MaxPool2d(std::size_t channels, std::size_t in_h, std::size_t in_w,
                     std::size_t window)
    : channels_(channels), in_h_(in_h), in_w_(in_w), window_(window) {
  if (window == 0 || in_h % window != 0 || in_w % window != 0) {
    throw std::invalid_argument("MaxPool2d: window must evenly divide input dims");
  }
}

Tensor MaxPool2d::forward(const Tensor& input) {
  require_nchw(input, channels_, in_h_, in_w_, "MaxPool2d::forward");
  const std::size_t n = input.dim(0);
  Tensor output({n, channels_, out_h(), out_w()});
  if (training_) {
    cached_batch_ = n;
    argmax_.resize(output.numel());
  } else {
    cached_batch_ = 0;
    argmax_ = std::vector<std::uint32_t>();
  }
  tensor::max_pool2d(input.data(), n * channels_, in_h_, in_w_, window_, output.data(),
                     training_ ? argmax_.data() : nullptr);
  return output;
}

Tensor MaxPool2d::backward(const Tensor& grad_output) {
  const std::size_t oh = out_h(), ow = out_w();
  require_nchw(grad_output, channels_, oh, ow, "MaxPool2d::backward");
  if (argmax_.empty()) {
    throw std::invalid_argument(
        "MaxPool2d::backward needs the argmax of a training-mode forward; the last forward "
        "ran in eval mode (set_training(false)) or none ran");
  }
  if (grad_output.dim(0) != cached_batch_) {
    throw std::logic_error("MaxPool2d::backward batch mismatch");
  }
  // += rather than =: a zero-initialised slot plus -0.0f is +0.0f, the
  // bits every golden was recorded with.
  Tensor grad_input({cached_batch_, channels_, in_h_, in_w_});
  for (std::size_t i = 0; i < grad_output.numel(); ++i) {
    grad_input[argmax_[i]] += grad_output[i];
  }
  return grad_input;
}

GlobalAvgPool::GlobalAvgPool(std::size_t channels, std::size_t in_h, std::size_t in_w)
    : channels_(channels), in_h_(in_h), in_w_(in_w) {}

Tensor GlobalAvgPool::forward(const Tensor& input) {
  require_nchw(input, channels_, in_h_, in_w_, "GlobalAvgPool::forward");
  const std::size_t n = input.dim(0);
  cached_batch_ = n;
  const auto plane = static_cast<double>(in_h_ * in_w_);
  Tensor output({n, channels_});
  for (std::size_t s = 0; s < n; ++s) {
    for (std::size_t c = 0; c < channels_; ++c) {
      const float* src = input.raw() + (s * channels_ + c) * in_h_ * in_w_;
      double acc = 0.0;
      for (std::size_t i = 0; i < in_h_ * in_w_; ++i) acc += src[i];
      output[s * channels_ + c] = static_cast<float>(acc / plane);
    }
  }
  return output;
}

Tensor GlobalAvgPool::backward(const Tensor& grad_output) {
  if (grad_output.ndim() != 2 || grad_output.dim(0) != cached_batch_ ||
      grad_output.dim(1) != channels_) {
    throw std::invalid_argument("GlobalAvgPool::backward shape mismatch");
  }
  const float inv = 1.0f / static_cast<float>(in_h_ * in_w_);
  Tensor grad_input({cached_batch_, channels_, in_h_, in_w_});
  for (std::size_t s = 0; s < cached_batch_; ++s) {
    for (std::size_t c = 0; c < channels_; ++c) {
      const float g = grad_output[s * channels_ + c] * inv;
      float* dst = grad_input.raw() + (s * channels_ + c) * in_h_ * in_w_;
      for (std::size_t i = 0; i < in_h_ * in_w_; ++i) dst[i] = g;
    }
  }
  return grad_input;
}

}  // namespace fedca::nn
