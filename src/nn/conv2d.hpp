// 2-D convolution and pooling layers over [N, C, H, W] tensors.
#pragma once

#include <cstdint>
#include <vector>

#include "nn/module.hpp"
#include "tensor/ops.hpp"

namespace fedca::nn {

// Convolution as one GEMM per sample over the lowered image. Weight layout:
// [out_channels, in_channels * kh * kw]; bias: [out_channels].
class Conv2d : public Module {
 public:
  Conv2d(std::string name_prefix, std::size_t in_channels, std::size_t out_channels,
         std::size_t in_h, std::size_t in_w, std::size_t kernel, std::size_t stride,
         std::size_t pad, util::Rng& rng, bool bias = true);

  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;
  void backward_params(const Tensor& grad_output) override;
  std::vector<Parameter*> parameters() override;
  std::string type_name() const override { return "Conv2d"; }
  void set_training(bool training) override { training_ = training; }
  std::unique_ptr<Module> clone() const override { return std::make_unique<Conv2d>(*this); }

  std::size_t out_channels() const { return out_channels_; }
  std::size_t out_h() const { return geo_.out_h(); }
  std::size_t out_w() const { return geo_.out_w(); }

 private:
  // Shared body of backward()/backward_params(): accumulates the parameter
  // gradients and, when grad_input is non-null, assigns d(loss)/d(input).
  void backward_into(const Tensor& grad_output, Tensor* grad_input);

  std::size_t out_channels_;
  tensor::Conv2dGeometry geo_;
  Parameter weight_;  // [out_c, in_c*kh*kw]
  Parameter bias_;    // [out_c]
  bool has_bias_;
  bool training_ = true;
  // Each pass packs the weight once (forward: W; backward, for dX: W^T)
  // and then, per sample, lowers the image straight into the GEMM's B
  // panels (tensor::PackedB::pack_conv, or pack_conv_t for dW): no column
  // matrix is built and the weight is not repacked per sample. The panel
  // buffer is one per layer, sized at construction for both lowerings: no
  // larger than one sample's column matrix plus one panel's padding (at
  // most 15 columns or rows). A training-mode forward caches the raw
  // input (one image per sample) and backward lowers it again: activation
  // memory is ~kernel_area x batch smaller than keeping every sample's
  // lowering. An eval-mode forward keeps no input and frees an earlier
  // one, so backward()/backward_params() after it throw.
  Tensor cached_input_;            // [N, C, H, W]; empty: no training-mode forward
  tensor::PackedA packed_weight_;  // op(A) of this pass's weight GEMMs
  tensor::PackedB panels_;         // one sample's lowered image, reused across samples
  Tensor scratch_dcols_;           // [in_c*kh*kw, oh*ow]
  std::size_t cached_batch_ = 0;
};

// 2x2-style max pooling with stride == window (tensor::max_pool2d). A
// training-mode forward caches the argmax indices backward() routes the
// gradient through; an eval-mode forward computes none and frees earlier
// ones, so backward() after it throws.
class MaxPool2d : public Module {
 public:
  MaxPool2d(std::size_t channels, std::size_t in_h, std::size_t in_w, std::size_t window);

  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;
  std::string type_name() const override { return "MaxPool2d"; }
  void set_training(bool training) override { training_ = training; }
  std::unique_ptr<Module> clone() const override { return std::make_unique<MaxPool2d>(*this); }

  std::size_t out_h() const { return in_h_ / window_; }
  std::size_t out_w() const { return in_w_ / window_; }

 private:
  std::size_t channels_, in_h_, in_w_, window_;
  bool training_ = true;
  std::vector<std::uint32_t> argmax_;  // flat input index per output element
  std::size_t cached_batch_ = 0;
};

// Global average pooling: [N, C, H, W] -> [N, C].
class GlobalAvgPool : public Module {
 public:
  GlobalAvgPool(std::size_t channels, std::size_t in_h, std::size_t in_w);

  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;
  std::string type_name() const override { return "GlobalAvgPool"; }
  std::unique_ptr<Module> clone() const override { return std::make_unique<GlobalAvgPool>(*this); }

 private:
  std::size_t channels_, in_h_, in_w_;
  std::size_t cached_batch_ = 0;
};

}  // namespace fedca::nn
