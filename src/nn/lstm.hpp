// Single-layer LSTM over [N, T, F] sequences, returning the last hidden
// state [N, H]. Full backpropagation through time.
//
// Parameter names follow PyTorch ("rnn.weight_ih_l0", "rnn.weight_hh_l0",
// "rnn.bias_ih_l0", "rnn.bias_hh_l0") — the same identifiers the paper's
// Fig. 3/Fig. 5 use when discussing per-layer convergence of the LSTM
// workload. Gate order inside the stacked 4H dimension: input, forget,
// cell, output.
#pragma once

#include <vector>

#include "nn/module.hpp"
#include "tensor/ops.hpp"

namespace fedca::nn {

class LSTM : public Module {
 public:
  LSTM(std::string name_prefix, std::size_t input_size, std::size_t hidden_size,
       std::size_t seq_len, util::Rng& rng);

  // In training mode (the default) forward() keeps the per-timestep cache
  // backpropagation through time reads. In eval mode it computes the same
  // output bits without one, and frees the cache of any earlier forward:
  // backward()/backward_params() after an eval-mode forward throw.
  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;
  void backward_params(const Tensor& grad_output) override;
  std::vector<Parameter*> parameters() override;
  std::string type_name() const override { return "LSTM"; }
  void set_training(bool training) override { training_ = training; }
  std::unique_ptr<Module> clone() const override { return std::make_unique<LSTM>(*this); }

  std::size_t hidden_size() const { return hidden_size_; }

 private:
  // Shared body of backward()/backward_params(): full BPTT into the
  // parameter gradients; the per-timestep input gradient is formed only
  // when grad_input is non-null.
  void backward_into(const Tensor& grad_output, Tensor* grad_input);

  std::size_t input_size_, hidden_size_, seq_len_;
  Parameter weight_ih_;  // [4H, F]
  Parameter weight_hh_;  // [4H, H]
  Parameter bias_ih_;    // [4H]
  Parameter bias_hh_;    // [4H]
  bool training_ = true;

  // Per-timestep forward caches (index t in [0, T)), kept across forwards
  // of the same batch size. c_{t-1} is cache_[t-1].c (zero at t = 0).
  struct StepCache {
    Tensor x;       // [N, F]
    Tensor h_prev;  // [N, H]
    Tensor i, f, g, o;  // each [N, H]
    Tensor c;       // [N, H]
    Tensor tanh_c;  // [N, H]
  };
  std::vector<StepCache> cache_;  // empty: no training-mode forward to use
  std::size_t cached_batch_ = 0;

  // The weights packed once per pass for the per-timestep GEMMs:
  // W_ih^T and W_hh^T in forward, W_hh in backward (and W_ih when the
  // input gradient is wanted).
  tensor::PackedB packed_ih_;
  tensor::PackedB packed_hh_;
};

}  // namespace fedca::nn
