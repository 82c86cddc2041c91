#include "nn/lstm.hpp"

#include <algorithm>
#include <span>
#include <stdexcept>
#include <utility>

#include "obs/session.hpp"
#include "tensor/init.hpp"
#include "tensor/ops.hpp"

namespace fedca::nn {

namespace {

// The element-wise tails of a timestep, as loops the compiler vectorizes
// (this file is built with -O3 -ffp-contract=off, so every product and sum
// below stays a separately rounded IEEE operation).

// c = f * c_prev + i * g. c may alias c_prev (eval mode updates in place).
void cell_update(const float* f, const float* c_prev, const float* i, const float* g,
                 float* c, std::size_t n) {
  for (std::size_t k = 0; k < n; ++k) c[k] = f[k] * c_prev[k] + i[k] * g[k];
}

// h = o * tanh(c).
void hidden_output(const float* o, const float* tanh_c, float* h, std::size_t n) {
  for (std::size_t k = 0; k < n; ++k) h[k] = o[k] * tanh_c[k];
}

}  // namespace

LSTM::LSTM(std::string name_prefix, std::size_t input_size, std::size_t hidden_size,
           std::size_t seq_len, util::Rng& rng)
    : input_size_(input_size),
      hidden_size_(hidden_size),
      seq_len_(seq_len),
      weight_ih_(name_prefix + ".weight_ih_l0", Tensor({4 * hidden_size, input_size})),
      weight_hh_(name_prefix + ".weight_hh_l0", Tensor({4 * hidden_size, hidden_size})),
      bias_ih_(name_prefix + ".bias_ih_l0", Tensor({4 * hidden_size})),
      bias_hh_(name_prefix + ".bias_hh_l0", Tensor({4 * hidden_size})) {
  tensor::fanin_uniform(weight_ih_.value, hidden_size, rng);
  tensor::fanin_uniform(weight_hh_.value, hidden_size, rng);
  tensor::fanin_uniform(bias_ih_.value, hidden_size, rng);
  tensor::fanin_uniform(bias_hh_.value, hidden_size, rng);
}

Tensor LSTM::forward(const Tensor& input) {
  FEDCA_KERNEL_SPAN("lstm.forward");
  if (input.ndim() != 3 || input.dim(1) != seq_len_ || input.dim(2) != input_size_) {
    throw std::invalid_argument("LSTM::forward expects [N, " + std::to_string(seq_len_) +
                                ", " + std::to_string(input_size_) + "], got " +
                                tensor::shape_to_string(input.shape()));
  }
  const std::size_t n = input.dim(0);
  const std::size_t H = hidden_size_;
  const std::size_t F = input_size_;
  const std::size_t nh = n * H;
  // Training mode fills the BPTT cache, allocated only when the batch size
  // changes. Eval mode drops it and runs every step in one reused cache
  // entry: c is updated in place there, each element read before written.
  StepCache step;
  if (training_) {
    if (cache_.size() != seq_len_ || cached_batch_ != n) {
      cache_.assign(seq_len_, StepCache{});
      for (StepCache& sc : cache_) {
        sc.x = Tensor({n, F});
        sc.h_prev = sc.i = sc.f = sc.g = sc.o = sc.c = sc.tanh_c = Tensor({n, H});
      }
      cached_batch_ = n;
    }
  } else {
    cache_.clear();
    cached_batch_ = 0;
    step.x = Tensor({n, F});
    step.i = step.f = step.g = step.o = step.c = step.tanh_c = Tensor({n, H});
  }
  packed_ih_.pack(F, 4 * H, weight_ih_.value.raw(), /*b_trans=*/true);
  packed_hh_.pack(H, 4 * H, weight_hh_.value.raw(), /*b_trans=*/true);
  const float* b_ih = bias_ih_.value.raw();
  const float* b_hh = bias_hh_.value.raw();

  Tensor h({n, H});
  const Tensor c_zero({n, H});
  Tensor pre({n, 4 * H});
  Tensor pre_h({n, 4 * H});
  for (std::size_t t = 0; t < seq_len_; ++t) {
    StepCache& sc = training_ ? cache_[t] : step;
    const float* c_prev = t == 0 ? c_zero.raw() : training_ ? cache_[t - 1].c.raw() : sc.c.raw();
    // Slice x_t out of the [N, T, F] input.
    for (std::size_t s = 0; s < n; ++s) {
      const float* src = input.raw() + (s * seq_len_ + t) * F;
      std::copy(src, src + F, sc.x.raw() + s * F);
    }
    if (training_) sc.h_prev = h;

    tensor::gemm_packed(sc.x, packed_ih_, pre);
    tensor::gemm_packed(h, packed_hh_, pre_h);
    // Per row, gate blocks i | f | g | o of width H. The sigmoid gates go
    // through tensor::sigmoid (libm expf's bits), g and tanh(c) through
    // tensor::tanh (libm tanhf's bits).
    for (std::size_t s = 0; s < n; ++s) {
      float* p = pre.raw() + s * 4 * H;
      const float* ph = pre_h.raw() + s * 4 * H;
      for (std::size_t j = 0; j < 4 * H; ++j) p[j] = p[j] + ph[j] + b_ih[j] + b_hh[j];
      const auto gate = [&](std::size_t k) { return std::span<const float>(p + k * H, H); };
      const auto row = [&](Tensor& t) { return std::span<float>(t.raw() + s * H, H); };
      tensor::sigmoid(gate(0), row(sc.i));
      tensor::sigmoid(gate(1), row(sc.f));
      tensor::tanh(gate(2), row(sc.g));
      tensor::sigmoid(gate(3), row(sc.o));
    }
    cell_update(sc.f.raw(), c_prev, sc.i.raw(), sc.g.raw(), sc.c.raw(), nh);
    tensor::tanh(sc.c.data(), sc.tanh_c.data());
    hidden_output(sc.o.raw(), sc.tanh_c.raw(), h.raw(), nh);
  }
  return h;  // last hidden state
}

Tensor LSTM::backward(const Tensor& grad_output) {
  Tensor grad_input;
  backward_into(grad_output, &grad_input);
  return grad_input;
}

void LSTM::backward_params(const Tensor& grad_output) { backward_into(grad_output, nullptr); }

void LSTM::backward_into(const Tensor& grad_output, Tensor* grad_input) {
  FEDCA_KERNEL_SPAN("lstm.backward");
  if (cache_.empty()) {
    throw std::invalid_argument(
        "LSTM::backward needs the cache of a training-mode forward; the last forward "
        "ran in eval mode (set_training(false)) or none ran");
  }
  const std::size_t n = cached_batch_;
  const std::size_t H = hidden_size_;
  if (grad_output.ndim() != 2 || grad_output.dim(0) != n || grad_output.dim(1) != H) {
    throw std::invalid_argument("LSTM::backward expects [N, H] gradient, got " +
                                tensor::shape_to_string(grad_output.shape()));
  }
  Tensor dx;
  if (grad_input) {
    *grad_input = Tensor({n, seq_len_, input_size_});
    dx = Tensor({n, input_size_});
    packed_ih_.pack(4 * H, input_size_, weight_ih_.value.raw(), /*b_trans=*/false);
  }
  packed_hh_.pack(4 * H, H, weight_hh_.value.raw(), /*b_trans=*/false);
  Tensor dh = grad_output;  // gradient flowing into h_t
  Tensor dc({n, H});        // gradient flowing into c_t (zero at t = T)
  Tensor dpre({n, 4 * H});
  Tensor dh_rec({n, H});
  const Tensor c_zero({n, H});

  for (std::size_t t = seq_len_; t-- > 0;) {
    const StepCache& sc = cache_[t];
    const float* c_prev = t > 0 ? cache_[t - 1].c.raw() : c_zero.raw();
    for (std::size_t s = 0; s < n; ++s) {
      for (std::size_t j = 0; j < H; ++j) {
        const std::size_t k = s * H + j;
        const float dhv = dh[k];
        const float tc = sc.tanh_c[k];
        const float dov = dhv * tc;
        float dcv = dhv * sc.o[k] * (1.0f - tc * tc) + dc[k];
        const float div = dcv * sc.g[k];
        const float dgv = dcv * sc.i[k];
        const float dfv = dcv * c_prev[k];
        dc[k] = dcv * sc.f[k];  // gradient to c_{t-1}
        float* dp = dpre.raw() + s * 4 * H;
        dp[0 * H + j] = div * sc.i[k] * (1.0f - sc.i[k]);
        dp[1 * H + j] = dfv * sc.f[k] * (1.0f - sc.f[k]);
        dp[2 * H + j] = dgv * (1.0f - sc.g[k] * sc.g[k]);
        dp[3 * H + j] = dov * sc.o[k] * (1.0f - sc.o[k]);
      }
    }
    // Parameter gradients; each bias element sums the rows in ascending
    // order onto its running value.
    tensor::gemm_tn(dpre, sc.x, weight_ih_.grad, tensor::Store::kAccumulate);
    tensor::gemm_tn(dpre, sc.h_prev, weight_hh_.grad, tensor::Store::kAccumulate);
    tensor::row_sum(dpre.data(), n, bias_ih_.grad.data());
    tensor::row_sum(dpre.data(), n, bias_hh_.grad.data());
    // Input gradient for this timestep.
    if (grad_input) {
      tensor::gemm_packed(dpre, packed_ih_, dx);
      for (std::size_t s = 0; s < n; ++s) {
        float* dst = grad_input->raw() + (s * seq_len_ + t) * input_size_;
        const float* src = dx.raw() + s * input_size_;
        for (std::size_t j = 0; j < input_size_; ++j) dst[j] = src[j];
      }
    }
    // Recurrent gradient to h_{t-1} (none needed below t = 0).
    if (t > 0) {
      tensor::gemm_packed(dpre, packed_hh_, dh_rec);
      std::swap(dh, dh_rec);
    }
  }
}

std::vector<Parameter*> LSTM::parameters() {
  return {&weight_ih_, &weight_hh_, &bias_ih_, &bias_hh_};
}

}  // namespace fedca::nn
