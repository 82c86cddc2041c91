// LSTM bit pins: FNV-1a digests of the forward output and of all four
// parameter gradients over two SGD steps, at batch sizes 1, 10 and 320,
// on every SIMD tier this host runs. The digests were recorded from the
// per-timestep scalar-libm implementation the vectorized gate loop
// replaced, so any change to a single output bit fails here. Inputs are
// scaled per (sample, timestep) so the gate pre-activations cover
// |x| < 1, 1 <= |x| < 22 and |x| >= 22, the three regimes of tanhf.
// Eval mode (no BPTT cache) must give the training-mode output bits.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "nn/lstm.hpp"
#include "tensor/ops.hpp"
#include "tensor/simd/dispatch.hpp"
#include "util/rng.hpp"

namespace fedca::nn {
namespace {

namespace simd = tensor::simd;

constexpr std::size_t kFeatures = 8;
constexpr std::size_t kHidden = 96;
constexpr std::size_t kSeqLen = 16;

std::vector<simd::Tier> host_tiers() {
  std::vector<simd::Tier> tiers{simd::Tier::kScalar};
  if (simd::avx2_supported()) tiers.push_back(simd::Tier::kAvx2);
  if (simd::avx512_supported()) tiers.push_back(simd::Tier::kAvx512);
  return tiers;
}

// Running FNV-1a over raw float bytes.
struct Fnv {
  std::uint64_t h = 1469598103934665603ull;
  void add(const Tensor& t) {
    const auto* bytes = reinterpret_cast<const unsigned char*>(t.raw());
    for (std::size_t i = 0; i < t.numel() * sizeof(float); ++i) {
      h ^= bytes[i];
      h *= 1099511628211ull;
    }
  }
};

// [n, T, F] normals, each (sample, timestep) row scaled by 0.3, 4 or 300
// in turn: small rows keep every gate near its linear region, large rows
// saturate it.
Tensor scaled_input(std::size_t n, util::Rng& rng) {
  static constexpr float kScales[] = {0.3f, 4.0f, 300.0f};
  Tensor x({n, kSeqLen, kFeatures});
  for (std::size_t s = 0; s < n; ++s) {
    for (std::size_t t = 0; t < kSeqLen; ++t) {
      const float scale = kScales[(s + t) % 3];
      for (std::size_t f = 0; f < kFeatures; ++f) {
        x[(s * kSeqLen + t) * kFeatures + f] =
            scale * static_cast<float>(rng.normal(0.0, 1.0));
      }
    }
  }
  return x;
}

Tensor random_tensor(tensor::Shape shape, util::Rng& rng) {
  Tensor t(std::move(shape));
  for (std::size_t i = 0; i < t.numel(); ++i) t[i] = static_cast<float>(rng.normal(0.0, 1.0));
  return t;
}

struct Digests {
  std::uint64_t output, w_ih, w_hh, b_ih, b_hh;
};

// Two SGD steps (lr 0.05) of one LSTM: step 0 through backward_params,
// step 1 through the full backward, each against a fresh random output
// gradient.
Digests run_two_steps(std::size_t n) {
  util::Rng rng(1234 + n);
  LSTM lstm("rnn", kFeatures, kHidden, kSeqLen, rng);
  const Tensor input = scaled_input(n, rng);
  const std::vector<Parameter*> params = lstm.parameters();
  Fnv out, grads[4];
  for (int step = 0; step < 2; ++step) {
    lstm.zero_grad();
    const Tensor h = lstm.forward(input);
    out.add(h);
    const Tensor grad_h = random_tensor(h.shape(), rng);
    if (step == 0) {
      lstm.backward_params(grad_h);
    } else {
      (void)lstm.backward(grad_h);
    }
    for (std::size_t p = 0; p < params.size(); ++p) {
      grads[p].add(params[p]->grad);
      tensor::add_scaled(params[p]->value, -0.05f, params[p]->grad);
    }
  }
  return {out.h, grads[0].h, grads[1].h, grads[2].h, grads[3].h};
}

TEST(LstmBitPin, InputsCoverEveryTanhRegime) {
  // Pre-activations of the first timestep (h_0 = 0): x W_ih^T + b_ih + b_hh.
  util::Rng rng(1234 + 10);
  LSTM lstm("rnn", kFeatures, kHidden, kSeqLen, rng);
  const Tensor input = scaled_input(10, rng);
  const std::vector<Parameter*> p = lstm.parameters();
  std::size_t small = 0, mid = 0, large = 0;
  for (std::size_t s = 0; s < 10; ++s) {
    for (std::size_t j = 0; j < 4 * kHidden; ++j) {
      float acc = 0.0f;
      for (std::size_t f = 0; f < kFeatures; ++f) {
        acc += input[s * kSeqLen * kFeatures + f] * p[0]->value[j * kFeatures + f];
      }
      const float pre = std::fabs(acc + p[2]->value[j] + p[3]->value[j]);
      (pre < 1.0f ? small : pre < 22.0f ? mid : large) += 1;
    }
  }
  EXPECT_GT(small, 0u);
  EXPECT_GT(mid, 0u);
  EXPECT_GT(large, 0u);
}

TEST(LstmBitPin, DigestsMatchOnEveryTier) {
  struct Case {
    std::size_t n;
    Digests want;
  };
  const Case cases[] = {
      {1,
       {0x476f71d1fbe6bd76ull, 0xad45bdb74540c495ull, 0xd7eff0bb7494490dull,
        0x5222c6a82a108625ull, 0x5222c6a82a108625ull}},
      {10,
       {0x7f255de6729efa3cull, 0xf19fe2ccdcb37bc5ull, 0xf720cb48bc8d05baull,
        0x4e5804df2244792aull, 0x4e5804df2244792aull}},
      {320,
       {0xa496a71ba89b654bull, 0x8b0ae1fc46d91228ull, 0xc3f43f825cc70d47ull,
        0xec7b66774d51137full, 0xec7b66774d51137full}},
  };
  for (const simd::Tier tier : host_tiers()) {
    simd::set_tier_for_testing(tier);
    for (const Case& c : cases) {
      const Digests got = run_two_steps(c.n);
      const std::string where =
          "N=" + std::to_string(c.n) + " tier " + simd::tier_name(tier);
      EXPECT_EQ(got.output, c.want.output) << where << " output 0x" << std::hex << got.output;
      EXPECT_EQ(got.w_ih, c.want.w_ih) << where << " weight_ih 0x" << std::hex << got.w_ih;
      EXPECT_EQ(got.w_hh, c.want.w_hh) << where << " weight_hh 0x" << std::hex << got.w_hh;
      EXPECT_EQ(got.b_ih, c.want.b_ih) << where << " bias_ih 0x" << std::hex << got.b_ih;
      EXPECT_EQ(got.b_hh, c.want.b_hh) << where << " bias_hh 0x" << std::hex << got.b_hh;
    }
  }
  simd::reset_tier_from_env();
}

std::vector<float> grads_of(LSTM& lstm) {
  std::vector<float> all;
  for (Parameter* p : lstm.parameters()) {
    all.insert(all.end(), p->grad.raw(), p->grad.raw() + p->grad.numel());
  }
  return all;
}

TEST(LstmBitPin, EvalModeMatchesTrainingAndKeepsNoCache) {
  for (const simd::Tier tier : host_tiers()) {
    simd::set_tier_for_testing(tier);
    for (const std::size_t n : {1u, 10u, 320u}) {
      util::Rng rng(77 + n);
      LSTM lstm("rnn", kFeatures, kHidden, kSeqLen, rng);
      const Tensor input = scaled_input(n, rng);
      const Tensor grad_h = random_tensor({n, kHidden}, rng);
      const Tensor trained = lstm.forward(input);
      lstm.set_training(false);
      const Tensor evaluated = lstm.forward(input);
      ASSERT_TRUE(evaluated.same_shape(trained));
      EXPECT_EQ(std::memcmp(evaluated.raw(), trained.raw(), trained.numel() * sizeof(float)), 0)
          << "N=" << n << " tier " << simd::tier_name(tier);
      // The eval forward dropped the training forward's cache too, and a
      // clone carries none.
      EXPECT_THROW(lstm.backward(grad_h), std::invalid_argument);
      EXPECT_THROW(lstm.clone()->backward_params(grad_h), std::invalid_argument);
      try {
        lstm.backward_params(grad_h);
        ADD_FAILURE() << "backward_params after an eval-mode forward did not throw";
      } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find("eval mode"), std::string::npos) << e.what();
      }

      // Back in training mode, after a forward at another batch size, the
      // gradients equal a fresh layer's.
      lstm.set_training(true);
      (void)lstm.forward(scaled_input(n + 1, rng));
      lstm.zero_grad();
      (void)lstm.forward(input);
      lstm.backward_params(grad_h);
      util::Rng fresh_rng(77 + n);
      LSTM fresh("rnn", kFeatures, kHidden, kSeqLen, fresh_rng);
      (void)fresh.forward(input);
      fresh.backward_params(grad_h);
      const std::vector<float> a = grads_of(lstm), b = grads_of(fresh);
      EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(float)), 0)
          << "N=" << n << " tier " << simd::tier_name(tier);
    }
  }
  simd::reset_tier_from_env();
}

TEST(LstmBitPin, BackwardWithoutForwardThrows) {
  util::Rng rng(5);
  LSTM lstm("rnn", kFeatures, kHidden, kSeqLen, rng);
  EXPECT_THROW(lstm.backward_params(Tensor({1, kHidden})), std::invalid_argument);
}

}  // namespace
}  // namespace fedca::nn
