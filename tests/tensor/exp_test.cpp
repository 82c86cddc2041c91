// tensor::sigmoid, 1 / (1 + expf(-x)): the AVX-512 kernel's replica of
// glibc 2.36's __expf_fma against libm's expf, which the other tiers call.
//   * The AVX-512 kernel equals the portable loop (the scalar tier) on all
//     2^32 bit patterns, when the host libm is the expf the kernel copies
//     (the grid pin decides).
//   * An FNV-1a digest over a fixed grid, recorded from glibc 2.36's libm,
//     pins the kernel on hosts whose libm differs.
//   * Every tier agrees, in and out of place, on the values where expf
//     leaves its main path (|x| >= 88, inf, NaN) and on denormals and
//     zeros, at the lane edges of a vector block and in the tail.
//   * An LSTM whose gate pre-activations pass +-88 and reach NaN gives the
//     same output and gradient bits on every tier.
#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "nn/lstm.hpp"
#include "tensor/ops.hpp"
#include "tensor/simd/dispatch.hpp"
#include "tensor/simd/kernels.hpp"
#include "tests/tensor/bit_patterns.hpp"
#include "util/rng.hpp"

namespace fedca::tensor {
namespace {

using bit_patterns::fnv1a;
using bit_patterns::from_bits;
using bit_patterns::grid_inputs;
using bit_patterns::host_tiers;
using bit_patterns::same_bits;
using bit_patterns::sweep_all_patterns;

// 1 / (1 + expf(-x)) over bit_patterns::grid_inputs(), recorded from
// glibc 2.36.
constexpr std::uint64_t kGridDigest = 0x8873db6f579c7d77ull;

std::vector<float> libm_sigmoid(const std::vector<float>& x) {
  std::vector<float> y(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) y[i] = 1.0f / (1.0f + std::exp(-x[i]));
  return y;
}

bool libm_is_pinned() { return fnv1a(libm_sigmoid(grid_inputs())) == kGridDigest; }

TEST(Sigmoid, EveryTierMatchesPinnedGridDigest) {
  const std::vector<float> x = grid_inputs();
  const bool pinned_libm = libm_is_pinned();
  for (const simd::Tier tier : host_tiers()) {
    simd::set_tier_for_testing(tier);
    // Only the AVX-512 tier replicates expf; the others are libm's.
    if (tier != simd::Tier::kAvx512 && !pinned_libm) continue;
    std::vector<float> y(x.size());
    sigmoid(x, y);
    EXPECT_EQ(fnv1a(y), kGridDigest)
        << "tier " << simd::tier_name(tier) << " got 0x" << std::hex << fnv1a(y);
  }
  simd::reset_tier_from_env();
}

TEST(Sigmoid, Avx512KernelEqualsLibmOnAllInputs) {
#if defined(__x86_64__) || defined(_M_X64)
  if (!simd::avx512_supported()) GTEST_SKIP() << "host has no AVX-512 tier";
  if (!libm_is_pinned()) {
    GTEST_SKIP() << "host libm expf is not glibc 2.36's __expf_fma, which the kernel copies";
  }
  simd::set_tier_for_testing(simd::Tier::kScalar);
  const std::uint64_t bad = sweep_all_patterns([](const float* x, std::size_t n) {
    std::vector<float> libm(n), vec(n);
    sigmoid(std::span<const float>(x, n), libm);
    simd::sigmoid_avx512(x, vec.data(), n);
    std::uint64_t mismatches = 0;
    for (std::size_t i = 0; i < n; ++i) {
      mismatches += std::memcmp(&libm[i], &vec[i], sizeof(float)) != 0;
    }
    return mismatches;
  });
  EXPECT_EQ(bad, 0u);
  simd::reset_tier_from_env();
#else
  GTEST_SKIP() << "no vector sigmoid kernel on this architecture";
#endif
}

TEST(Sigmoid, SpecialValuesAgreeAcrossTiersAtLaneEdges) {
  // expf(-x) leaves the kernel's main path at |x| >= 88; the thresholds
  // are where glibc's expf overflows (88.72), starts to round to
  // denormals (103.28) and underflows to 0 (103.97).
  constexpr float kInf = std::numeric_limits<float>::infinity();
  const float specials[] = {
      std::numeric_limits<float>::quiet_NaN(),
      -std::numeric_limits<float>::quiet_NaN(),
      kInf,
      -kInf,
      0.0f,
      -0.0f,
      std::numeric_limits<float>::denorm_min(),
      -std::numeric_limits<float>::denorm_min(),
      from_bits(0x007fffffu),  // largest denormal
      FLT_MAX,
      -FLT_MAX,
      88.0f,
      -88.0f,
      from_bits(0x42afffffu),  // largest float below 88
      from_bits(0xc2afffffu),
      0x1.62e42ep6f,  // 88.72
      -0x1.62e42ep6f,
      from_bits(0x42b17218u),  // next above 88.72
      -from_bits(0x42b17218u),
      0x1.9d1d9ep6f,  // 103.28
      -0x1.9d1d9ep6f,
      0x1.9fe368p6f,  // 103.97
      -0x1.9fe368p6f,
  };
  const std::size_t lanes[] = {0, 7, 8, 15};
  // One 16-lane block, two blocks plus a 5-lane tail, and a pure tail.
  for (const std::size_t n : {16u, 37u, 11u}) {
    for (const float special : specials) {
      std::vector<float> x(n);
      for (std::size_t i = 0; i < n; ++i) {
        x[i] = 0.37f * static_cast<float>(i % 9) - 1.5f;
      }
      for (const std::size_t lane : lanes) {
        if (lane < n) x[lane] = special;
      }
      x[n - 1] = special;  // the tail (a lane of the last block for n = 16)
      if (n > 33) x[33] = -special;
      simd::set_tier_for_testing(simd::Tier::kScalar);
      std::vector<float> want(n);
      sigmoid(x, want);
      for (const simd::Tier tier : host_tiers()) {
        simd::set_tier_for_testing(tier);
        std::vector<float> got(n);
        sigmoid(x, got);
        std::vector<float> in_place = x;
        sigmoid(in_place, in_place);
        const std::string where = std::string("tier ") + simd::tier_name(tier) +
                                  " n=" + std::to_string(n) + " special=" +
                                  std::to_string(special);
        EXPECT_TRUE(same_bits(want, got)) << where;
        EXPECT_TRUE(same_bits(want, in_place)) << "in place, " << where;
      }
    }
  }
  simd::reset_tier_from_env();
}

TEST(Sigmoid, ShortSpansAgreeAcrossTiers) {
  // Lengths 0-33: the empty span, every tail length, one and two blocks.
  for (std::size_t n = 0; n <= 33; ++n) {
    std::vector<float> x(n);
    for (std::size_t i = 0; i < n; ++i) {
      x[i] = from_bits(static_cast<std::uint32_t>(0x9E3779B9u * (i + 7 * n)));
    }
    simd::set_tier_for_testing(simd::Tier::kScalar);
    std::vector<float> want(n);
    sigmoid(x, want);
    for (const simd::Tier tier : host_tiers()) {
      simd::set_tier_for_testing(tier);
      std::vector<float> got(n);
      sigmoid(x, got);
      EXPECT_TRUE(same_bits(want, got)) << "tier " << simd::tier_name(tier) << " n=" << n;
    }
  }
  simd::reset_tier_from_env();
}

TEST(Sigmoid, SizeMismatchThrows) {
  std::vector<float> x(3), y(4);
  EXPECT_THROW(sigmoid(x, y), std::invalid_argument);
}

// ---- LSTM gates past expf's main path ----

constexpr std::size_t kBatch = 10;
constexpr std::size_t kFeatures = 8;
constexpr std::size_t kHidden = 96;
constexpr std::size_t kSeqLen = 12;

// [kBatch, kSeqLen, kFeatures] normals scaled by 0.5, 40 or 2000 per
// (sample, timestep), so the gate pre-activations fall on both sides of
// +-88; sample 3 reads a NaN at timestep 5, which turns its later gates
// NaN, and sample 7 an inf at timestep 9, which drives gates to +-inf.
Tensor saturating_input(util::Rng& rng) {
  static constexpr float kScales[] = {0.5f, 40.0f, 2000.0f};
  Tensor x({kBatch, kSeqLen, kFeatures});
  for (std::size_t s = 0; s < kBatch; ++s) {
    for (std::size_t t = 0; t < kSeqLen; ++t) {
      const float scale = kScales[(s + t) % 3];
      for (std::size_t f = 0; f < kFeatures; ++f) {
        x[(s * kSeqLen + t) * kFeatures + f] = scale * static_cast<float>(rng.normal(0.0, 1.0));
      }
    }
  }
  x[(3 * kSeqLen + 5) * kFeatures + 2] = std::numeric_limits<float>::quiet_NaN();
  x[(7 * kSeqLen + 9) * kFeatures + 6] = std::numeric_limits<float>::infinity();
  return x;
}

// Output, input gradient and parameter gradients of one training step,
// as raw floats.
std::vector<float> lstm_step_bits(const Tensor& input, const Tensor& grad_h) {
  util::Rng rng(2024);
  nn::LSTM lstm("rnn", kFeatures, kHidden, kSeqLen, rng);
  lstm.zero_grad();
  const Tensor h = lstm.forward(input);
  const Tensor dx = lstm.backward(grad_h);
  std::vector<float> all(h.raw(), h.raw() + h.numel());
  all.insert(all.end(), dx.raw(), dx.raw() + dx.numel());
  for (nn::Parameter* p : lstm.parameters()) {
    all.insert(all.end(), p->grad.raw(), p->grad.raw() + p->grad.numel());
  }
  return all;
}

TEST(SigmoidLstm, GatesPastExpfRangeAndNaNAgreeAcrossTiers) {
  util::Rng rng(99);
  const Tensor input = saturating_input(rng);
  Tensor grad_h({kBatch, kHidden});
  for (std::size_t i = 0; i < grad_h.numel(); ++i) {
    grad_h[i] = static_cast<float>(rng.normal(0.0, 1.0));
  }

  // The first timestep's pre-activations (h_0 = 0) reach past +-88 on
  // both sides and stay inside elsewhere.
  {
    util::Rng init(2024);
    nn::LSTM lstm("rnn", kFeatures, kHidden, kSeqLen, init);
    const std::vector<nn::Parameter*> p = lstm.parameters();
    std::size_t above = 0, below = 0, inside = 0;
    for (std::size_t s = 0; s < kBatch; ++s) {
      for (std::size_t j = 0; j < 4 * kHidden; ++j) {
        float acc = p[2]->value[j] + p[3]->value[j];
        for (std::size_t f = 0; f < kFeatures; ++f) {
          acc += input[s * kSeqLen * kFeatures + f] * p[0]->value[j * kFeatures + f];
        }
        (acc >= 88.0f ? above : acc <= -88.0f ? below : inside) += 1;
      }
    }
    EXPECT_GT(above, 0u);
    EXPECT_GT(below, 0u);
    EXPECT_GT(inside, 0u);
  }

  simd::set_tier_for_testing(simd::Tier::kScalar);
  const std::vector<float> want = lstm_step_bits(input, grad_h);
  std::size_t nan_outputs = 0;
  for (std::size_t i = 0; i < kBatch * kHidden; ++i) nan_outputs += std::isnan(want[i]);
  EXPECT_GE(nan_outputs, kHidden) << "sample 3 should end NaN";
  EXPECT_LT(nan_outputs, kBatch * kHidden);
  for (const simd::Tier tier : host_tiers()) {
    simd::set_tier_for_testing(tier);
    const std::vector<float> got = lstm_step_bits(input, grad_h);
    EXPECT_TRUE(same_bits(want, got)) << "tier " << simd::tier_name(tier);
  }
  simd::reset_tier_from_env();
}

}  // namespace
}  // namespace fedca::tensor
