// SIMD kernel tier: bit-identity of the span kernels (axpy, scale, dot,
// l2_norm, bias_add, row_sum) and the int8 quantization kernels across the
// dispatch tiers, plus the tensor-level quantization semantics the fl
// compression layer builds on.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "tensor/ops.hpp"
#include "tensor/simd/dispatch.hpp"
#include "util/rng.hpp"

namespace fedca::tensor {
namespace {

std::vector<float> random_values(std::size_t n, util::Rng& rng) {
  std::vector<float> v(n);
  for (float& x : v) x = static_cast<float>(rng.normal(0.0, 1.0));
  return v;
}

// Exercise vector bodies, tails, and the empty span.
const std::size_t kLens[] = {0, 1, 7, 8, 9, 31, 32, 33, 100, 1000};

// Test-local oracles of the int8 wire: the codes a sender would transmit,
// q = clamp(round_nearest_even(x / scale) + zero_point, -128, 127), and what
// the receiver rebuilds from them. fake_quantize_int8 must equal
// dequantize(quantize(x)) bit for bit.
std::vector<std::int8_t> quantize(const std::vector<float>& x, const QuantParams& p) {
  const float inv_scale = 1.0f / p.scale;
  std::vector<std::int8_t> q(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    const auto r = static_cast<std::int32_t>(std::lrintf(x[i] * inv_scale)) + p.zero_point;
    q[i] = static_cast<std::int8_t>(std::clamp(r, -128, 127));
  }
  return q;
}

std::vector<float> dequantize(const std::vector<std::int8_t>& q, const QuantParams& p) {
  std::vector<float> out(q.size());
  for (std::size_t i = 0; i < q.size(); ++i) {
    out[i] = p.scale * static_cast<float>(static_cast<std::int32_t>(q[i]) - p.zero_point);
  }
  return out;
}

std::vector<float> fake_quantized(std::vector<float> x, const QuantParams& p) {
  fake_quantize_int8(x, p);
  return x;
}

std::vector<simd::Tier> vector_tiers() {
  std::vector<simd::Tier> tiers;
  if (simd::avx2_supported()) tiers.push_back(simd::Tier::kAvx2);
  if (simd::avx512_supported()) tiers.push_back(simd::Tier::kAvx512);
  return tiers;
}

TEST(SimdSpanKernels, BitIdenticalAcrossTiers) {
  const std::vector<simd::Tier> tiers = vector_tiers();
  if (tiers.empty()) GTEST_SKIP() << "host has no vector tier";
  util::Rng rng(0x51D);
  for (const std::size_t n : kLens) {
    const std::vector<float> x = random_values(n, rng);
    const std::vector<float> y = random_values(n, rng);

    simd::set_tier_for_testing(simd::Tier::kScalar);
    std::vector<float> axpy0 = y;
    axpy(0.37f, x, axpy0);
    std::vector<float> scale0 = y;
    scale(-1.25f, scale0);
    const double dot0 = dot(x, y);
    const double l20 = l2_norm(x);

    for (const simd::Tier tier : tiers) {
      simd::set_tier_for_testing(tier);
      std::vector<float> axpy1 = y;
      axpy(0.37f, x, axpy1);
      std::vector<float> scale1 = y;
      scale(-1.25f, scale1);
      ASSERT_EQ(std::memcmp(axpy0.data(), axpy1.data(), n * sizeof(float)), 0)
          << "axpy " << simd::tier_name(tier) << " n=" << n;
      ASSERT_EQ(std::memcmp(scale0.data(), scale1.data(), n * sizeof(float)), 0)
          << "scale " << simd::tier_name(tier) << " n=" << n;
      // Reductions return doubles; bit-identity is exact equality.
      ASSERT_EQ(dot(x, y), dot0) << "dot " << simd::tier_name(tier) << " n=" << n;
      ASSERT_EQ(l2_norm(x), l20) << "l2 " << simd::tier_name(tier) << " n=" << n;
    }
  }
  simd::reset_tier_from_env();
}

TEST(SimdSpanKernels, BiasAddAndRowSumBitIdenticalAcrossTiers) {
  const std::vector<simd::Tier> tiers = vector_tiers();
  if (tiers.empty()) GTEST_SKIP() << "host has no vector tier";
  util::Rng rng(0xB1A5);
  for (const std::size_t rows : {1u, 3u, 16u}) {
    for (const std::size_t cols : {1u, 7u, 8u, 33u, 100u}) {
      const std::vector<float> in = random_values(rows * cols, rng);
      const std::vector<float> bias = random_values(cols, rng);

      simd::set_tier_for_testing(simd::Tier::kScalar);
      std::vector<float> out0 = in;
      bias_add(out0, rows, bias);
      std::vector<float> sum0(cols, 0.0f);
      row_sum(in, rows, sum0);

      for (const simd::Tier tier : tiers) {
        simd::set_tier_for_testing(tier);
        std::vector<float> out1 = in;
        bias_add(out1, rows, bias);
        std::vector<float> sum1(cols, 0.0f);
        row_sum(in, rows, sum1);
        ASSERT_EQ(std::memcmp(out0.data(), out1.data(),
                              out0.size() * sizeof(float)),
                  0)
            << "bias_add " << simd::tier_name(tier) << " " << rows << "x" << cols;
        ASSERT_EQ(std::memcmp(sum0.data(), sum1.data(), cols * sizeof(float)), 0)
            << "row_sum " << simd::tier_name(tier) << " " << rows << "x" << cols;
      }
    }
  }
  simd::reset_tier_from_env();
}

TEST(SimdQuantize, BitIdenticalAcrossTiers) {
  const std::vector<simd::Tier> tiers = vector_tiers();
  if (tiers.empty()) GTEST_SKIP() << "host has no vector tier";
  util::Rng rng(0x1208);
  for (const std::size_t n : kLens) {
    const std::vector<float> x = random_values(n, rng);

    simd::set_tier_for_testing(simd::Tier::kScalar);
    const QuantParams p0 = compute_quant_params(x);
    const std::vector<float> f0 = fake_quantized(x, p0);
    const std::vector<float> oracle = dequantize(quantize(x, p0), p0);
    ASSERT_EQ(std::memcmp(f0.data(), oracle.data(), n * sizeof(float)), 0)
        << "fake_quantize scalar vs oracle n=" << n;

    for (const simd::Tier tier : tiers) {
      simd::set_tier_for_testing(tier);
      const QuantParams p1 = compute_quant_params(x);
      ASSERT_EQ(p1.scale, p0.scale) << simd::tier_name(tier) << " n=" << n;
      ASSERT_EQ(p1.zero_point, p0.zero_point)
          << simd::tier_name(tier) << " n=" << n;
      const std::vector<float> f1 = fake_quantized(x, p0);
      ASSERT_EQ(std::memcmp(f0.data(), f1.data(), n * sizeof(float)), 0)
          << "fake_quantize " << simd::tier_name(tier) << " n=" << n;
    }
  }
  simd::reset_tier_from_env();
}

TEST(Quantization, RoundTripWithinHalfStep) {
  util::Rng rng(0x0AF);
  const std::vector<float> x = random_values(257, rng);
  const QuantParams p = compute_quant_params(x);
  const std::vector<float> f = fake_quantized(x, p);
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_LE(std::abs(f[i] - x[i]), 0.5 * p.scale + 1e-6) << i;
  }
  // fake_quantize is exactly quantize-then-dequantize.
  const std::vector<float> d = dequantize(quantize(x, p), p);
  EXPECT_EQ(std::memcmp(f.data(), d.data(), f.size() * sizeof(float)), 0);
}

TEST(Quantization, ZeroIsExactlyRepresentable) {
  // Mixed-sign, all-positive, and all-negative inputs: zero maps to the
  // zero-point code and back to exactly 0.0f in every case.
  for (const std::vector<float> x :
       {std::vector<float>{-3.0f, 0.0f, 5.0f}, std::vector<float>{2.0f, 7.0f},
        std::vector<float>{-4.0f, -1.0f}}) {
    std::vector<float> with_zero = x;
    with_zero.push_back(0.0f);
    const QuantParams p = compute_quant_params(with_zero);
    EXPECT_EQ(fake_quantized(with_zero, p).back(), 0.0f);
    EXPECT_EQ(quantize(with_zero, p).back(), static_cast<std::int8_t>(p.zero_point));
  }
}

TEST(Quantization, DegenerateSpans) {
  // Empty span: params fall back to the identity-ish scale and nothing
  // explodes.
  const QuantParams pe = compute_quant_params(std::vector<float>{});
  EXPECT_GT(pe.scale, 0.0f);
  EXPECT_TRUE(fake_quantized({}, pe).empty());
  // Constant-zero span: scale falls back, codes are the zero point.
  const std::vector<float> zeros(5, 0.0f);
  const QuantParams pz = compute_quant_params(zeros);
  for (const std::int8_t q : quantize(zeros, pz)) {
    EXPECT_EQ(q, static_cast<std::int8_t>(pz.zero_point));
  }
  for (const float v : fake_quantized(zeros, pz)) EXPECT_EQ(v, 0.0f);
}

TEST(SimdDispatch, TierNamesAndOverride) {
  EXPECT_STREQ(simd::tier_name(simd::Tier::kScalar), "scalar");
  EXPECT_STREQ(simd::tier_name(simd::Tier::kAvx2), "avx2");
  EXPECT_STREQ(simd::tier_name(simd::Tier::kAvx512), "avx512");
  // Forcing scalar always sticks (it needs no CPU support)...
  simd::set_tier_for_testing(simd::Tier::kScalar);
  EXPECT_EQ(simd::active_tier(), simd::Tier::kScalar);
  // ...and forcing a vector tier clamps to what the host supports.
  simd::set_tier_for_testing(simd::Tier::kAvx512);
  const simd::Tier forced = simd::active_tier();
  if (simd::avx512_supported()) {
    EXPECT_EQ(forced, simd::Tier::kAvx512);
  } else if (simd::avx2_supported()) {
    EXPECT_EQ(forced, simd::Tier::kAvx2);
  } else {
    EXPECT_EQ(forced, simd::Tier::kScalar);
  }
  simd::reset_tier_from_env();
}

}  // namespace
}  // namespace fedca::tensor
