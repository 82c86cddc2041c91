// SIMD kernel tier: bit-identity of the span kernels (axpy, scale, dot,
// norms, bias_add, row_sum) and the int8 quantization kernels across the
// dispatch tiers, plus the tensor-level quantization semantics the fl
// compression layer builds on.
#include <gtest/gtest.h>

#include <cmath>
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
    const double l10 = l1_norm(x);
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
      ASSERT_EQ(l1_norm(x), l10) << "l1 " << simd::tier_name(tier) << " n=" << n;
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
    std::vector<std::int8_t> q0(n);
    quantize_int8(x, p0, q0);
    std::vector<float> d0(n);
    dequantize_int8(q0, p0, d0);
    std::vector<float> f0 = x;
    fake_quantize_int8(f0, p0);

    for (const simd::Tier tier : tiers) {
      simd::set_tier_for_testing(tier);
      const QuantParams p1 = compute_quant_params(x);
      ASSERT_EQ(p1.scale, p0.scale) << simd::tier_name(tier) << " n=" << n;
      ASSERT_EQ(p1.zero_point, p0.zero_point)
          << simd::tier_name(tier) << " n=" << n;
      std::vector<std::int8_t> q1(n);
      quantize_int8(x, p0, q1);
      ASSERT_EQ(std::memcmp(q0.data(), q1.data(), n), 0)
          << "quantize " << simd::tier_name(tier) << " n=" << n;
      std::vector<float> d1(n);
      dequantize_int8(q0, p0, d1);
      ASSERT_EQ(std::memcmp(d0.data(), d1.data(), n * sizeof(float)), 0)
          << "dequantize " << simd::tier_name(tier) << " n=" << n;
      std::vector<float> f1 = x;
      fake_quantize_int8(f1, p0);
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
  std::vector<std::int8_t> q(x.size());
  quantize_int8(x, p, q);
  std::vector<float> d(x.size());
  dequantize_int8(q, p, d);
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_LE(std::abs(d[i] - x[i]), 0.5 * p.scale + 1e-6) << i;
  }
  // fake_quantize is exactly quantize-then-dequantize.
  std::vector<float> f = x;
  fake_quantize_int8(f, p);
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
    std::vector<std::int8_t> q(with_zero.size());
    quantize_int8(with_zero, p, q);
    std::vector<float> d(with_zero.size());
    dequantize_int8(q, p, d);
    EXPECT_EQ(d.back(), 0.0f);
    EXPECT_EQ(q.back(), static_cast<std::int8_t>(p.zero_point));
  }
}

TEST(Quantization, DegenerateSpans) {
  // Empty span: params fall back to the identity-ish scale and nothing
  // explodes.
  const QuantParams pe = compute_quant_params(std::vector<float>{});
  EXPECT_GT(pe.scale, 0.0f);
  // Constant-zero span: scale falls back, codes are the zero point.
  const std::vector<float> zeros(5, 0.0f);
  const QuantParams pz = compute_quant_params(zeros);
  std::vector<std::int8_t> q(zeros.size());
  quantize_int8(zeros, pz, q);
  std::vector<float> d(zeros.size());
  dequantize_int8(q, pz, d);
  for (const float v : d) EXPECT_EQ(v, 0.0f);
}

TEST(Quantization, SizeMismatchThrows) {
  const std::vector<float> x(8, 1.0f);
  const QuantParams p = compute_quant_params(x);
  std::vector<std::int8_t> q(4);
  EXPECT_THROW(quantize_int8(x, p, q), std::invalid_argument);
  std::vector<float> d(4);
  const std::vector<std::int8_t> q8(8, 0);
  EXPECT_THROW(dequantize_int8(q8, p, d), std::invalid_argument);
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
