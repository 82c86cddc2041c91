// SIMD kernel tier: bit-identity of the span kernels (axpy, scale, dot,
// l2_norm, sgd_update, bias_add, row_sum) and the int8 quantization
// kernels across the dispatch tiers, NaN, +-inf, -0, denormals and
// +-FLT_MAX included, plus the tensor-level quantization semantics the fl
// compression layer builds on.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "tensor/ops.hpp"
#include "tensor/simd/dispatch.hpp"
#include "tests/tensor/bit_patterns.hpp"
#include "util/rng.hpp"

namespace fedca::tensor {
namespace {

using bit_patterns::same_bits;

std::vector<float> random_values(std::size_t n, util::Rng& rng) {
  std::vector<float> v(n);
  for (float& x : v) x = static_cast<float>(rng.normal(0.0, 1.0));
  return v;
}

// Exercise vector bodies, tails, and the empty span.
const std::size_t kLens[] = {0, 1, 7, 8, 9, 31, 32, 33, 100, 1000};

constexpr float kNaN = std::numeric_limits<float>::quiet_NaN();
constexpr float kInf = std::numeric_limits<float>::infinity();

// The values the cross-tier checks plant at lane edges. The first, +0,
// stands for none: with_special leaves the span as drawn.
constexpr float kSpecials[] = {0.0f, kNaN, kInf, -kInf, -0.0f,
                               std::numeric_limits<float>::denorm_min(),
                               -std::numeric_limits<float>::min() / 2.0f,
                               std::numeric_limits<float>::max(),
                               -std::numeric_limits<float>::max()};

// `clean` with `special` at the lane edges of the first two 8-wide blocks
// (0, 7, 8, 15) and at the last element, when they exist.
std::vector<float> with_special(std::vector<float> clean, float special) {
  if (special == 0.0f && !std::signbit(special)) return clean;
  const std::size_t n = clean.size();
  for (const std::size_t lane : {0u, 7u, 8u, 15u}) {
    if (lane < n) clean[lane] = special;
  }
  if (n > 0) clean[n - 1] = special;
  return clean;
}

std::string special_name(float special) {
  char buf[48];
  std::uint32_t bits;
  std::memcpy(&bits, &special, sizeof bits);
  std::snprintf(buf, sizeof buf, "%g (0x%08x)", static_cast<double>(special), bits);
  return buf;
}

bool same_double(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

// Test-local oracles of the int8 wire: the codes a sender would transmit,
// q = clamp(round_nearest_even(x / scale) + zero_point, -128, 127) with a
// NaN quotient taking code zero_point, and what the receiver rebuilds from
// them. fake_quantize_int8 must equal dequantize(quantize(x)) bit for bit.
std::vector<std::int8_t> quantize(const std::vector<float>& x, const QuantParams& p) {
  const float inv_scale = 1.0f / p.scale;
  std::vector<std::int8_t> q(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double s = x[i] * inv_scale;
    const double r = std::isnan(s) ? p.zero_point : std::nearbyint(s) + p.zero_point;
    q[i] = static_cast<std::int8_t>(std::clamp(r, -128.0, 127.0));
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

    for (const simd::Tier tier : tiers) {
      simd::set_tier_for_testing(tier);
      std::vector<float> axpy1 = y;
      axpy(0.37f, x, axpy1);
      std::vector<float> scale1 = y;
      scale(-1.25f, scale1);
      ASSERT_TRUE(same_bits(axpy0, axpy1)) << "axpy " << simd::tier_name(tier) << " n=" << n;
      ASSERT_TRUE(same_bits(scale0, scale1)) << "scale " << simd::tier_name(tier) << " n=" << n;
    }

    // The reductions, on clean input and with each special value at the
    // lane edges and in the tail of x alone and of both operands.
    for (const float special : kSpecials) {
      const std::vector<float> xs = with_special(x, special);
      const std::vector<float> ys = with_special(y, special);
      simd::set_tier_for_testing(simd::Tier::kScalar);
      const double dot_x0 = dot(xs, y);
      const double dot_xy0 = dot(xs, ys);
      const double l20 = l2_norm(xs);
      for (const simd::Tier tier : tiers) {
        simd::set_tier_for_testing(tier);
        const std::string where =
            std::string(simd::tier_name(tier)) + " n=" + std::to_string(n) +
            " special=" + special_name(special);
        ASSERT_TRUE(same_double(dot(xs, y), dot_x0)) << "dot " << where;
        ASSERT_TRUE(same_double(dot(xs, ys), dot_xy0)) << "dot, both operands, " << where;
        ASSERT_TRUE(same_double(l2_norm(xs), l20)) << "l2 " << where;
      }
    }
  }
  simd::reset_tier_from_env();
}

// The loop SgdOptimizer::step ran per parameter before tensor::sgd_update,
// kept verbatim as the kernel's oracle (built with the default flags, as
// sgd.cpp was). A null anchor means no proximal term.
void sgd_oracle(std::vector<float>& value, const std::vector<float>& grad,
                const float* anchor, float lr, float wd, float mu) {
  for (std::size_t i = 0; i < value.size(); ++i) {
    float g = grad[i];
    if (wd != 0.0f) g += wd * value[i];
    if (anchor != nullptr) g += mu * (value[i] - anchor[i]);
    value[i] -= lr * g;
  }
}

// sgd_update against the oracle, memcmp, on every tier: with and without
// weight decay and an anchor, clean and with each special value at the
// lane edges of w, of grad, of the anchor, and of all three.
TEST(SgdUpdate, MatchesTheOptimizerLoopOnEveryTier) {
  std::vector<simd::Tier> tiers = vector_tiers();
  tiers.push_back(simd::Tier::kScalar);
  util::Rng rng(0x5CD);
  const float lr = 0.05f, mu = 0.1f;
  for (const std::size_t n : kLens) {
    const std::vector<float> w = random_values(n, rng);
    const std::vector<float> grad = random_values(n, rng);
    const std::vector<float> anchor = random_values(n, rng);
    for (const float special : kSpecials) {
      for (const int where : {0, 1, 2, 3}) {  // w, grad, anchor, all three
        const std::vector<float> ws = where == 0 || where == 3 ? with_special(w, special) : w;
        const std::vector<float> gs =
            where == 1 || where == 3 ? with_special(grad, special) : grad;
        const std::vector<float> as =
            where == 2 || where == 3 ? with_special(anchor, special) : anchor;
        for (const float wd : {0.0f, 0.01f}) {
          for (const bool prox : {false, true}) {
            std::vector<float> want = ws;
            sgd_oracle(want, gs, prox ? as.data() : nullptr, lr, wd, mu);
            for (const simd::Tier tier : tiers) {
              simd::set_tier_for_testing(tier);
              std::vector<float> got = ws;
              sgd_update(got, gs, prox ? std::span<const float>(as) : std::span<const float>(),
                         lr, wd, mu);
              ASSERT_TRUE(same_bits(got, want))
                  << simd::tier_name(tier) << " n=" << n << " special="
                  << special_name(special) << " in " << where << " wd=" << wd
                  << " prox=" << prox;
            }
          }
        }
      }
    }
  }
  simd::reset_tier_from_env();
}

TEST(SgdUpdate, RejectsMismatchedSizes) {
  std::vector<float> w(4), grad(3), anchor(5);
  EXPECT_THROW(sgd_update(w, grad, {}, 0.1f, 0.0f, 0.0f), std::invalid_argument);
  grad.resize(4);
  EXPECT_THROW(sgd_update(w, grad, anchor, 0.1f, 0.0f, 0.1f), std::invalid_argument);
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
    const std::vector<float> clean = random_values(n, rng);
    // Special values at the lane edges of a vector block and in the tail:
    // NaN takes the zero-point code, +-inf saturate, and -0, denormals and
    // +-FLT_MAX take part in the range like any finite value.
    for (const float special : kSpecials) {
      const std::vector<float> x = with_special(clean, special);
      const std::string where = "n=" + std::to_string(n) + " special=" + special_name(special);

      simd::set_tier_for_testing(simd::Tier::kScalar);
      const QuantParams p0 = compute_quant_params(x);
      // Quantize with the clean span's range too, so +-inf saturate
      // instead of making the scale infinite.
      const QuantParams pc = compute_quant_params(clean);
      const std::vector<float> f0 = fake_quantized(x, p0);
      const std::vector<float> fc = fake_quantized(x, pc);
      ASSERT_TRUE(same_bits(f0, dequantize(quantize(x, p0), p0)))
          << "fake_quantize scalar vs oracle " << where;
      ASSERT_TRUE(same_bits(fc, dequantize(quantize(x, pc), pc)))
          << "fake_quantize scalar vs oracle, clean range, " << where;

      for (const simd::Tier tier : tiers) {
        simd::set_tier_for_testing(tier);
        const QuantParams p1 = compute_quant_params(x);
        ASSERT_EQ(p1.scale, p0.scale) << simd::tier_name(tier) << " " << where;
        ASSERT_EQ(p1.zero_point, p0.zero_point) << simd::tier_name(tier) << " " << where;
        const std::vector<float> f1 = fake_quantized(x, p0);
        ASSERT_TRUE(same_bits(f0, f1)) << "fake_quantize " << simd::tier_name(tier) << " " << where;
        const std::vector<float> f1c = fake_quantized(x, pc);
        ASSERT_TRUE(same_bits(fc, f1c))
            << "fake_quantize, clean range, " << simd::tier_name(tier) << " " << where;
      }
    }
  }
  simd::reset_tier_from_env();
}

TEST(Quantization, NonFiniteCodesOnEveryTier) {
  // A NaN element arrives as +0 ("no change") and +-inf saturate to the
  // end codes, in a vector block (lanes 0-7) and in the tail alike; the
  // range ignores NaN.
  const std::vector<float> x = {kNaN, -2.0f, 2.0f, kInf, -kInf, 0.5f,
                                1.0f, -1.0f, kNaN, kInf, -kInf};
  const float plus_zero = 0.0f;
  std::vector<simd::Tier> tiers = vector_tiers();
  tiers.push_back(simd::Tier::kScalar);
  for (const simd::Tier tier : tiers) {
    simd::set_tier_for_testing(tier);
    const QuantParams p = compute_quant_params(std::vector<float>{-2.0f, 2.0f});
    const QuantParams with_nan = compute_quant_params(std::vector<float>{kNaN, -2.0f, kNaN, 2.0f});
    EXPECT_EQ(with_nan.scale, p.scale) << simd::tier_name(tier);
    EXPECT_EQ(with_nan.zero_point, p.zero_point) << simd::tier_name(tier);
    const std::vector<float> f = fake_quantized(x, p);
    for (const std::size_t i : {0u, 8u}) {
      EXPECT_EQ(std::memcmp(&f[i], &plus_zero, sizeof(float)), 0)
          << simd::tier_name(tier) << " " << i;
    }
    for (const std::size_t i : {3u, 9u}) {
      EXPECT_EQ(f[i], p.scale * static_cast<float>(127 - p.zero_point)) << simd::tier_name(tier);
    }
    for (const std::size_t i : {4u, 10u}) {
      EXPECT_EQ(f[i], p.scale * static_cast<float>(-128 - p.zero_point)) << simd::tier_name(tier);
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
  for (const std::vector<float>& x :
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
