// tensor::tanh: the in-tree replica of glibc 2.36's fdlibm tanhf
// (tensor/simd/tanh.hpp) and its AVX2 kernel.
//   * The scalar tier equals std::tanh on all 2^32 bit patterns (when the
//     host libm is the tanhf the replica copies; see the grid pin).
//   * The AVX2 and AVX-512 kernels equal the scalar tier on all 2^32 bit
//     patterns, and every tier agrees on short spans, where the kernels'
//     scalar tails do the work.
//   * An FNV-1a digest of the replica over a fixed grid, recorded from
//     glibc 2.36's libm, keeps the replica pinned on hosts whose libm
//     differs.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <vector>

#include "tensor/ops.hpp"
#include "tensor/simd/dispatch.hpp"
#include "tensor/simd/kernels.hpp"
#include "tests/tensor/bit_patterns.hpp"

namespace fedca::tensor {
namespace {

using bit_patterns::fnv1a;
using bit_patterns::from_bits;
using bit_patterns::grid_inputs;
using bit_patterns::host_tiers;
using bit_patterns::same_bits;
using bit_patterns::sweep_all_patterns;

// tanhf over bit_patterns::grid_inputs(), recorded from glibc 2.36.
constexpr std::uint64_t kGridDigest = 0x3f61e43e576bd82full;

TEST(Tanh, ReplicaMatchesPinnedGridDigest) {
  const std::vector<float> x = grid_inputs();
  for (const simd::Tier tier : host_tiers()) {
    simd::set_tier_for_testing(tier);
    std::vector<float> y(x.size());
    tanh(x, y);
    EXPECT_EQ(fnv1a(y), kGridDigest)
        << "tier " << simd::tier_name(tier) << " got 0x" << std::hex << fnv1a(y);
  }
  simd::reset_tier_from_env();
}

TEST(Tanh, ScalarTierEqualsLibmOnAllInputs) {
  const std::vector<float> grid = grid_inputs();
  std::vector<float> libm(grid.size());
  for (std::size_t i = 0; i < grid.size(); ++i) libm[i] = std::tanh(grid[i]);
  if (fnv1a(libm) != kGridDigest) {
    GTEST_SKIP() << "host libm tanhf is not the glibc 2.36 fdlibm code the replica copies";
  }
  simd::set_tier_for_testing(simd::Tier::kScalar);
  const std::uint64_t bad = sweep_all_patterns([](const float* x, std::size_t n) {
    std::vector<float> y(n);
    tanh(std::span<const float>(x, n), y);
    std::uint64_t mismatches = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const float want = std::tanh(x[i]);
      mismatches += std::memcmp(&want, &y[i], sizeof want) != 0;
    }
    return mismatches;
  });
  EXPECT_EQ(bad, 0u);
  simd::reset_tier_from_env();
}

TEST(Tanh, VectorKernelEqualsScalarTierOnAllInputs) {
#if defined(__x86_64__) || defined(_M_X64)
  if (!simd::avx2_supported()) GTEST_SKIP() << "host has no AVX2";
  const bool avx512 = simd::avx512_supported();
  simd::set_tier_for_testing(simd::Tier::kScalar);
  const std::uint64_t bad = sweep_all_patterns([avx512](const float* x, std::size_t n) {
    std::vector<float> scalar(n), vec(n), wide(n);
    tanh(std::span<const float>(x, n), scalar);
    simd::tanh_avx2(x, vec.data(), n);
    if (avx512) simd::tanh_avx512(x, wide.data(), n);
    std::uint64_t mismatches = 0;
    for (std::size_t i = 0; i < n; ++i) {
      mismatches += std::memcmp(&scalar[i], &vec[i], sizeof(float)) != 0;
      mismatches += avx512 && std::memcmp(&scalar[i], &wide[i], sizeof(float)) != 0;
    }
    return mismatches;
  });
  EXPECT_EQ(bad, 0u);
  simd::reset_tier_from_env();
#else
  GTEST_SKIP() << "no vector tanh kernel on this architecture";
#endif
}

TEST(Tanh, ShortSpansAndInPlaceAgreeAcrossTiers) {
  // Lengths 0-17 cover the empty span, pure tails, one vector block plus
  // a tail and two blocks; the specials put a non-finite lane inside a
  // vector block.
  const float specials[] = {0.0f,
                            -0.0f,
                            std::numeric_limits<float>::infinity(),
                            -std::numeric_limits<float>::infinity(),
                            std::numeric_limits<float>::quiet_NaN(),
                            std::numeric_limits<float>::denorm_min(),
                            1.0f,
                            -22.0f,
                            0.5f * 0.6931472f};
  for (std::size_t n = 0; n <= 17; ++n) {
    std::vector<float> x(n);
    for (std::size_t i = 0; i < n; ++i) {
      x[i] = (i % 3 == 2) ? specials[(i + n) % std::size(specials)]
                          : from_bits(static_cast<std::uint32_t>(0x9E3779B9u * (i + 7 * n)));
    }
    simd::set_tier_for_testing(simd::Tier::kScalar);
    std::vector<float> want(n);
    tanh(x, want);
    for (const simd::Tier tier : host_tiers()) {
      simd::set_tier_for_testing(tier);
      std::vector<float> got(n);
      tanh(x, got);
      std::vector<float> in_place = x;
      tanh(in_place, in_place);
      EXPECT_TRUE(same_bits(want, got)) << "tier " << simd::tier_name(tier) << " n=" << n;
      EXPECT_TRUE(same_bits(want, in_place))
          << "in place, tier " << simd::tier_name(tier) << " n=" << n;
    }
  }
  simd::reset_tier_from_env();
}

TEST(Tanh, SizeMismatchThrows) {
  std::vector<float> x(3), y(4);
  EXPECT_THROW(tanh(x, y), std::invalid_argument);
}

}  // namespace
}  // namespace fedca::tensor
