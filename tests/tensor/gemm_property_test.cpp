// Property tests for the blocked GEMM kernels against the retained naive
// references (tensor::ref), plus the fused dense-layer helpers and the
// opt-in pool-parallel GEMM path.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "tensor/ops.hpp"
#include "tensor/simd/dispatch.hpp"
#include "util/rng.hpp"

namespace fedca::tensor {
namespace {

Tensor random_tensor(Shape shape, util::Rng& rng) {
  Tensor t(std::move(shape));
  for (std::size_t i = 0; i < t.numel(); ++i) {
    t[i] = static_cast<float>(rng.normal(0.0, 1.0));
  }
  return t;
}

// Mixed-accumulator comparison: the optimized kernels accumulate in float
// (fixed order), the references partly in double, so results agree to
// float rounding scaled by the reduction length.
void expect_close(const Tensor& got, const Tensor& want, std::size_t k) {
  ASSERT_EQ(got.numel(), want.numel());
  const double tol = 1e-5 * std::sqrt(static_cast<double>(k) + 1.0);
  for (std::size_t i = 0; i < got.numel(); ++i) {
    const double scale = std::max(1.0, std::abs(static_cast<double>(want[i])));
    ASSERT_NEAR(got[i], want[i], tol * scale) << "element " << i;
  }
}

// Shape grid: every combination of tiny edge sizes and sizes straddling the
// microkernel's register tile (simd::kMr = 6 rows by simd::kNr = 16
// columns).
const std::size_t kSizes[] = {1, 2, 3, 5, 8, 17, 33, 64};

TEST(GemmProperty, MatchesNaiveReference) {
  util::Rng rng(0xC0FFEE);
  for (const std::size_t m : kSizes) {
    for (const std::size_t k : kSizes) {
      for (const std::size_t n : kSizes) {
        Tensor a = random_tensor({m, k}, rng);
        Tensor b = random_tensor({k, n}, rng);
        Tensor c({m, n});
        Tensor expect({m, n});
        gemm(a, b, c);
        ref::gemm(a, b, expect);
        expect_close(c, expect, k);
      }
    }
  }
}

TEST(GemmProperty, GemmNtMatchesNaiveReference) {
  util::Rng rng(0xBEEF);
  for (const std::size_t m : kSizes) {
    for (const std::size_t k : kSizes) {
      for (const std::size_t n : kSizes) {
        Tensor a = random_tensor({m, k}, rng);
        Tensor b = random_tensor({n, k}, rng);
        Tensor c({m, n});
        Tensor expect({m, n});
        gemm_nt(a, b, c);
        ref::gemm_nt(a, b, expect);
        expect_close(c, expect, k);
      }
    }
  }
}

TEST(GemmProperty, GemmTnMatchesNaiveReference) {
  util::Rng rng(0xD00D);
  for (const std::size_t m : kSizes) {
    for (const std::size_t k : kSizes) {
      for (const std::size_t n : kSizes) {
        Tensor a = random_tensor({m, k}, rng);
        Tensor b = random_tensor({m, n}, rng);
        Tensor c({k, n});
        Tensor expect({k, n});
        gemm_tn(a, b, c);
        ref::gemm_tn(a, b, expect);
        expect_close(c, expect, m);
      }
    }
  }
}

TEST(GemmProperty, RandomizedNonSquareShapes) {
  util::Rng rng(0x5EED);
  for (int trial = 0; trial < 40; ++trial) {
    const std::size_t m = 1 + static_cast<std::size_t>(rng.uniform_index(90));
    const std::size_t k = 1 + static_cast<std::size_t>(rng.uniform_index(90));
    const std::size_t n = 1 + static_cast<std::size_t>(rng.uniform_index(90));
    Tensor a = random_tensor({m, k}, rng);
    Tensor b = random_tensor({k, n}, rng);
    Tensor c({m, n});
    Tensor expect({m, n});
    gemm(a, b, c);
    ref::gemm(a, b, expect);
    expect_close(c, expect, k);
  }
}

TEST(GemmProperty, DeterministicAcrossCalls) {
  util::Rng rng(0xABCD);
  Tensor a = random_tensor({37, 53}, rng);
  Tensor b = random_tensor({53, 29}, rng);
  Tensor c1({37, 29});
  Tensor c2({37, 29});
  gemm(a, b, c1);
  gemm(a, b, c2);
  for (std::size_t i = 0; i < c1.numel(); ++i) {
    ASSERT_EQ(c1[i], c2[i]);  // bit-identical, not just close
  }
}

TEST(GemmProperty, PackedShapeMismatchThrows) {
  PackedB packed;
  const std::vector<float> b(8 * 4, 1.0f);
  packed.pack(8, 4, b.data(), /*b_trans=*/false);
  Tensor a({3, 8}), c({3, 4}), bad_a({3, 7}), bad_c({3, 5});
  EXPECT_NO_THROW(gemm_packed(a, packed, c));
  EXPECT_THROW(gemm_packed(bad_a, packed, c), std::invalid_argument);
  EXPECT_THROW(gemm_packed(a, packed, bad_c), std::invalid_argument);
}

// Dispatch-tier identity: the scalar kernels and every vector tier this
// host supports must produce the SAME BYTES for all three GEMM variants
// across the full edge-size grid — the association-order contract that
// makes FEDCA_SIMD a pure performance knob.
TEST(GemmProperty, TiersAreBitIdentical) {
  std::vector<simd::Tier> tiers;
  if (simd::avx2_supported()) tiers.push_back(simd::Tier::kAvx2);
  if (simd::avx512_supported()) tiers.push_back(simd::Tier::kAvx512);
  if (tiers.empty()) GTEST_SKIP() << "host has no vector tier";
  util::Rng rng(0x71E5);
  for (const std::size_t m : kSizes) {
    for (const std::size_t k : kSizes) {
      for (const std::size_t n : kSizes) {
        const Tensor a = random_tensor({m, k}, rng);
        const Tensor b = random_tensor({k, n}, rng);
        const Tensor bt = random_tensor({n, k}, rng);
        const Tensor at = random_tensor({k, m}, rng);
        simd::set_tier_for_testing(simd::Tier::kScalar);
        Tensor c0({m, n}), c0_nt({m, n}), c0_tn({m, n});
        gemm(a, b, c0);
        gemm_nt(a, bt, c0_nt);
        gemm_tn(at, b, c0_tn);
        for (const simd::Tier tier : tiers) {
          simd::set_tier_for_testing(tier);
          Tensor c1({m, n}), c1_nt({m, n}), c1_tn({m, n});
          gemm(a, b, c1);
          gemm_nt(a, bt, c1_nt);
          gemm_tn(at, b, c1_tn);
          const std::size_t bytes = m * n * sizeof(float);
          ASSERT_EQ(std::memcmp(c0.raw(), c1.raw(), bytes), 0)
              << "gemm " << simd::tier_name(tier) << " " << m << "x" << k
              << "x" << n;
          ASSERT_EQ(std::memcmp(c0_nt.raw(), c1_nt.raw(), bytes), 0)
              << "gemm_nt " << simd::tier_name(tier) << " " << m << "x" << k
              << "x" << n;
          ASSERT_EQ(std::memcmp(c0_tn.raw(), c1_tn.raw(), bytes), 0)
              << "gemm_tn " << simd::tier_name(tier) << " " << m << "x" << k
              << "x" << n;
        }
      }
    }
  }
  simd::reset_tier_from_env();
}

// ---- One-path bit pin ---------------------------------------------------
//
// Every GEMM, whatever its size, must produce exactly the bytes of one
// scalar fma chain per C element: acc = 0; for k ascending,
// acc = fma(op(A)[i][k], op(B)[k][j], acc). The oracle below is that chain
// written out directly, so any size-dependent path that reassociates (or
// skips fma) fails with a memcmp mismatch, not a tolerance drift.

enum class Variant { kNN, kNT, kTN };

// One call in the raw-pointer API: gemm / gemm_nt / gemm_tn(m, k, n, ...).
struct GemmCall {
  const char* name;
  Variant variant;
  std::size_t m, k, n;

  // gemm_tn writes a k x n result reduced over m; the others m x n over k.
  std::size_t rows() const { return variant == Variant::kTN ? k : m; }
  std::size_t depth() const { return variant == Variant::kTN ? m : k; }
  std::size_t b_size() const { return (variant == Variant::kTN ? m : k) * n; }
};

std::vector<float> random_floats(std::size_t count, util::Rng& rng) {
  std::vector<float> v(count);
  for (float& x : v) x = static_cast<float>(rng.normal(0.0, 1.0));
  return v;
}

std::vector<float> chain_oracle(const GemmCall& g, const float* a, const float* b) {
  std::vector<float> c(g.rows() * g.n);
  for (std::size_t i = 0; i < g.rows(); ++i) {
    for (std::size_t j = 0; j < g.n; ++j) {
      float acc = 0.0f;
      for (std::size_t kk = 0; kk < g.depth(); ++kk) {
        float av = 0.0f, bv = 0.0f;
        switch (g.variant) {
          case Variant::kNN: av = a[i * g.k + kk]; bv = b[kk * g.n + j]; break;
          case Variant::kNT: av = a[i * g.k + kk]; bv = b[j * g.k + kk]; break;
          case Variant::kTN: av = a[kk * g.k + i]; bv = b[kk * g.n + j]; break;
        }
        acc = std::fma(av, bv, acc);
      }
      c[i * g.n + j] = acc;
    }
  }
  return c;
}

void run_gemm(const GemmCall& g, const float* a, const float* b, float* c) {
  switch (g.variant) {
    case Variant::kNN: gemm(g.m, g.k, g.n, a, b, c); break;
    case Variant::kNT: gemm_nt(g.m, g.k, g.n, a, b, c); break;
    case Variant::kTN: gemm_tn(g.m, g.k, g.n, a, b, c); break;
  }
}

// The scalar tier plus every vector tier this host supports.
std::vector<simd::Tier> host_tiers() {
  std::vector<simd::Tier> tiers{simd::Tier::kScalar};
  if (simd::avx2_supported()) tiers.push_back(simd::Tier::kAvx2);
  if (simd::avx512_supported()) tiers.push_back(simd::Tier::kAvx512);
  return tiers;
}

void expect_pinned_to_chain(const GemmCall& g, util::Rng& rng) {
  const std::vector<float> a = random_floats(g.m * g.k, rng);
  const std::vector<float> b = random_floats(g.b_size(), rng);
  const std::vector<float> want = chain_oracle(g, a.data(), b.data());
  for (const simd::Tier tier : host_tiers()) {
    simd::set_tier_for_testing(tier);
    // Poisoned output: every element must be written, none accumulated.
    std::vector<float> got(want.size(), std::nanf(""));
    run_gemm(g, a.data(), b.data(), got.data());
    ASSERT_EQ(std::memcmp(got.data(), want.data(), want.size() * sizeof(float)), 0)
        << g.name << " " << simd::tier_name(tier) << " m=" << g.m << " k=" << g.k
        << " n=" << g.n;
    // gemm and gemm_nt through a once-packed op(B): the same bytes.
    if (g.variant != Variant::kTN) {
      PackedB packed;
      packed.pack(g.k, g.n, b.data(), /*b_trans=*/g.variant == Variant::kNT);
      std::vector<float> got_packed(want.size(), std::nanf(""));
      gemm_packed(g.m, a.data(), packed, got_packed.data());
      ASSERT_EQ(std::memcmp(got_packed.data(), want.data(), want.size() * sizeof(float)), 0)
          << g.name << " packed " << simd::tier_name(tier) << " m=" << g.m
          << " k=" << g.k << " n=" << g.n;
    }
  }
  simd::reset_tier_from_env();
}

// A grid straddling the register tile (kMr = 6, kNr = 16) and the packed
// blocks (kKc = 256 along k, kNc = 512 along n), in all three variants.
TEST(GemmOnePath, GridMatchesScalarChainBitForBit) {
  const std::size_t rows[] = {1, 5, 6, 7, 13};
  const std::size_t depths[] = {1, 5, 255, 256, 257};
  const std::size_t cols[] = {1, 15, 16, 17, 511, 512, 513};
  util::Rng rng(0xB17);
  for (const std::size_t m : rows) {
    for (const std::size_t k : depths) {
      for (const std::size_t n : cols) {
        expect_pinned_to_chain({"gemm", Variant::kNN, m, k, n}, rng);
        expect_pinned_to_chain({"gemm_nt", Variant::kNT, m, k, n}, rng);
        // gemm_tn(m, k, n) has k output rows and reduces over m.
        expect_pinned_to_chain({"gemm_tn", Variant::kTN, k, m, n}, rng);
      }
    }
  }
}

// The exact calls the nn layers issue on the benchmark models: LeNet-5 on
// 3x16x16 inputs (conv per sample, fc at batch 10 and 1) and the LSTM
// classifier (8 features, hidden 96, batch 10).
TEST(GemmOnePath, LayerShapesMatchScalarChainBitForBit) {
  const GemmCall calls[] = {
      {"conv1.fwd", Variant::kNN, 6, 75, 256},
      {"conv1.dW", Variant::kNT, 6, 256, 75},
      {"conv1.dcols", Variant::kTN, 6, 75, 256},
      {"conv2.fwd", Variant::kNN, 16, 150, 64},
      {"conv2.dW", Variant::kNT, 16, 64, 150},
      {"conv2.dcols", Variant::kTN, 16, 150, 64},
      {"fc1.fwd/b10", Variant::kNT, 10, 256, 120},
      {"fc1.dW/b10", Variant::kTN, 10, 120, 256},
      {"fc1.dx/b10", Variant::kNN, 10, 120, 256},
      {"fc2.fwd/b10", Variant::kNT, 10, 120, 84},
      {"fc2.dW/b10", Variant::kTN, 10, 84, 120},
      {"fc2.dx/b10", Variant::kNN, 10, 84, 120},
      {"fc3.fwd/b10", Variant::kNT, 10, 84, 10},
      {"fc3.dW/b10", Variant::kTN, 10, 10, 84},
      {"fc3.dx/b10", Variant::kNN, 10, 10, 84},
      {"fc1.fwd/b1", Variant::kNT, 1, 256, 120},
      {"fc1.dW/b1", Variant::kTN, 1, 120, 256},
      {"fc1.dx/b1", Variant::kNN, 1, 120, 256},
      {"fc2.fwd/b1", Variant::kNT, 1, 120, 84},
      {"fc2.dW/b1", Variant::kTN, 1, 84, 120},
      {"fc2.dx/b1", Variant::kNN, 1, 84, 120},
      {"fc3.fwd/b1", Variant::kNT, 1, 84, 10},
      {"fc3.dW/b1", Variant::kTN, 1, 10, 84},
      {"fc3.dx/b1", Variant::kNN, 1, 10, 84},
      {"lstm.x_Wih", Variant::kNT, 10, 8, 384},
      {"lstm.h_Whh", Variant::kNT, 10, 96, 384},
      {"lstm.dW_ih", Variant::kTN, 10, 384, 8},
      {"lstm.dW_hh", Variant::kTN, 10, 384, 96},
      {"lstm.dx", Variant::kNN, 10, 384, 8},
      {"lstm.dh", Variant::kNN, 10, 384, 96},
  };
  util::Rng rng(0x1A7E);
  for (const GemmCall& g : calls) expect_pinned_to_chain(g, rng);
}

TEST(FusedHelpers, BiasAddMatchesManualLoop) {
  util::Rng rng(0x11AA);
  const std::size_t rows = 7, cols = 13;
  Tensor out = random_tensor({rows, cols}, rng);
  Tensor bias = random_tensor({cols}, rng);
  Tensor expect = out;
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t j = 0; j < cols; ++j) expect[r * cols + j] += bias[j];
  }
  bias_add(out.data(), rows, bias.data());
  for (std::size_t i = 0; i < out.numel(); ++i) ASSERT_EQ(out[i], expect[i]);
}

TEST(FusedHelpers, RowSumAccumulatesColumnSums) {
  util::Rng rng(0x22BB);
  const std::size_t rows = 9, cols = 6;
  Tensor in = random_tensor({rows, cols}, rng);
  Tensor out = random_tensor({cols}, rng);  // pre-existing accumulation
  Tensor expect = out;
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t j = 0; j < cols; ++j) expect[j] += in[r * cols + j];
  }
  row_sum(in.data(), rows, out.data());
  for (std::size_t j = 0; j < cols; ++j) {
    ASSERT_NEAR(out[j], expect[j], 1e-5 * std::max(1.0f, std::abs(expect[j])));
  }
}

TEST(FusedHelpers, RowSumZeroRowsIsNoOp) {
  Tensor out({4});
  out[0] = 1.0f; out[1] = 2.0f; out[2] = 3.0f; out[3] = 4.0f;
  row_sum(std::span<const float>(), 0, out.data());
  EXPECT_EQ(out[0], 1.0f);
  EXPECT_EQ(out[3], 4.0f);
}

}  // namespace
}  // namespace fedca::tensor
