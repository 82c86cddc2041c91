// Numerical kernels: blas-lite ops, similarity metrics, gemm variants,
// im2col/col2im round trips and their bit-pin against the per-element
// oracle loops, the conv packers against packed reference im2col panels,
// and the per-plane conv bias kernels against the loops they replaced.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <numeric>
#include <string>
#include <vector>

#include "tensor/ops.hpp"
#include "tensor/simd/dispatch.hpp"
#include "util/rng.hpp"

namespace fedca {
namespace {

using tensor::Tensor;
namespace simd = tensor::simd;

Tensor randn(tensor::Shape shape, std::uint64_t seed) {
  util::Rng rng(seed);
  Tensor t(std::move(shape));
  for (std::size_t i = 0; i < t.numel(); ++i) {
    t[i] = static_cast<float>(rng.normal(0.0, 1.0));
  }
  return t;
}

TEST(Ops, AxpyAndCopyAndScale) {
  std::vector<float> x{1, 2, 3};
  std::vector<float> y{10, 20, 30};
  tensor::axpy(2.0f, x, y);
  EXPECT_EQ(y, (std::vector<float>{12, 24, 36}));
  std::vector<float> z(3);
  tensor::copy(x, z);
  EXPECT_EQ(z, x);
  tensor::scale(0.5f, z);
  EXPECT_EQ(z, (std::vector<float>{0.5f, 1.0f, 1.5f}));
}

TEST(Ops, SizeMismatchThrows) {
  std::vector<float> a{1, 2};
  std::vector<float> b{1, 2, 3};
  EXPECT_THROW(tensor::axpy(1.0f, a, b), std::invalid_argument);
  EXPECT_THROW(tensor::dot(a, b), std::invalid_argument);
  EXPECT_THROW(tensor::copy(a, b), std::invalid_argument);
  EXPECT_THROW(tensor::cosine_similarity(a, b), std::invalid_argument);
}

TEST(Ops, DotAndNorms) {
  std::vector<float> x{3, 4};
  EXPECT_DOUBLE_EQ(tensor::dot(x, x), 25.0);
  EXPECT_DOUBLE_EQ(tensor::l2_norm(x), 5.0);
}

TEST(Ops, CosineSimilarityCases) {
  std::vector<float> x{1, 0};
  std::vector<float> y{0, 1};
  std::vector<float> nx{-1, 0};
  std::vector<float> zero{0, 0};
  EXPECT_DOUBLE_EQ(tensor::cosine_similarity(x, x), 1.0);
  EXPECT_DOUBLE_EQ(tensor::cosine_similarity(x, y), 0.0);
  EXPECT_DOUBLE_EQ(tensor::cosine_similarity(x, nx), -1.0);
  // Zero-vector convention: similarity 0 (never "converged").
  EXPECT_DOUBLE_EQ(tensor::cosine_similarity(x, zero), 0.0);
  EXPECT_DOUBLE_EQ(tensor::cosine_similarity(zero, zero), 0.0);
}

TEST(Ops, MagnitudeSimilarityCases) {
  std::vector<float> x{3, 4};        // norm 5
  std::vector<float> y{0.6f, 0.8f};  // norm 1
  std::vector<float> zero{0, 0};
  EXPECT_NEAR(tensor::magnitude_similarity(x, y), 0.2, 1e-6);
  EXPECT_NEAR(tensor::magnitude_similarity(y, x), 0.2, 1e-6);  // symmetric
  EXPECT_DOUBLE_EQ(tensor::magnitude_similarity(x, x), 1.0);
  EXPECT_DOUBLE_EQ(tensor::magnitude_similarity(zero, zero), 1.0);
  EXPECT_DOUBLE_EQ(tensor::magnitude_similarity(x, zero), 0.0);
}

TEST(Ops, AddSubAddScaled) {
  Tensor a({2}, std::vector<float>{1, 2});
  Tensor b({2}, std::vector<float>{10, 20});
  Tensor s = tensor::add(a, b);
  EXPECT_EQ(s[1], 22.0f);
  Tensor d = tensor::sub(b, a);
  EXPECT_EQ(d[0], 9.0f);
  tensor::add_scaled(a, 0.5f, b);
  EXPECT_EQ(a[1], 12.0f);
  Tensor wrong({3});
  EXPECT_THROW(tensor::add(a, wrong), std::invalid_argument);
  EXPECT_THROW(tensor::sub(a, wrong), std::invalid_argument);
  EXPECT_THROW(tensor::add_scaled(a, 1.0f, wrong), std::invalid_argument);
}

// Reference O(n^3) gemm for cross-checking all variants.
Tensor ref_gemm(const Tensor& a, bool ta, const Tensor& b, bool tb) {
  const std::size_t m = ta ? a.dim(1) : a.dim(0);
  const std::size_t k = ta ? a.dim(0) : a.dim(1);
  const std::size_t n = tb ? b.dim(0) : b.dim(1);
  Tensor c({m, n});
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (std::size_t kk = 0; kk < k; ++kk) {
        const float av = ta ? a.at(kk, i) : a.at(i, kk);
        const float bv = tb ? b.at(j, kk) : b.at(kk, j);
        acc += static_cast<double>(av) * bv;
      }
      c.at(i, j) = static_cast<float>(acc);
    }
  }
  return c;
}

void expect_tensors_near(const Tensor& a, const Tensor& b, float tol = 1e-4f) {
  ASSERT_TRUE(a.same_shape(b));
  for (std::size_t i = 0; i < a.numel(); ++i) {
    ASSERT_NEAR(a[i], b[i], tol) << "index " << i;
  }
}

struct GemmDims {
  std::size_t m, k, n;
};

class GemmTest : public ::testing::TestWithParam<GemmDims> {};

TEST_P(GemmTest, MatchesReference) {
  const auto [m, k, n] = GetParam();
  const Tensor a = randn({m, k}, 100 + m);
  const Tensor b = randn({k, n}, 200 + n);
  Tensor c({m, n});
  tensor::gemm(a, b, c);
  expect_tensors_near(c, ref_gemm(a, false, b, false));
}

TEST_P(GemmTest, NtMatchesReference) {
  const auto [m, k, n] = GetParam();
  const Tensor a = randn({m, k}, 300 + m);
  const Tensor b = randn({n, k}, 400 + n);
  Tensor c({m, n});
  tensor::gemm_nt(a, b, c);
  expect_tensors_near(c, ref_gemm(a, false, b, true));
}

TEST_P(GemmTest, TnMatchesReference) {
  const auto [m, k, n] = GetParam();
  const Tensor a = randn({m, k}, 500 + m);
  const Tensor b = randn({m, n}, 600 + n);
  Tensor c({k, n});
  tensor::gemm_tn(a, b, c);
  expect_tensors_near(c, ref_gemm(a, true, b, false));
}

INSTANTIATE_TEST_SUITE_P(Sizes, GemmTest,
                         ::testing::Values(GemmDims{1, 1, 1}, GemmDims{2, 3, 4},
                                           GemmDims{5, 5, 5}, GemmDims{7, 2, 9},
                                           GemmDims{16, 8, 3}));

TEST(Gemm, ShapeValidation) {
  Tensor a({2, 3});
  Tensor b({4, 5});
  Tensor c({2, 5});
  EXPECT_THROW(tensor::gemm(a, b, c), std::invalid_argument);
  Tensor not_matrix({2, 3, 4});
  EXPECT_THROW(tensor::gemm(not_matrix, b, c), std::invalid_argument);
}

TEST(Im2col, IdentityKernelReproducesImage) {
  // 1x1 kernel, stride 1, no pad: columns == image.
  tensor::Conv2dGeometry geo{1, 3, 3, 1, 1, 1, 0};
  std::vector<float> image{1, 2, 3, 4, 5, 6, 7, 8, 9};
  std::vector<float> cols(9);
  tensor::ref::im2col(image, geo, cols);
  EXPECT_EQ(cols, image);
}

TEST(Im2col, PaddingReadsZero) {
  tensor::Conv2dGeometry geo{1, 2, 2, 3, 3, 1, 1};
  std::vector<float> image{1, 2, 3, 4};
  std::vector<float> cols(3 * 3 * 2 * 2);
  tensor::ref::im2col(image, geo, cols);
  // First row of columns corresponds to kernel position (0,0): top-left
  // output pixel reads image[-1,-1] -> 0.
  EXPECT_EQ(cols[0], 0.0f);
  // Kernel center (kh=1, kw=1) row reproduces the image.
  const std::size_t center_row = (0 * 3 + 1) * 3 + 1;
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(cols[center_row * 4 + i], image[i]);
  }
}

TEST(Im2col, SizeValidation) {
  tensor::Conv2dGeometry geo{1, 3, 3, 2, 2, 1, 0};
  std::vector<float> image(8);  // wrong: needs 9
  std::vector<float> cols(2 * 2 * 2 * 2);
  EXPECT_THROW(tensor::ref::im2col(image, geo, cols), std::invalid_argument);
  std::vector<float> image9(9);
  std::vector<float> wrong_cols(5);
  EXPECT_THROW(tensor::ref::im2col(image9, geo, wrong_cols), std::invalid_argument);
}

// col2im(im2col(x)) multiplies each pixel by the number of windows it
// appears in; verify against a direct count.
TEST(Im2col, Col2imAccumulatesWindowCounts) {
  tensor::Conv2dGeometry geo{1, 4, 4, 3, 3, 1, 1};
  std::vector<float> image(16, 1.0f);
  const std::size_t oh = geo.out_h(), ow = geo.out_w();
  std::vector<float> cols(geo.kernel_h * geo.kernel_w * oh * ow);
  tensor::ref::im2col(image, geo, cols);
  std::vector<float> back(16, 0.0f);
  tensor::col2im(cols, geo, back);
  // Count appearances directly.
  std::vector<float> expected(16, 0.0f);
  for (std::size_t kh = 0; kh < 3; ++kh) {
    for (std::size_t kw = 0; kw < 3; ++kw) {
      for (std::size_t y = 0; y < oh; ++y) {
        for (std::size_t x = 0; x < ow; ++x) {
          const long iy = static_cast<long>(y + kh) - 1;
          const long ix = static_cast<long>(x + kw) - 1;
          if (iy >= 0 && iy < 4 && ix >= 0 && ix < 4) {
            expected[static_cast<std::size_t>(iy) * 4 + static_cast<std::size_t>(ix)] += 1.0f;
          }
        }
      }
    }
  }
  EXPECT_EQ(back, expected);
}

// ---- Lowering bit-pin ----
//
// The per-element, bounds-checked lowering loops the library used before
// it went through a padded image copy, kept verbatim as the oracle. The
// library must match them bit for bit, including col2im's accumulation
// order on top of a non-zero prior image_grad.
void oracle_im2col(const std::vector<float>& image, const tensor::Conv2dGeometry& geo,
                   std::vector<float>& columns) {
  const std::size_t oh = geo.out_h();
  const std::size_t ow = geo.out_w();
  std::size_t row = 0;
  for (std::size_t c = 0; c < geo.in_channels; ++c) {
    for (std::size_t kh = 0; kh < geo.kernel_h; ++kh) {
      for (std::size_t kw = 0; kw < geo.kernel_w; ++kw, ++row) {
        float* out_row = columns.data() + row * oh * ow;
        for (std::size_t y = 0; y < oh; ++y) {
          const long in_y = static_cast<long>(y * geo.stride + kh) - static_cast<long>(geo.pad);
          if (in_y < 0 || in_y >= static_cast<long>(geo.in_h)) {
            std::fill(out_row + y * ow, out_row + (y + 1) * ow, 0.0f);
            continue;
          }
          const float* img_row =
              image.data() + (c * geo.in_h + static_cast<std::size_t>(in_y)) * geo.in_w;
          float* dst = out_row + y * ow;
          for (std::size_t x = 0; x < ow; ++x) {
            const long in_x = static_cast<long>(x * geo.stride + kw) - static_cast<long>(geo.pad);
            float v = 0.0f;
            if (in_x >= 0 && in_x < static_cast<long>(geo.in_w)) {
              v = img_row[static_cast<std::size_t>(in_x)];
            }
            dst[x] = v;
          }
        }
      }
    }
  }
}

void oracle_col2im(const std::vector<float>& columns, const tensor::Conv2dGeometry& geo,
                   std::vector<float>& image_grad) {
  const std::size_t oh = geo.out_h();
  const std::size_t ow = geo.out_w();
  std::size_t row = 0;
  for (std::size_t c = 0; c < geo.in_channels; ++c) {
    for (std::size_t kh = 0; kh < geo.kernel_h; ++kh) {
      for (std::size_t kw = 0; kw < geo.kernel_w; ++kw, ++row) {
        const float* in_row = columns.data() + row * oh * ow;
        for (std::size_t y = 0; y < oh; ++y) {
          const long in_y = static_cast<long>(y * geo.stride + kh) - static_cast<long>(geo.pad);
          if (in_y < 0 || in_y >= static_cast<long>(geo.in_h)) continue;
          for (std::size_t x = 0; x < ow; ++x) {
            const long in_x = static_cast<long>(x * geo.stride + kw) - static_cast<long>(geo.pad);
            if (in_x < 0 || in_x >= static_cast<long>(geo.in_w)) continue;
            image_grad[(c * geo.in_h + static_cast<std::size_t>(in_y)) * geo.in_w +
                       static_cast<std::size_t>(in_x)] += in_row[y * ow + x];
          }
        }
      }
    }
  }
}

std::vector<float> random_floats(std::size_t n, util::Rng& rng) {
  std::vector<float> v(n);
  for (float& x : v) x = static_cast<float>(rng.normal(0.0, 1.0));
  return v;
}

std::string geo_name(const tensor::Conv2dGeometry& g) {
  return "C" + std::to_string(g.in_channels) + " " + std::to_string(g.in_h) + "x" +
         std::to_string(g.in_w) + " k" + std::to_string(g.kernel_h) + "x" +
         std::to_string(g.kernel_w) + " s" + std::to_string(g.stride) + " p" +
         std::to_string(g.pad);
}

// Grid: stride {1,2,3} x pad {0,1,2,4} x kernel {1,3,5} over non-square
// images (plus one rectangular kernel), then the exact LeNet and WRN-lite
// conv geometries.
std::vector<tensor::Conv2dGeometry> lowering_geometries() {
  std::vector<tensor::Conv2dGeometry> geos;
  const std::size_t images[][3] = {{1, 5, 7}, {3, 9, 6}, {2, 12, 13}, {1, 1, 4}};
  for (const auto& img : images) {
    for (std::size_t stride : {1, 2, 3}) {
      for (std::size_t pad : {0, 1, 2, 4}) {
        for (std::size_t k : {1, 3, 5}) {
          if (img[1] + 2 * pad < k || img[2] + 2 * pad < k) continue;
          geos.push_back({img[0], img[1], img[2], k, k, stride, pad});
        }
        if (img[1] + 2 * pad >= 3 && img[2] + 2 * pad >= 5) {
          geos.push_back({img[0], img[1], img[2], 3, 5, stride, pad});
        }
      }
    }
  }
  // LeNet-5 conv1 / conv2.
  geos.push_back({3, 16, 16, 5, 5, 1, 2});
  geos.push_back({6, 8, 8, 5, 5, 1, 2});
  // WRN-lite stem, block convs and 1x1 strided shortcuts.
  geos.push_back({3, 16, 16, 3, 3, 1, 1});
  geos.push_back({8, 16, 16, 3, 3, 1, 1});
  geos.push_back({8, 16, 16, 3, 3, 2, 1});
  geos.push_back({16, 8, 8, 3, 3, 1, 1});
  geos.push_back({16, 8, 8, 3, 3, 2, 1});
  geos.push_back({32, 4, 4, 3, 3, 1, 1});
  geos.push_back({8, 16, 16, 1, 1, 2, 0});
  geos.push_back({16, 8, 8, 1, 1, 2, 0});
  return geos;
}

TEST(LoweringBitPin, MatchesPerElementOracle) {
  const std::vector<tensor::Conv2dGeometry> geos = lowering_geometries();
  ASSERT_GE(geos.size(), 150u);
  std::vector<simd::Tier> tiers{simd::Tier::kScalar};
  if (simd::avx2_supported()) tiers.push_back(simd::Tier::kAvx2);
  if (simd::avx512_supported()) tiers.push_back(simd::Tier::kAvx512);
  for (const simd::Tier tier : tiers) {
    simd::set_tier_for_testing(tier);
    util::Rng rng(13);
    // Geometries run in grid order, so the per-thread padded buffer is
    // reused across shrinking and growing shapes.
    for (const tensor::Conv2dGeometry& geo : geos) {
      const std::size_t image_size = geo.in_channels * geo.in_h * geo.in_w;
      const std::size_t cols_size =
          geo.in_channels * geo.kernel_h * geo.kernel_w * geo.out_h() * geo.out_w();
      const std::vector<float> image = random_floats(image_size, rng);
      std::vector<float> want_cols(cols_size, -1.0f);
      std::vector<float> got_cols(cols_size, -2.0f);
      oracle_im2col(image, geo, want_cols);
      tensor::ref::im2col(image, geo, got_cols);
      ASSERT_EQ(std::memcmp(want_cols.data(), got_cols.data(), cols_size * sizeof(float)), 0)
          << "im2col " << geo_name(geo) << " tier " << simd::tier_name(tier);

      const std::vector<float> columns = random_floats(cols_size, rng);
      std::vector<float> want_grad = random_floats(image_size, rng);
      std::vector<float> got_grad = want_grad;
      oracle_col2im(columns, geo, want_grad);
      tensor::col2im(columns, geo, got_grad);
      ASSERT_EQ(std::memcmp(want_grad.data(), got_grad.data(), image_size * sizeof(float)), 0)
          << "col2im " << geo_name(geo) << " tier " << simd::tier_name(tier);
    }
  }
  simd::reset_tier_from_env();
}

TEST(LoweringBitPin, Col2imSizeValidation) {
  tensor::Conv2dGeometry geo{1, 3, 3, 2, 2, 1, 1};
  std::vector<float> image(8);  // wrong: needs 9
  std::vector<float> cols(2 * 2 * 4 * 4);
  EXPECT_THROW(tensor::col2im(cols, geo, image), std::invalid_argument);
  std::vector<float> image9(9);
  std::vector<float> wrong_cols(5);
  EXPECT_THROW(tensor::col2im(wrong_cols, geo, image9), std::invalid_argument);
}

// ---- Conv lowering straight into GEMM panels ----

std::vector<simd::Tier> host_tiers() {
  std::vector<simd::Tier> tiers{simd::Tier::kScalar};
  if (simd::avx2_supported()) tiers.push_back(simd::Tier::kAvx2);
  if (simd::avx512_supported()) tiers.push_back(simd::Tier::kAvx512);
  return tiers;
}

bool same_panels(std::span<const float> a, std::span<const float> b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0);
}

// The lowering grid plus the shapes the conv packers special-case: LeNet
// conv1/conv2, WRN 3x3 pad 1 at stride 1 and 2, the 1x1 stride-2
// shortcut, pad 0, K = 32*3*3 = 288 > kKc, oh*ow = 32*32 = 1024 > kNc,
// and oh*ow = 81, not a multiple of kNr.
std::vector<tensor::Conv2dGeometry> panel_geometries() {
  std::vector<tensor::Conv2dGeometry> geos = lowering_geometries();
  geos.push_back({3, 16, 16, 5, 5, 1, 2});
  geos.push_back({6, 8, 8, 5, 5, 1, 2});
  geos.push_back({8, 16, 16, 3, 3, 1, 1});
  geos.push_back({8, 16, 16, 3, 3, 2, 1});
  geos.push_back({8, 16, 16, 1, 1, 2, 0});
  geos.push_back({3, 12, 12, 5, 5, 1, 0});
  geos.push_back({32, 8, 8, 3, 3, 1, 1});
  geos.push_back({3, 32, 32, 3, 3, 1, 1});
  geos.push_back({2, 9, 9, 3, 3, 1, 1});
  geos.push_back({32, 32, 32, 3, 3, 1, 1});
  return geos;
}

// pack_conv / pack_conv_t write, byte for byte, the panels PackedB::pack
// writes from the reference column matrix, zero tails included. The
// packers under test are reused across shrinking and growing geometries
// after a NaN-filled pack, so a tail they failed to zero would show. They
// copy bits: NaN, +-inf, -0, denormals and +-FLT_MAX at columns 0, 7, 8,
// 15 and the last column of every image row (the edges of the AVX-512
// packer's masked runs) reach the panels unchanged on every tier.
TEST(ConvPanels, MatchPackedIm2col) {
  const std::vector<tensor::Conv2dGeometry> geos = panel_geometries();
  const float specials[] = {0.0f,  // none
                            std::numeric_limits<float>::quiet_NaN(),
                            std::numeric_limits<float>::infinity(),
                            -std::numeric_limits<float>::infinity(),
                            -0.0f,
                            std::numeric_limits<float>::denorm_min(),
                            -std::numeric_limits<float>::min() / 2.0f,
                            std::numeric_limits<float>::max(),
                            -std::numeric_limits<float>::max()};
  for (const simd::Tier tier : host_tiers()) {
    simd::set_tier_for_testing(tier);
    util::Rng rng(17);
    tensor::PackedB conv, conv_t;
    const std::vector<float> poison(32 * 9 * 1024, std::nanf(""));
    conv.pack(32 * 9, 1024, poison.data(), /*b_trans=*/false);
    conv_t.pack(1024, 32 * 9, poison.data(), /*b_trans=*/false);
    for (const tensor::Conv2dGeometry& geo : geos) {
      const std::size_t rows = geo.in_channels * geo.kernel_h * geo.kernel_w;
      const std::size_t positions = geo.out_h() * geo.out_w();
      const std::vector<float> clean =
          random_floats(geo.in_channels * geo.in_h * geo.in_w, rng);
      for (const float special : specials) {
        std::vector<float> image = clean;
        if (special != 0.0f || std::signbit(special)) {
          for (std::size_t row = 0; row < geo.in_channels * geo.in_h; ++row) {
            for (const std::size_t col : {std::size_t{0}, std::size_t{7}, std::size_t{8},
                                          std::size_t{15}, geo.in_w - 1}) {
              if (col < geo.in_w) image[row * geo.in_w + col] = special;
            }
          }
        }
        std::vector<float> columns(rows * positions);
        tensor::ref::im2col(image, geo, columns);
        tensor::PackedB want, want_t;
        want.pack(rows, positions, columns.data(), /*b_trans=*/false);
        want_t.pack(positions, rows, columns.data(), /*b_trans=*/true);
        conv.pack_conv(image, geo);
        conv_t.pack_conv_t(image, geo);
        const std::string where = geo_name(geo) + " special " + std::to_string(special) +
                                  " tier " + simd::tier_name(tier);
        EXPECT_EQ(conv.k(), rows) << where;
        EXPECT_EQ(conv.n(), positions) << where;
        EXPECT_EQ(conv_t.k(), positions) << where;
        EXPECT_EQ(conv_t.n(), rows) << where;
        ASSERT_TRUE(same_panels(conv.panels(), want.panels())) << "pack_conv " << where;
        ASSERT_TRUE(same_panels(conv_t.panels(), want_t.panels())) << "pack_conv_t " << where;
      }
    }
  }
  simd::reset_tier_from_env();
}

// A prepacked op(A) gives gemm's and gemm_tn's bits, with op(B) raw or
// lowered from an image, across the register tile (kMr = 6), the row
// block (kMc = 96) and the k block (kKc = 256).
TEST(ConvPanels, PackedAMatchesGemm) {
  const std::size_t rows[] = {1, 5, 6, 7, 97};
  const std::size_t depths[] = {1, 255, 256, 257};
  const std::size_t cols[] = {1, 15, 16, 17, 513};
  for (const simd::Tier tier : host_tiers()) {
    simd::set_tier_for_testing(tier);
    util::Rng rng(19);
    tensor::PackedA packed;
    for (const std::size_t m : rows) {
      for (const std::size_t k : depths) {
        for (const std::size_t n : cols) {
          const std::string where = "m=" + std::to_string(m) + " k=" + std::to_string(k) +
                                    " n=" + std::to_string(n) + " tier " +
                                    simd::tier_name(tier);
          const std::vector<float> a = random_floats(m * k, rng);
          const std::vector<float> b = random_floats(k * n, rng);
          std::vector<float> want(m * n), got(m * n, std::nanf(""));
          tensor::gemm(m, k, n, a.data(), b.data(), want.data());
          packed.pack(m, k, a.data(), /*a_trans=*/false);
          tensor::gemm_packed(packed, n, b.data(), got.data());
          ASSERT_TRUE(same_panels(got, want)) << "gemm " << where;
          tensor::PackedB packed_b;
          packed_b.pack(k, n, b.data(), /*b_trans=*/false);
          std::fill(got.begin(), got.end(), std::nanf(""));
          tensor::gemm_packed(packed, packed_b, got.data());
          ASSERT_TRUE(same_panels(got, want)) << "gemm, both packed " << where;

          // gemm_tn reads A (stored m x k) transposed: C is k x n over m.
          const std::vector<float> b_tn = random_floats(m * n, rng);
          std::vector<float> want_tn(k * n), got_tn(k * n, std::nanf(""));
          tensor::gemm_tn(m, k, n, a.data(), b_tn.data(), want_tn.data());
          packed.pack(k, m, a.data(), /*a_trans=*/true);
          tensor::gemm_packed(packed, n, b_tn.data(), got_tn.data());
          ASSERT_TRUE(same_panels(got_tn, want_tn)) << "gemm_tn " << where;
        }
      }
    }
    // The conv forward: W packed once, the image lowered into panels.
    for (const tensor::Conv2dGeometry& geo : panel_geometries()) {
      const std::size_t out_c = 7;
      const std::size_t col_rows = geo.in_channels * geo.kernel_h * geo.kernel_w;
      const std::size_t positions = geo.out_h() * geo.out_w();
      const std::vector<float> w = random_floats(out_c * col_rows, rng);
      const std::vector<float> image =
          random_floats(geo.in_channels * geo.in_h * geo.in_w, rng);
      std::vector<float> columns(col_rows * positions);
      tensor::ref::im2col(image, geo, columns);
      std::vector<float> want(out_c * positions), got(out_c * positions, std::nanf(""));
      tensor::gemm(out_c, col_rows, positions, w.data(), columns.data(), want.data());
      tensor::PackedB panels;
      panels.pack_conv(image, geo);
      packed.pack(out_c, col_rows, w.data(), /*a_trans=*/false);
      tensor::gemm_packed(packed, panels, got.data());
      ASSERT_TRUE(same_panels(got, want))
          << "conv " << geo_name(geo) << " tier " << simd::tier_name(tier);
    }
  }
  simd::reset_tier_from_env();
}

TEST(ConvPanels, SizeMismatchThrows) {
  const tensor::Conv2dGeometry geo{2, 5, 5, 3, 3, 1, 1};
  const std::vector<float> short_image(2 * 5 * 5 - 1), long_image(2 * 5 * 5 + 1);
  tensor::PackedB panels;
  EXPECT_THROW(panels.pack_conv(short_image, geo), std::invalid_argument);
  EXPECT_THROW(panels.pack_conv(long_image, geo), std::invalid_argument);
  EXPECT_THROW(panels.pack_conv_t(short_image, geo), std::invalid_argument);
  EXPECT_THROW(panels.pack_conv_t(long_image, geo), std::invalid_argument);
  // op(A) is 4 x 18, op(B) 25 x 18 (k = 25): they do not chain.
  const std::vector<float> image(2 * 5 * 5), a(4 * 18);
  panels.pack_conv_t(image, geo);
  tensor::PackedA packed;
  packed.pack(4, 18, a.data(), /*a_trans=*/false);
  std::vector<float> c(4 * 18);
  EXPECT_THROW(tensor::gemm_packed(packed, panels, c.data()), std::invalid_argument);
  panels.pack_conv(image, geo);  // 18 x 25: chains
  c.resize(4 * 25);
  EXPECT_NO_THROW(tensor::gemm_packed(packed, panels, c.data()));
}

// ---- Parameter-free layer kernels against the scalar loops they replaced ----

// Draws from a small palette of special values, so ties, all-equal,
// all-NaN and all -inf windows are common: +-0, +-inf, NaN, denormals
// and a few repeated normals; two draws in 13 are a fresh normal.
std::vector<float> special_floats(std::size_t n, util::Rng& rng) {
  const float inf = std::numeric_limits<float>::infinity();
  const float denorm = std::numeric_limits<float>::denorm_min();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float palette[] = {0.0f, -0.0f, inf, -inf, nan, denorm, -denorm, 1e-39f, 1.0f, -1.0f, 2.0f};
  constexpr std::size_t kPalette = sizeof(palette) / sizeof(palette[0]);
  std::vector<float> v(n);
  for (float& x : v) {
    const std::size_t pick = rng.uniform_index(kPalette + 2);
    x = pick < kPalette ? palette[pick] : static_cast<float>(rng.normal(0.0, 1.0));
  }
  return v;
}

bool same_bits(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0);
}

// The loops nn::ReLU ran before tensor::relu / relu_backward.
void oracle_relu(const std::vector<float>& x, std::vector<float>& y) {
  for (std::size_t i = 0; i < x.size(); ++i) y[i] = x[i] > 0.0f ? x[i] : 0.0f;
}
void oracle_relu_backward(const std::vector<float>& x, const std::vector<float>& g,
                          std::vector<float>& dx) {
  for (std::size_t i = 0; i < x.size(); ++i) dx[i] = x[i] > 0.0f ? g[i] : 0.0f;
}

// The loop nn::MaxPool2d ran before tensor::max_pool2d, with one fix: the
// index starts at the window's first element, not at flat index 0 (an
// all-NaN or all -inf window used to send its gradient to element 0).
void oracle_max_pool(const std::vector<float>& in, std::size_t planes, std::size_t h,
                     std::size_t w, std::size_t window, std::vector<float>& out,
                     std::vector<std::uint32_t>& argmax) {
  const std::size_t oh = h / window, ow = w / window;
  for (std::size_t p = 0; p < planes; ++p) {
    for (std::size_t y = 0; y < oh; ++y) {
      for (std::size_t x = 0; x < ow; ++x) {
        float best = -std::numeric_limits<float>::infinity();
        std::size_t best_idx = p * h * w + y * window * w + x * window;
        for (std::size_t dy = 0; dy < window; ++dy) {
          for (std::size_t dx = 0; dx < window; ++dx) {
            const std::size_t idx = p * h * w + (y * window + dy) * w + (x * window + dx);
            if (in[idx] > best) {
              best = in[idx];
              best_idx = idx;
            }
          }
        }
        out[(p * oh + y) * ow + x] = best;
        argmax[(p * oh + y) * ow + x] = static_cast<std::uint32_t>(best_idx);
      }
    }
  }
}

TEST(ParamFreeKernels, ReluMatchesScalarLoop) {
  util::Rng rng(41);
  for (const std::size_t n : {0u, 1u, 3u, 7u, 8u, 15u, 17u, 31u, 33u, 65u, 100u, 1001u}) {
    const std::vector<float> x = special_floats(n, rng);
    const std::vector<float> g = special_floats(n, rng);
    std::vector<float> want(n, 5.0f), got(n, 6.0f);
    oracle_relu(x, want);
    tensor::relu(x, got);
    EXPECT_TRUE(same_bits(want, got)) << "relu n=" << n;
    oracle_relu_backward(x, g, want);
    tensor::relu_backward(x, g, got);
    EXPECT_TRUE(same_bits(want, got)) << "relu_backward n=" << n;
  }
  // -0 and NaN both map to +0.
  const std::vector<float> x{-0.0f, std::numeric_limits<float>::quiet_NaN()};
  std::vector<float> y(2, 1.0f);
  tensor::relu(x, y);
  EXPECT_FALSE(std::signbit(y[0]));
  EXPECT_EQ(y[1], 0.0f);
  EXPECT_FALSE(std::signbit(y[1]));
}

TEST(ParamFreeKernels, MaxPoolMatchesScalarLoop) {
  struct Geo {
    std::size_t planes, h, w, window;
  };
  // Output rows of 1, 3, 17 and 33 windows: none a multiple of a vector width.
  const Geo geos[] = {{1, 2, 2, 2},  {3, 4, 6, 2},  {2, 6, 34, 2}, {5, 2, 66, 2},
                      {6, 16, 16, 2}, {1, 3, 3, 3},  {4, 6, 9, 3},  {2, 3, 51, 3}};
  util::Rng rng(42);
  for (const Geo& g : geos) {
    for (int rep = 0; rep < 20; ++rep) {
      const std::vector<float> in = special_floats(g.planes * g.h * g.w, rng);
      const std::size_t outs = g.planes * (g.h / g.window) * (g.w / g.window);
      std::vector<float> want(outs, 5.0f), got(outs, 6.0f), no_index(outs, 7.0f);
      std::vector<std::uint32_t> want_idx(outs, 1u), got_idx(outs, 2u);
      oracle_max_pool(in, g.planes, g.h, g.w, g.window, want, want_idx);
      tensor::max_pool2d(in, g.planes, g.h, g.w, g.window, got, got_idx.data());
      tensor::max_pool2d(in, g.planes, g.h, g.w, g.window, no_index, nullptr);
      const std::string where = std::to_string(g.planes) + "x" + std::to_string(g.h) + "x" +
                                std::to_string(g.w) + " window " + std::to_string(g.window);
      EXPECT_TRUE(same_bits(want, got)) << where;
      EXPECT_TRUE(same_bits(want, no_index)) << where;
      EXPECT_EQ(want_idx, got_idx) << where;
    }
  }
}

TEST(ParamFreeKernels, MaxPoolTiesAndEmptyWindows) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  // One 2x4 plane, two windows: {-0, +0 / +0, -0} (first of the ties
  // wins, sign included) and all NaN (-inf, index of the window's first
  // element).
  const std::vector<float> in{-0.0f, 0.0f, nan, nan, 0.0f, -0.0f, nan, nan};
  std::vector<float> out(2);
  std::vector<std::uint32_t> idx(2);
  tensor::max_pool2d(in, 1, 2, 4, 2, out, idx.data());
  EXPECT_EQ(out[0], 0.0f);
  EXPECT_TRUE(std::signbit(out[0]));
  EXPECT_EQ(idx[0], 0u);
  EXPECT_EQ(out[1], -inf);
  EXPECT_EQ(idx[1], 2u);
  // All -inf: -inf, first element.
  const std::vector<float> neg(4, -inf);
  tensor::max_pool2d(neg, 1, 2, 2, 2, std::span<float>(out.data(), 1), idx.data());
  EXPECT_EQ(out[0], -inf);
  EXPECT_EQ(idx[0], 0u);
}

TEST(ParamFreeKernels, SizeValidation) {
  std::vector<float> x(4), y(3), z(4);
  EXPECT_THROW(tensor::relu(x, y), std::invalid_argument);
  EXPECT_THROW(tensor::relu_backward(x, z, y), std::invalid_argument);
  EXPECT_THROW(tensor::relu_backward(x, y, z), std::invalid_argument);
  std::vector<float> out(1);
  EXPECT_THROW(tensor::max_pool2d(x, 1, 2, 2, 3, out, nullptr), std::invalid_argument);
  EXPECT_THROW(tensor::max_pool2d(x, 1, 2, 2, 0, out, nullptr), std::invalid_argument);
  EXPECT_THROW(tensor::max_pool2d(x, 2, 2, 2, 2, out, nullptr), std::invalid_argument);
  EXPECT_THROW(tensor::max_pool2d(x, 1, 2, 2, 2, std::span<float>(y), nullptr),
               std::invalid_argument);
}

// ---- Per-plane conv bias kernels against the Conv2d loops they replaced ----

// The loops Conv2d ran on one sample before tensor::plane_bias_add and
// tensor::plane_sum.
void oracle_plane_bias_add(std::vector<float>& out, std::size_t plane,
                           const std::vector<float>& bias) {
  for (std::size_t c = 0; c < bias.size(); ++c) {
    const float b = bias[c];
    float* dst = out.data() + c * plane;
    for (std::size_t i = 0; i < plane; ++i) dst[i] += b;
  }
}
void oracle_plane_sum(const std::vector<float>& dy, std::size_t plane,
                      std::vector<float>& grad) {
  for (std::size_t c = 0; c < grad.size(); ++c) {
    double acc = 0.0;
    for (std::size_t i = 0; i < plane; ++i) acc += dy[c * plane + i];
    grad[c] += static_cast<float>(acc);
  }
}

// Bit-equal, except that two NaNs match whatever their payloads: which
// operand's payload an add propagates is the hardware's choice, not the
// association order these kernels pin.
bool same_bits_or_nan(const std::vector<float>& a, const std::vector<float>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::isnan(a[i]) && std::isnan(b[i])) continue;
    if (std::memcmp(&a[i], &b[i], sizeof(float)) != 0) return false;
  }
  return true;
}

TEST(PlaneKernels, MatchConvLoopsBitForBit) {
  util::Rng rng(43);
  for (const std::size_t channels : {1u, 2u, 3u, 5u, 6u, 7u, 8u, 9u, 16u, 17u, 32u}) {
    for (const std::size_t plane : {1u, 4u, 7u, 16u, 64u, 256u}) {
      const std::string where = "C=" + std::to_string(channels) + " plane=" +
                                std::to_string(plane);
      // Special values, then plain normals (whose double sums are
      // where a reassociation would round differently).
      for (const bool special : {true, false}) {
        const std::vector<float> x = special ? special_floats(channels * plane, rng)
                                             : random_floats(channels * plane, rng);
        const std::vector<float> bias = special ? special_floats(channels, rng)
                                                : random_floats(channels, rng);
        std::vector<float> want = x, got = x;
        oracle_plane_bias_add(want, plane, bias);
        tensor::plane_bias_add(got, plane, bias);
        EXPECT_TRUE(same_bits_or_nan(want, got)) << "plane_bias_add " << where;

        std::vector<float> want_grad = bias, got_grad = bias;
        oracle_plane_sum(x, plane, want_grad);
        tensor::plane_sum(x, plane, got_grad);
        EXPECT_TRUE(same_bits_or_nan(want_grad, got_grad)) << "plane_sum " << where;
      }
    }
  }
}

TEST(PlaneKernels, SizeValidation) {
  std::vector<float> x(12), bias(5), grad(5);
  EXPECT_THROW(tensor::plane_bias_add(x, 2, bias), std::invalid_argument);
  EXPECT_THROW(tensor::plane_sum(x, 2, grad), std::invalid_argument);
  std::vector<float> fits(10);
  EXPECT_NO_THROW(tensor::plane_bias_add(fits, 2, bias));
  EXPECT_NO_THROW(tensor::plane_sum(fits, 2, grad));
}

TEST(Conv2dGeometry, OutputDims) {
  tensor::Conv2dGeometry geo{3, 16, 16, 5, 5, 1, 2};
  EXPECT_EQ(geo.out_h(), 16u);
  EXPECT_EQ(geo.out_w(), 16u);
  tensor::Conv2dGeometry strided{3, 16, 16, 3, 3, 2, 1};
  EXPECT_EQ(strided.out_h(), 8u);
  EXPECT_EQ(strided.out_w(), 8u);
}

}  // namespace
}  // namespace fedca
