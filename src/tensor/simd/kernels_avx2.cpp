// AVX2+FMA kernel tier. Compiled with -mavx2 -mfma -ffp-contract=off;
// only ever invoked after the dispatcher verified CPU support.
//
// Determinism: every loop below reproduces the association order written
// in kernels.hpp / ops.hpp exactly — vector lanes map to distinct output
// elements (GEMM columns, span indices, reduction lanes), fused ops are
// used precisely where the contract says fma, and plain mul+add where it
// says unfused. Tails reuse the same scalar expressions, compiled in this
// TU under the same contraction-off rule.

#if defined(__x86_64__) || defined(_M_X64)

#include <immintrin.h>

#include <algorithm>
#include <cmath>

#include "tensor/simd/kernels.hpp"
#include "tensor/simd/tanh.hpp"

namespace fedca::tensor::simd {

void gemm_microkernel_avx2(std::size_t kb, const float* ap, const float* bp,
                           float* c, std::size_t ldc, std::size_t mr_eff,
                           std::size_t nr_eff, bool first) {
  if (mr_eff != kMr || nr_eff != kNr) {
    // Edge tiles: the portable fma-chain microkernel computes the same
    // values (chains are per-element, so the implementation split is
    // invisible in the output).
    microkernel_generic(kb, ap, bp, c, ldc, mr_eff, nr_eff, first);
    return;
  }
  __m256 c00, c01, c10, c11, c20, c21, c30, c31, c40, c41, c50, c51;
  if (first) {
    c00 = c01 = c10 = c11 = c20 = c21 = _mm256_setzero_ps();
    c30 = c31 = c40 = c41 = c50 = c51 = _mm256_setzero_ps();
  } else {
    c00 = _mm256_loadu_ps(c + 0 * ldc);
    c01 = _mm256_loadu_ps(c + 0 * ldc + 8);
    c10 = _mm256_loadu_ps(c + 1 * ldc);
    c11 = _mm256_loadu_ps(c + 1 * ldc + 8);
    c20 = _mm256_loadu_ps(c + 2 * ldc);
    c21 = _mm256_loadu_ps(c + 2 * ldc + 8);
    c30 = _mm256_loadu_ps(c + 3 * ldc);
    c31 = _mm256_loadu_ps(c + 3 * ldc + 8);
    c40 = _mm256_loadu_ps(c + 4 * ldc);
    c41 = _mm256_loadu_ps(c + 4 * ldc + 8);
    c50 = _mm256_loadu_ps(c + 5 * ldc);
    c51 = _mm256_loadu_ps(c + 5 * ldc + 8);
  }
  for (std::size_t kk = 0; kk < kb; ++kk) {
    const __m256 b0 = _mm256_loadu_ps(bp + kk * kNr);
    const __m256 b1 = _mm256_loadu_ps(bp + kk * kNr + 8);
    const float* arow = ap + kk * kMr;
    __m256 av;
    av = _mm256_broadcast_ss(arow + 0);
    c00 = _mm256_fmadd_ps(av, b0, c00);
    c01 = _mm256_fmadd_ps(av, b1, c01);
    av = _mm256_broadcast_ss(arow + 1);
    c10 = _mm256_fmadd_ps(av, b0, c10);
    c11 = _mm256_fmadd_ps(av, b1, c11);
    av = _mm256_broadcast_ss(arow + 2);
    c20 = _mm256_fmadd_ps(av, b0, c20);
    c21 = _mm256_fmadd_ps(av, b1, c21);
    av = _mm256_broadcast_ss(arow + 3);
    c30 = _mm256_fmadd_ps(av, b0, c30);
    c31 = _mm256_fmadd_ps(av, b1, c31);
    av = _mm256_broadcast_ss(arow + 4);
    c40 = _mm256_fmadd_ps(av, b0, c40);
    c41 = _mm256_fmadd_ps(av, b1, c41);
    av = _mm256_broadcast_ss(arow + 5);
    c50 = _mm256_fmadd_ps(av, b0, c50);
    c51 = _mm256_fmadd_ps(av, b1, c51);
  }
  _mm256_storeu_ps(c + 0 * ldc, c00);
  _mm256_storeu_ps(c + 0 * ldc + 8, c01);
  _mm256_storeu_ps(c + 1 * ldc, c10);
  _mm256_storeu_ps(c + 1 * ldc + 8, c11);
  _mm256_storeu_ps(c + 2 * ldc, c20);
  _mm256_storeu_ps(c + 2 * ldc + 8, c21);
  _mm256_storeu_ps(c + 3 * ldc, c30);
  _mm256_storeu_ps(c + 3 * ldc + 8, c31);
  _mm256_storeu_ps(c + 4 * ldc, c40);
  _mm256_storeu_ps(c + 4 * ldc + 8, c41);
  _mm256_storeu_ps(c + 5 * ldc, c50);
  _mm256_storeu_ps(c + 5 * ldc + 8, c51);
}

namespace {

// Splits 8 floats into two double quartets (lanes 0-3 / 4-7 of the
// reduction contract).
inline void widen(__m256 v, __m256d* lo, __m256d* hi) {
  *lo = _mm256_cvtps_pd(_mm256_castps256_ps128(v));
  *hi = _mm256_cvtps_pd(_mm256_extractf128_ps(v, 1));
}

// The fixed halving tree over the eight double lanes: stride 4 (hi into
// lo), stride 2 (upper half into lower), stride 1.
inline double reduce_tree(__m256d acc_lo, __m256d acc_hi) {
  const __m256d s4 = _mm256_add_pd(acc_lo, acc_hi);
  const __m128d s2 = _mm_add_pd(_mm256_castpd256_pd128(s4),
                                _mm256_extractf128_pd(s4, 1));
  return _mm_cvtsd_f64(s2) + _mm_cvtsd_f64(_mm_unpackhi_pd(s2, s2));
}

}  // namespace

double dot_avx2(const float* x, const float* y, std::size_t n) {
  __m256d acc_lo = _mm256_setzero_pd();
  __m256d acc_hi = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m256d xlo, xhi, ylo, yhi;
    widen(_mm256_loadu_ps(x + i), &xlo, &xhi);
    widen(_mm256_loadu_ps(y + i), &ylo, &yhi);
    // Unfused multiply+add, exactly as the scalar lanes are written.
    acc_lo = _mm256_add_pd(acc_lo, _mm256_mul_pd(xlo, ylo));
    acc_hi = _mm256_add_pd(acc_hi, _mm256_mul_pd(xhi, yhi));
  }
  double total = reduce_tree(acc_lo, acc_hi);
  for (; i < n; ++i) {
    total += static_cast<double>(x[i]) * static_cast<double>(y[i]);
  }
  return total;
}

void minmax_avx2(const float* x, std::size_t n, float* lo, float* hi) {
  if (n == 0) {
    *lo = 0.0f;
    *hi = 0.0f;
    return;
  }
  float mn = x[0];
  float mx = x[0];
  std::size_t i = 0;
  if (n >= 8) {
    __m256 vmn = _mm256_loadu_ps(x);
    __m256 vmx = vmn;
    for (i = 8; i + 8 <= n; i += 8) {
      const __m256 v = _mm256_loadu_ps(x + i);
      vmn = _mm256_min_ps(vmn, v);
      vmx = _mm256_max_ps(vmx, v);
    }
    // min/max are exact and associative over finite floats, so the lane
    // combine order cannot change the result.
    alignas(32) float tmp[8];
    _mm256_store_ps(tmp, vmn);
    mn = *std::min_element(tmp, tmp + 8);
    _mm256_store_ps(tmp, vmx);
    mx = *std::max_element(tmp, tmp + 8);
  }
  for (; i < n; ++i) {
    mn = std::min(mn, x[i]);
    mx = std::max(mx, x[i]);
  }
  *lo = mn;
  *hi = mx;
}

void fake_quantize_int8_avx2(float* x, std::size_t n, float inv_scale,
                             float scale, std::int32_t zero_point) {
  const __m256 vinv = _mm256_set1_ps(inv_scale);
  const __m256 vscale = _mm256_set1_ps(scale);
  const __m256i vzp = _mm256_set1_epi32(zero_point);
  const __m256i vlo = _mm256_set1_epi32(-128);
  const __m256i vhi = _mm256_set1_epi32(127);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    // q = clamp(round_nearest_even(x * inv_scale) + zp, -128, 127).
    const __m256 scaled = _mm256_mul_ps(_mm256_loadu_ps(x + i), vinv);
    __m256i qv = _mm256_add_epi32(_mm256_cvtps_epi32(scaled), vzp);
    qv = _mm256_min_epi32(_mm256_max_epi32(qv, vlo), vhi);
    const __m256i vi = _mm256_sub_epi32(qv, vzp);
    _mm256_storeu_ps(x + i, _mm256_mul_ps(vscale, _mm256_cvtepi32_ps(vi)));
  }
  for (; i < n; ++i) {
    const auto r = static_cast<std::int32_t>(std::lrintf(x[i] * inv_scale)) +
                   zero_point;
    const std::int32_t qi = std::clamp(r, -128, 127);
    x[i] = scale * static_cast<float>(qi - zero_point);
  }
}

namespace {

inline __m256i splat(std::uint32_t bits) {
  return _mm256_set1_epi32(static_cast<int>(bits));
}

// Lane-wise fdlibm::expm1f over the domain tanh_fdlibm gives it. Every
// branch of the scalar code is computed and each lane keeps the one the
// scalar code would take, so each lane sees the same operations in the
// same order. Like the scalar code it has no k == 1 branch (x > 0 means
// x >= 2 here); lanes outside the domain (tanh's |v| >= 22 and
// |v| < 2^-55, which tanh8 overrides) compute values nobody reads.
inline __m256 expm1_tanh_domain(__m256 x) {
  const __m256i xb = _mm256_castps_si256(x);
  const __m256i hx = _mm256_and_si256(xb, splat(0x7fffffffu));
  const __m256 sign = _mm256_and_ps(x, _mm256_set1_ps(-0.0f));
  const __m256i reduce = _mm256_cmpgt_epi32(hx, splat(0x3eb17218u));  // |x| > 0.5 ln2
  const __m256i near = _mm256_cmpgt_epi32(splat(0x3f851592u), hx);   // |x| < 1.5 ln2
  const __m256i tiny = _mm256_cmpgt_epi32(splat(0x33000000u), hx);   // |x| < 2^-25

  // k: sign(x) near 0.5..1.5 ln2, (int)(x / ln2 +- 0.5) beyond, 0 below.
  // With t = k, hi = x - t * ln2_hi and lo = t * ln2_lo reproduce the
  // scalar code's +-ln2 constants exactly, and give hi = x, lo = 0 (so
  // x unchanged, c = 0) on the k == 0 lanes.
  const __m256 half = _mm256_or_ps(_mm256_set1_ps(0.5f), sign);
  const __m256i k_far = _mm256_cvttps_epi32(
      _mm256_add_ps(_mm256_mul_ps(_mm256_set1_ps(fdlibm::kInvLn2), x), half));
  const __m256i k_near = _mm256_or_si256(_mm256_srai_epi32(xb, 31), splat(1u));
  const __m256i k = _mm256_and_si256(_mm256_blendv_epi8(k_far, k_near, near), reduce);
  const __m256 t_k = _mm256_cvtepi32_ps(k);
  const __m256 hi = _mm256_sub_ps(x, _mm256_mul_ps(t_k, _mm256_set1_ps(fdlibm::kLn2Hi)));
  const __m256 lo = _mm256_mul_ps(t_k, _mm256_set1_ps(fdlibm::kLn2Lo));
  const __m256 xr = _mm256_sub_ps(hi, lo);
  const __m256 c = _mm256_sub_ps(_mm256_sub_ps(hi, xr), lo);

  const __m256 one = _mm256_set1_ps(1.0f);
  const __m256 hfx = _mm256_mul_ps(_mm256_set1_ps(0.5f), xr);
  const __m256 hxs = _mm256_mul_ps(xr, hfx);
  __m256 poly = _mm256_add_ps(_mm256_set1_ps(fdlibm::kQ4),
                              _mm256_mul_ps(hxs, _mm256_set1_ps(fdlibm::kQ5)));
  poly = _mm256_add_ps(_mm256_set1_ps(fdlibm::kQ3), _mm256_mul_ps(hxs, poly));
  poly = _mm256_add_ps(_mm256_set1_ps(fdlibm::kQ2), _mm256_mul_ps(hxs, poly));
  poly = _mm256_add_ps(_mm256_set1_ps(fdlibm::kQ1), _mm256_mul_ps(hxs, poly));
  const __m256 r1 = _mm256_add_ps(one, _mm256_mul_ps(hxs, poly));
  const __m256 t = _mm256_sub_ps(_mm256_set1_ps(3.0f), _mm256_mul_ps(r1, hfx));
  const __m256 e = _mm256_mul_ps(
      hxs, _mm256_div_ps(_mm256_sub_ps(r1, t),
                         _mm256_sub_ps(_mm256_set1_ps(6.0f), _mm256_mul_ps(xr, t))));

  // k == 0: x - (x * e - hxs).
  const __m256 res_k0 = _mm256_sub_ps(xr, _mm256_sub_ps(_mm256_mul_ps(xr, e), hxs));
  const __m256 e2 = _mm256_sub_ps(
      _mm256_sub_ps(_mm256_mul_ps(xr, _mm256_sub_ps(e, c)), c), hxs);
  const __m256 x_minus_e2 = _mm256_sub_ps(xr, e2);
  const __m256 e2_minus_x = _mm256_sub_ps(e2, xr);
  const __m256i k_exp = _mm256_slli_epi32(k, 23);
  // k == -1: 0.5 * (x - e) - 0.5.
  const __m256 half1 = _mm256_set1_ps(0.5f);
  const __m256 res_km1 = _mm256_sub_ps(_mm256_mul_ps(half1, x_minus_e2), half1);
  // k <= -2 || k > 56: (1 - (e - x)) * 2^k - 1.
  const __m256 res_far = _mm256_sub_ps(
      _mm256_castsi256_ps(_mm256_add_epi32(
          _mm256_castps_si256(_mm256_sub_ps(one, e2_minus_x)), k_exp)),
      one);
  // 2 <= k < 23: ((1 - 2^-k) - (e - x)) * 2^k.
  const __m256 t_small = _mm256_castsi256_ps(
      _mm256_sub_epi32(splat(0x3f800000u), _mm256_srlv_epi32(splat(0x1000000u), k)));
  const __m256 res_small = _mm256_castsi256_ps(_mm256_add_epi32(
      _mm256_castps_si256(_mm256_sub_ps(t_small, e2_minus_x)), k_exp));
  // 23 <= k <= 56: ((x - (e + 2^-k)) + 1) * 2^k.
  const __m256 t_large = _mm256_castsi256_ps(
      _mm256_slli_epi32(_mm256_sub_epi32(splat(0x7fu), k), 23));
  const __m256 y_large = _mm256_add_ps(_mm256_sub_ps(xr, _mm256_add_ps(e2, t_large)), one);
  const __m256 res_large =
      _mm256_castsi256_ps(_mm256_add_epi32(_mm256_castps_si256(y_large), k_exp));

  const __m256i k_is_0 = _mm256_cmpeq_epi32(k, _mm256_setzero_si256());
  const __m256i k_is_m1 = _mm256_cmpeq_epi32(k, splat(0xffffffffu));
  const __m256i k_far_range = _mm256_or_si256(
      _mm256_cmpgt_epi32(splat(0xffffffffu), k), _mm256_cmpgt_epi32(k, splat(56u)));
  const __m256i k_small = _mm256_cmpgt_epi32(splat(23u), k);
  __m256 r = _mm256_blendv_ps(res_large, res_small, _mm256_castsi256_ps(k_small));
  r = _mm256_blendv_ps(r, res_far, _mm256_castsi256_ps(k_far_range));
  r = _mm256_blendv_ps(r, res_km1, _mm256_castsi256_ps(k_is_m1));
  r = _mm256_blendv_ps(r, res_k0, _mm256_castsi256_ps(k_is_0));
  return _mm256_blendv_ps(r, x, _mm256_castsi256_ps(tiny));
}

// Eight lanes of tanh_fdlibm over finite inputs.
inline __m256 tanh8(__m256 v) {
  const __m256 sign_mask = _mm256_set1_ps(-0.0f);
  const __m256 sign = _mm256_and_ps(v, sign_mask);
  const __m256 ax = _mm256_andnot_ps(sign_mask, v);
  const __m256i ix = _mm256_castps_si256(ax);
  const __m256 ge1 =
      _mm256_castsi256_ps(_mm256_cmpgt_epi32(ix, splat(0x3f7fffffu)));  // |v| >= 1
  const __m256 two = _mm256_set1_ps(2.0f);
  // expm1(2|v|) for |v| >= 1, expm1(-2|v|) below; both products are exact.
  const __m256 t = expm1_tanh_domain(
      _mm256_mul_ps(_mm256_blendv_ps(_mm256_set1_ps(-2.0f), two, ge1), ax));
  // |v| >= 1: 1 - 2 / (t + 2); below: -t / (t + 2).
  const __m256 q = _mm256_div_ps(_mm256_blendv_ps(_mm256_xor_ps(t, sign_mask), two, ge1),
                                 _mm256_add_ps(t, two));
  __m256 z = _mm256_blendv_ps(q, _mm256_sub_ps(_mm256_set1_ps(1.0f), q), ge1);
  const __m256 ge22 =
      _mm256_castsi256_ps(_mm256_cmpgt_epi32(ix, splat(0x41afffffu)));  // |v| >= 22
  z = _mm256_blendv_ps(z, _mm256_set1_ps(1.0f), ge22);
  z = _mm256_xor_ps(z, sign);
  // |v| < 2^-55: v * (1 + v), which also returns +-0 unchanged.
  const __m256 small =
      _mm256_castsi256_ps(_mm256_cmpgt_epi32(splat(0x24000000u), ix));
  return _mm256_blendv_ps(
      z, _mm256_mul_ps(v, _mm256_add_ps(_mm256_set1_ps(1.0f), v)), small);
}

}  // namespace

void tanh_avx2(const float* x, float* y, std::size_t n) {
  const __m256i exp_mask = splat(0x7f800000u);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 v = _mm256_loadu_ps(x + i);
    // Non-finite lanes (all exponent bits set) take the scalar code.
    const __m256i nonfinite = _mm256_cmpeq_epi32(
        _mm256_and_si256(_mm256_castps_si256(v), exp_mask), exp_mask);
    if (!_mm256_testz_si256(nonfinite, nonfinite)) {
      for (std::size_t j = i; j < i + 8; ++j) y[j] = tanh_fdlibm(x[j]);
      continue;
    }
    _mm256_storeu_ps(y + i, tanh8(v));
  }
  for (; i < n; ++i) y[i] = tanh_fdlibm(x[i]);
}

}  // namespace fedca::tensor::simd

#endif  // x86-64
