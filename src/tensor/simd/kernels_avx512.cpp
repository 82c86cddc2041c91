// AVX-512F tier: the GEMM microkernel, the conv panel packer, tanh and
// the sigmoid. One 512-bit register holds an entire kNr-wide packed B row, so
// the 6 x 16 tile is six zmm accumulators — the same fma chains as the
// AVX2 and portable microkernels, just wider registers (bit-identical
// output by the association contract in kernels.hpp). Compiled with
// -mavx512f when the compiler has it; the dispatcher only selects this
// tier when the build carries it AND CPUID reports support.

#if defined(__x86_64__) || defined(_M_X64)

#include "tensor/simd/kernels.hpp"
#include "tensor/simd/microkernel_generic.hpp"
#include "tensor/simd/tanh.hpp"

#if defined(__AVX512F__)

// gcc 12 reports the _mm512_undefined_* operands of unmasked AVX-512
// intrinsics as maybe-uninitialized (a false positive: the builtins ignore
// them under an all-ones mask).
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#include <immintrin.h>

#include <cmath>

namespace fedca::tensor::simd {

bool avx512_compiled() { return true; }

void gemm_microkernel_avx512(std::size_t kb, const float* ap, const float* bp,
                             const float* seed, std::size_t lds, float* c, std::size_t ldc,
                             std::size_t mr_eff, std::size_t nr_eff, bool add) {
  static_assert(kNr == 16, "one zmm per packed B row");
  if (mr_eff != kMr || nr_eff != kNr) {
    microkernel_generic(kb, ap, bp, seed, lds, c, ldc, mr_eff, nr_eff, add);
    return;
  }
  __m512 c0, c1, c2, c3, c4, c5;
  if (seed == nullptr) {
    c0 = c1 = c2 = c3 = c4 = c5 = _mm512_setzero_ps();
  } else {
    c0 = _mm512_loadu_ps(seed + 0 * lds);
    c1 = _mm512_loadu_ps(seed + 1 * lds);
    c2 = _mm512_loadu_ps(seed + 2 * lds);
    c3 = _mm512_loadu_ps(seed + 3 * lds);
    c4 = _mm512_loadu_ps(seed + 4 * lds);
    c5 = _mm512_loadu_ps(seed + 5 * lds);
  }
  for (std::size_t kk = 0; kk < kb; ++kk) {
    const __m512 b = _mm512_loadu_ps(bp + kk * kNr);
    const float* arow = ap + kk * kMr;
    c0 = _mm512_fmadd_ps(_mm512_set1_ps(arow[0]), b, c0);
    c1 = _mm512_fmadd_ps(_mm512_set1_ps(arow[1]), b, c1);
    c2 = _mm512_fmadd_ps(_mm512_set1_ps(arow[2]), b, c2);
    c3 = _mm512_fmadd_ps(_mm512_set1_ps(arow[3]), b, c3);
    c4 = _mm512_fmadd_ps(_mm512_set1_ps(arow[4]), b, c4);
    c5 = _mm512_fmadd_ps(_mm512_set1_ps(arow[5]), b, c5);
  }
  if (add) {
    c0 = _mm512_add_ps(_mm512_loadu_ps(c + 0 * ldc), c0);
    c1 = _mm512_add_ps(_mm512_loadu_ps(c + 1 * ldc), c1);
    c2 = _mm512_add_ps(_mm512_loadu_ps(c + 2 * ldc), c2);
    c3 = _mm512_add_ps(_mm512_loadu_ps(c + 3 * ldc), c3);
    c4 = _mm512_add_ps(_mm512_loadu_ps(c + 4 * ldc), c4);
    c5 = _mm512_add_ps(_mm512_loadu_ps(c + 5 * ldc), c5);
  }
  _mm512_storeu_ps(c + 0 * ldc, c0);
  _mm512_storeu_ps(c + 1 * ldc, c1);
  _mm512_storeu_ps(c + 2 * ldc, c2);
  _mm512_storeu_ps(c + 3 * ldc, c3);
  _mm512_storeu_ps(c + 4 * ldc, c4);
  _mm512_storeu_ps(c + 5 * ldc, c5);
}

namespace {

// The rows of a stride-1 panel made of R runs (R = 0: nruns of them, known
// only at run time): run g's lanes load from shift[g] bytes past each
// row's base. Runs cover disjoint lanes and leave the others +0, so OR-ing
// the zero-masked loads assembles the row bit-exactly; a fixed R keeps
// masks and shifts in registers.
template <std::size_t R>
void masked_rows(const float* in, const std::size_t* step, std::size_t kb,
                 const __mmask16* masks, const std::uintptr_t* shift, std::size_t nruns,
                 float* dst) {
  const std::size_t n = R != 0 ? R : nruns;
  __mmask16 m[R != 0 ? R : kNr];
  std::uintptr_t sh[R != 0 ? R : kNr];
  for (std::size_t g = 0; g < n; ++g) {
    m[g] = masks[g];
    sh[g] = shift[g];
  }
  for (std::size_t kk = 0; kk < kb; ++kk) {
    const std::uintptr_t base = reinterpret_cast<std::uintptr_t>(in + step[kk]);
    __m512i row = _mm512_setzero_si512();
    for (std::size_t g = 0; g < n; ++g) {
      row = _mm512_or_si512(row, _mm512_castps_si512(_mm512_maskz_loadu_ps(
                                     m[g], reinterpret_cast<const void*>(base + sh[g]))));
    }
    _mm512_storeu_si512(dst + kk * kNr, row);
  }
}

}  // namespace

void pack_panel_runs_avx512(const float* in, const std::size_t* step, std::size_t kb,
                            const PanelRun* runs, std::size_t nruns, float* dst) {
  // Lanes [j0, j0 + len) of each run load from j0 floats before its first
  // (the address is formed as an integer and may precede the image;
  // inactive lanes are never read).
  __mmask16 masks[kNr];
  std::uintptr_t shift[kNr];
  for (std::size_t g = 0; g < nruns; ++g) {
    masks[g] = static_cast<__mmask16>(((1u << runs[g].len) - 1u) << runs[g].j0);
    shift[g] = (runs[g].off - runs[g].j0) * sizeof(float);
  }
  switch (nruns) {
    case 1: masked_rows<1>(in, step, kb, masks, shift, nruns, dst); return;
    case 2: masked_rows<2>(in, step, kb, masks, shift, nruns, dst); return;
    case 3: masked_rows<3>(in, step, kb, masks, shift, nruns, dst); return;
    case 4: masked_rows<4>(in, step, kb, masks, shift, nruns, dst); return;
    default: masked_rows<0>(in, step, kb, masks, shift, nruns, dst); return;
  }
}

namespace {

// glibc 2.36's expf (sysdeps/ieee754/flt-32/e_expf.c) as its resolver's
// FMA build __expf_fma compiles it, for |x| < 88: x = (k + r) ln2 / 32 and
// expf(x) = 2^(k/32) * poly(r), evaluated in double. The constants are the
// bits of libm's __exp2f_data: the 2^(i/32) table with i << 47 subtracted
// from each entry, 32/ln2, the round-to-integer shift 0x1.8p52 and the
// cubic's coefficients scaled for N = 32.
alignas(64) constexpr std::uint64_t kExp2fTable[32] = {
    0x3ff0000000000000, 0x3fefd9b0d3158574, 0x3fefb5586cf9890f, 0x3fef9301d0125b51,
    0x3fef72b83c7d517b, 0x3fef54873168b9aa, 0x3fef387a6e756238, 0x3fef1e9df51fdee1,
    0x3fef06fe0a31b715, 0x3feef1a7373aa9cb, 0x3feedea64c123422, 0x3feece086061892d,
    0x3feebfdad5362a27, 0x3feeb42b569d4f82, 0x3feeab07dd485429, 0x3feea47eb03a5585,
    0x3feea09e667f3bcd, 0x3fee9f75e8ec5f74, 0x3feea11473eb0187, 0x3feea589994cce13,
    0x3feeace5422aa0db, 0x3feeb737b0cdc5e5, 0x3feec49182a3f090, 0x3feed503b23e255d,
    0x3feee89f995ad3ad, 0x3feeff76f2fb5e47, 0x3fef199bdd85529c, 0x3fef3720dcef9069,
    0x3fef5818dcfba487, 0x3fef7c97337b9b5f, 0x3fefa4afa2a490da, 0x3fefd0765b6e4540,
};
constexpr std::uint64_t kInvLn2N = 0x40471547652b82fe;  // 32 / ln 2
constexpr std::uint64_t kShift = 0x4338000000000000;    // 0x1.8p52
constexpr std::uint64_t kC0 = 0x3ebc6af84b912394;
constexpr std::uint64_t kC1 = 0x3f2ebfce50fac4f3;
constexpr std::uint64_t kC2 = 0x3f962e42ff0c52d6;
// expf's main path takes x whose top 12 bits, sign cleared, are at most
// this: |x| < 88. Larger magnitudes, inf and NaN go to libm.
constexpr std::uint32_t kExpfTopMax = 0x42a;

inline __m512d splat_pd(std::uint64_t bits) {
  return _mm512_castsi512_pd(_mm512_set1_epi64(static_cast<long long>(bits)));
}

// Eight lanes of __expf_fma's main path, each lane the instructions of
// `objdump -d libm.so.6` in their order (fma where it has vfmadd/vfmsub).
struct Expf8 {
  __m512i tab0 = _mm512_load_si512(kExp2fTable + 0);
  __m512i tab1 = _mm512_load_si512(kExp2fTable + 8);
  __m512i tab2 = _mm512_load_si512(kExp2fTable + 16);
  __m512i tab3 = _mm512_load_si512(kExp2fTable + 24);
  __m512d inv_ln2n = splat_pd(kInvLn2N);
  __m512d shift = splat_pd(kShift);
  __m512d c0 = splat_pd(kC0);
  __m512d c1 = splat_pd(kC1);
  __m512d c2 = splat_pd(kC2);
  __m512d one = _mm512_set1_pd(1.0);

  __m256 operator()(__m256 x) const {
    const __m512d xd = _mm512_cvtps_pd(x);
    const __m512d ks = _mm512_fmadd_pd(inv_ln2n, xd, shift);
    const __m512d kd = _mm512_sub_pd(ks, shift);
    const __m512d r = _mm512_fmsub_pd(inv_ln2n, xd, kd);
    // T[ki % 32]: vpermt2q reads index bits 0-3, bit 4 picks the half.
    const __m512i ki = _mm512_castpd_si512(ks);
    const __m512i t_lo = _mm512_permutex2var_epi64(tab0, ki, tab1);
    const __m512i t_hi = _mm512_permutex2var_epi64(tab2, ki, tab3);
    const __m512i t = _mm512_mask_blend_epi64(
        _mm512_test_epi64_mask(ki, _mm512_set1_epi64(16)), t_lo, t_hi);
    const __m512d s = _mm512_castsi512_pd(_mm512_add_epi64(t, _mm512_slli_epi64(ki, 47)));
    const __m512d z = _mm512_fmadd_pd(r, c0, c1);
    const __m512d r2 = _mm512_mul_pd(r, r);
    __m512d y = _mm512_fmadd_pd(r, c2, one);
    y = _mm512_fmadd_pd(z, r2, y);
    return _mm512_cvtpd_ps(_mm512_mul_pd(y, s));
  }
};

inline __m512i splat(std::uint32_t bits) { return _mm512_set1_epi32(static_cast<int>(bits)); }
inline __m512 as_ps(__m512i v) { return _mm512_castsi512_ps(v); }
inline __m512i as_si(__m512 v) { return _mm512_castps_si512(v); }

// expm1_tanh_domain of kernels_avx2.cpp, sixteen lanes: every branch of
// fdlibm::expm1f is computed and each lane keeps the one the scalar code
// takes, with the same operations in the same order.
inline __m512 expm1_tanh_domain(__m512 x) {
  const __m512i xb = as_si(x);
  const __m512i hx = _mm512_and_si512(xb, splat(0x7fffffffu));
  const __m512i sign = _mm512_and_si512(xb, splat(0x80000000u));
  const __mmask16 reduce = _mm512_cmpgt_epi32_mask(hx, splat(0x3eb17218u));  // |x| > 0.5 ln2
  const __mmask16 near = _mm512_cmplt_epi32_mask(hx, splat(0x3f851592u));    // |x| < 1.5 ln2
  const __mmask16 tiny = _mm512_cmplt_epi32_mask(hx, splat(0x33000000u));    // |x| < 2^-25

  const __m512 half = as_ps(_mm512_or_si512(as_si(_mm512_set1_ps(0.5f)), sign));
  const __m512i k_far = _mm512_cvttps_epi32(
      _mm512_add_ps(_mm512_mul_ps(_mm512_set1_ps(fdlibm::kInvLn2), x), half));
  const __m512i k_near = _mm512_or_si512(_mm512_srai_epi32(xb, 31), splat(1u));
  const __m512i k = _mm512_maskz_mov_epi32(reduce, _mm512_mask_blend_epi32(near, k_far, k_near));
  const __m512 t_k = _mm512_cvtepi32_ps(k);
  const __m512 hi = _mm512_sub_ps(x, _mm512_mul_ps(t_k, _mm512_set1_ps(fdlibm::kLn2Hi)));
  const __m512 lo = _mm512_mul_ps(t_k, _mm512_set1_ps(fdlibm::kLn2Lo));
  const __m512 xr = _mm512_sub_ps(hi, lo);
  const __m512 c = _mm512_sub_ps(_mm512_sub_ps(hi, xr), lo);

  const __m512 one = _mm512_set1_ps(1.0f);
  const __m512 hfx = _mm512_mul_ps(_mm512_set1_ps(0.5f), xr);
  const __m512 hxs = _mm512_mul_ps(xr, hfx);
  __m512 poly = _mm512_add_ps(_mm512_set1_ps(fdlibm::kQ4),
                              _mm512_mul_ps(hxs, _mm512_set1_ps(fdlibm::kQ5)));
  poly = _mm512_add_ps(_mm512_set1_ps(fdlibm::kQ3), _mm512_mul_ps(hxs, poly));
  poly = _mm512_add_ps(_mm512_set1_ps(fdlibm::kQ2), _mm512_mul_ps(hxs, poly));
  poly = _mm512_add_ps(_mm512_set1_ps(fdlibm::kQ1), _mm512_mul_ps(hxs, poly));
  const __m512 r1 = _mm512_add_ps(one, _mm512_mul_ps(hxs, poly));
  const __m512 t = _mm512_sub_ps(_mm512_set1_ps(3.0f), _mm512_mul_ps(r1, hfx));
  const __m512 e = _mm512_mul_ps(
      hxs, _mm512_div_ps(_mm512_sub_ps(r1, t),
                         _mm512_sub_ps(_mm512_set1_ps(6.0f), _mm512_mul_ps(xr, t))));

  const __m512 res_k0 = _mm512_sub_ps(xr, _mm512_sub_ps(_mm512_mul_ps(xr, e), hxs));
  const __m512 e2 = _mm512_sub_ps(
      _mm512_sub_ps(_mm512_mul_ps(xr, _mm512_sub_ps(e, c)), c), hxs);
  const __m512 x_minus_e2 = _mm512_sub_ps(xr, e2);
  const __m512 e2_minus_x = _mm512_sub_ps(e2, xr);
  const __m512i k_exp = _mm512_slli_epi32(k, 23);
  const __m512 half1 = _mm512_set1_ps(0.5f);
  const __m512 res_km1 = _mm512_sub_ps(_mm512_mul_ps(half1, x_minus_e2), half1);
  const __m512 res_far =
      _mm512_sub_ps(as_ps(_mm512_add_epi32(as_si(_mm512_sub_ps(one, e2_minus_x)), k_exp)), one);
  const __m512 t_small =
      as_ps(_mm512_sub_epi32(splat(0x3f800000u), _mm512_srlv_epi32(splat(0x1000000u), k)));
  const __m512 res_small =
      as_ps(_mm512_add_epi32(as_si(_mm512_sub_ps(t_small, e2_minus_x)), k_exp));
  const __m512 t_large = as_ps(_mm512_slli_epi32(_mm512_sub_epi32(splat(0x7fu), k), 23));
  const __m512 y_large = _mm512_add_ps(_mm512_sub_ps(xr, _mm512_add_ps(e2, t_large)), one);
  const __m512 res_large = as_ps(_mm512_add_epi32(as_si(y_large), k_exp));

  const __mmask16 k_is_0 = _mm512_cmpeq_epi32_mask(k, _mm512_setzero_si512());
  const __mmask16 k_is_m1 = _mm512_cmpeq_epi32_mask(k, splat(0xffffffffu));
  const __mmask16 k_far_range = _mm512_cmplt_epi32_mask(k, splat(0xffffffffu)) |
                                _mm512_cmpgt_epi32_mask(k, splat(56u));
  const __mmask16 k_small = _mm512_cmplt_epi32_mask(k, splat(23u));
  __m512 r = _mm512_mask_blend_ps(k_small, res_large, res_small);
  r = _mm512_mask_blend_ps(k_far_range, r, res_far);
  r = _mm512_mask_blend_ps(k_is_m1, r, res_km1);
  r = _mm512_mask_blend_ps(k_is_0, r, res_k0);
  return _mm512_mask_blend_ps(tiny, r, x);
}

// Sixteen lanes of tanh_fdlibm over finite inputs (tanh8 of
// kernels_avx2.cpp).
inline __m512 tanh16(__m512 v) {
  const __m512i vb = as_si(v);
  const __m512i sign = _mm512_and_si512(vb, splat(0x80000000u));
  const __m512i ix = _mm512_and_si512(vb, splat(0x7fffffffu));
  const __m512 ax = as_ps(ix);
  const __mmask16 ge1 = _mm512_cmpgt_epi32_mask(ix, splat(0x3f7fffffu));  // |v| >= 1
  const __m512 two = _mm512_set1_ps(2.0f);
  const __m512 t = expm1_tanh_domain(
      _mm512_mul_ps(_mm512_mask_blend_ps(ge1, _mm512_set1_ps(-2.0f), two), ax));
  const __m512 neg_t = as_ps(_mm512_xor_si512(as_si(t), splat(0x80000000u)));
  const __m512 q = _mm512_div_ps(_mm512_mask_blend_ps(ge1, neg_t, two), _mm512_add_ps(t, two));
  __m512 z = _mm512_mask_blend_ps(ge1, q, _mm512_sub_ps(_mm512_set1_ps(1.0f), q));
  const __mmask16 ge22 = _mm512_cmpgt_epi32_mask(ix, splat(0x41afffffu));  // |v| >= 22
  z = _mm512_mask_blend_ps(ge22, z, _mm512_set1_ps(1.0f));
  z = as_ps(_mm512_xor_si512(as_si(z), sign));
  const __mmask16 small = _mm512_cmplt_epi32_mask(ix, splat(0x24000000u));  // |v| < 2^-55
  return _mm512_mask_blend_ps(
      small, z, _mm512_mul_ps(v, _mm512_add_ps(_mm512_set1_ps(1.0f), v)));
}

}  // namespace

void tanh_avx512(const float* x, float* y, std::size_t n) {
  const __m512i exp_mask = splat(0x7f800000u);
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m512 v = _mm512_loadu_ps(x + i);
    // Non-finite lanes (all exponent bits set) take the scalar code.
    if (_mm512_cmpeq_epi32_mask(_mm512_and_si512(as_si(v), exp_mask), exp_mask) != 0) {
      for (std::size_t j = i; j < i + 16; ++j) y[j] = tanh_fdlibm(x[j]);
      continue;
    }
    _mm512_storeu_ps(y + i, tanh16(v));
  }
  for (; i < n; ++i) y[i] = tanh_fdlibm(x[i]);
}

void sigmoid_avx512(const float* x, float* y, std::size_t n) {
  const Expf8 expf8;
  const __m512 one = _mm512_set1_ps(1.0f);
  const __m512i sign = _mm512_set1_epi32(static_cast<int>(0x80000000u));
  for (std::size_t i = 0; i < n; i += 16) {
    const __mmask16 live = static_cast<__mmask16>(
        n - i >= 16 ? 0xffffu : (1u << (n - i)) - 1u);
    const __m512 v = _mm512_maskz_loadu_ps(live, x + i);
    const __m512i vb = _mm512_castps_si512(v);
    const __mmask16 outside = _mm512_mask_cmpgt_epu32_mask(
        live, _mm512_and_si512(_mm512_srli_epi32(vb, 20), _mm512_set1_epi32(0x7ff)),
        _mm512_set1_epi32(kExpfTopMax));
    const __m512d neg = _mm512_castsi512_pd(_mm512_xor_si512(vb, sign));
    const __m256 e_lo = expf8(_mm256_castpd_ps(_mm512_castpd512_pd256(neg)));
    const __m256 e_hi = expf8(_mm256_castpd_ps(_mm512_extractf64x4_pd(neg, 1)));
    const __m512 e = _mm512_castpd_ps(_mm512_insertf64x4(
        _mm512_castpd256_pd512(_mm256_castps_pd(e_lo)), _mm256_castps_pd(e_hi), 1));
    _mm512_mask_storeu_ps(y + i, live, _mm512_div_ps(one, _mm512_add_ps(one, e)));
    if (outside != 0) {
      // From the register copy: when y == x the store above overwrote the
      // input.
      alignas(64) float in[16];
      _mm512_store_ps(in, v);
      for (unsigned l = 0; l < 16; ++l) {
        if ((outside >> l) & 1u) y[i + l] = 1.0f / (1.0f + std::exp(-in[l]));
      }
    }
  }
}

}  // namespace fedca::tensor::simd

#else  // !__AVX512F__: compiler can't target AVX-512; tier never selected.

namespace fedca::tensor::simd {

bool avx512_compiled() { return false; }

void gemm_microkernel_avx512(std::size_t kb, const float* ap, const float* bp,
                             const float* seed, std::size_t lds, float* c, std::size_t ldc,
                             std::size_t mr_eff, std::size_t nr_eff, bool add) {
  microkernel_generic(kb, ap, bp, seed, lds, c, ldc, mr_eff, nr_eff, add);
}

void pack_panel_runs_avx512(const float* in, const std::size_t* step, std::size_t kb,
                            const PanelRun* runs, std::size_t nruns, float* dst) {
  pack_panel_runs_generic(in, step, kb, runs, nruns, 1, dst);
}

void sigmoid_avx512(const float* x, float* y, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) y[i] = 1.0f / (1.0f + std::exp(-x[i]));
}

void tanh_avx512(const float* x, float* y, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) y[i] = tanh_fdlibm(x[i]);
}

}  // namespace fedca::tensor::simd

#endif  // __AVX512F__

#endif  // x86-64
