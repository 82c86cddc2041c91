// SIMD kernel tier: per-ISA entry points + the shared microkernel contract.
//
// Every kernel here implements the EXACT association order documented in
// ops.hpp. The rules that make tiers bit-identical:
//
//   * GEMM: each C element is one sequential fused-multiply-add chain over
//     k ascending, seeded at 0 (std::fma in portable code, vfmadd in the
//     vector tiers). A chain may round-trip through memory between k-blocks
//     (float stores are value-preserving), so the association is
//     independent of every blocking constant, of packing, of lane width,
//     and of thread partitioning — vector lanes always map to DISTINCT
//     output elements. The accumulate store adds the finished chain to C
//     with one float add, c + acc.
//   * dot / l2_norm: eight independent double lanes (element i feeds lane
//     i mod 8) combined by a fixed halving tree, scalar tail appended last;
//     products use separate multiply+add (never fused).
//   * fake_quantize_int8: element-wise, rounding nearest-even, NaN to the
//     zero-point code and out-of-range values saturated (quant_offset).
//   * minmax: NaN elements are skipped and the range is seeded at 0.
//   * tanh: every lane runs the operations of the scalar fdlibm replica
//     (tensor/simd/tanh.hpp) in its order, so every tier returns libm's
//     tanhf bits.
//   * sigmoid: 1 / (1 + expf(-x)) in float. The AVX-512 kernel's lanes run
//     the instructions of glibc 2.36's __expf_fma for |x| < 88 and call
//     libm for the rest; the other tiers call libm's expf on every
//     element, which on any host with a vector tier (so with FMA) is
//     __expf_fma as well.
//
// The vector kernels are declared and defined only when the build targets
// x86-64 (kernels_avx2.cpp and kernels_avx512.cpp are empty elsewhere);
// the dispatcher never selects a tier the build does not carry, and
// ops.cpp guards every call site on the architecture macro.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>

namespace fedca::tensor::simd {

// Register-tile shape of the packed GEMM microkernel: kMr rows of A by
// kNr columns of B (two 256-bit float vectors) per call.
inline constexpr std::size_t kMr = 6;
inline constexpr std::size_t kNr = 16;

// Packed-panel microkernel: acc[r][j] = seed[r][j] + sum_k ap[k][r] * bp[k][j]
// as one fma chain per element, k ascending. `ap` is a kMr-wide A tile
// (layout ap[k * kMr + r], zero-padded rows), `bp` a kNr-wide B tile
// (layout bp[k * kNr + j], zero-padded columns). The chain starts at +0
// when `seed` is null, otherwise at seed[r * lds + j], the running value an
// earlier k block stored. The result goes to c[r * ldc + j]: stored as is,
// or with `add` added to the value already there, c + acc, one rounding.
// Only mr_eff x nr_eff elements are read from seed and c or written.
using MicroKernel = void (*)(std::size_t kb, const float* ap, const float* bp,
                             const float* seed, std::size_t lds, float* c,
                             std::size_t ldc, std::size_t mr_eff, std::size_t nr_eff,
                             bool add);

// The portable MicroKernel, microkernel_generic, is in
// tensor/simd/microkernel_generic.hpp: its `omp simd` pragma needs a TU
// built with -fopenmp-simd.

// One run of a conv panel (PackedB::pack_conv / pack_conv_t): panel
// columns [j0, j0 + len) of every panel row read len floats `stride` apart
// from the image, starting `off` floats past that row's base. len >= 1 and
// j0 + len <= kNr.
struct PanelRun {
  std::size_t off;
  std::uint32_t j0;
  std::uint32_t len;
};

// Writes kb whole rows of one kNr-wide B panel, dst[kk * kNr + j]: row kk
// takes each run's floats from in + step[kk] + run.off, and +0 in every
// column no run covers (a tail panel's padding). A pure copy: each tier
// writes the same bits.
inline void pack_panel_runs_generic(const float* in, const std::size_t* step, std::size_t kb,
                                    const PanelRun* runs, std::size_t nruns,
                                    std::size_t stride, float* dst) {
  for (std::size_t kk = 0; kk < kb; ++kk) {
    float* row = dst + kk * kNr;
    for (std::size_t j = 0; j < kNr; ++j) row[j] = 0.0f;
    for (std::size_t g = 0; g < nruns; ++g) {
      const float* from = in + step[kk] + runs[g].off;
      float* to = row + runs[g].j0;
      for (std::size_t x = 0; x < runs[g].len; ++x) to[x] = from[x * stride];
    }
  }
}

// q - zero_point for the int8 code q of x (ops.hpp: fake_quantize_int8),
// q = clamp(round_nearest_even(x * inv_scale) + zero_point, -128, 127),
// as clamp(round_nearest_even(x * inv_scale), -128 - zero_point,
// 127 - zero_point): the bounds are integers, so clamping before the
// rounding gives the same integer, and no conversion sees a value outside
// int32 (+-inf saturate). A NaN product takes q = zero_point.
inline std::int32_t quant_offset(float x, float inv_scale, std::int32_t zero_point) {
  const float s = x * inv_scale;
  const float lo = static_cast<float>(-128 - zero_point);
  const float hi = static_cast<float>(127 - zero_point);
  return static_cast<std::int32_t>(std::lrintf(s == s ? std::clamp(s, lo, hi) : 0.0f));
}

#if defined(__x86_64__) || defined(_M_X64)

// Only the kernels below have hand-written vector code. Every other span
// kernel (axpy, scale, bias_add, row_sum, ...) is one portable loop in
// ops.cpp, which is built -O3 -march=native and vectorizes at the build
// host's full width. A hand-written kernel belongs here only while
// bench/micro_kernels measures it faster than that loop on the same host;
// the comment on each says why the compiler does not match it.

// ---- AVX-512F tier (kernels_avx512.cpp) ----
// The AVX-512 tier also runs the AVX2 dot and int8 kernels below; the GEMM
// microkernel, the conv panel packer and tanh widen, and the sigmoid has a
// kernel on this tier only.

// True when this build's compiler could target AVX-512F.
bool avx512_compiled();
void gemm_microkernel_avx512(std::size_t kb, const float* ap, const float* bp,
                             const float* seed, std::size_t lds, float* c, std::size_t ldc,
                             std::size_t mr_eff, std::size_t nr_eff, bool add);
// pack_panel_runs_generic at stride 1 with one zmm per panel row: a
// masked load per run (about 4x the portable packer on LeNet's convs).
void pack_panel_runs_avx512(const float* in, const std::size_t* step, std::size_t kb,
                            const PanelRun* runs, std::size_t nruns, float* dst);
// y[i] = 1 / (1 + expf(-x[i])) with libm's bits, sixteen lanes at a time;
// expf is replicated eight lanes wide in double, op for op as glibc 2.36's
// __expf_fma, for |x| < 88, and lanes beyond (|x| >= 88, inf, NaN) call
// std::exp after the store. x and y may be the same array. The portable
// loop calls libm per element, and gcc 12 does not vectorize a portable
// replica loop (at -O3 -march=native -mprefer-vector-width=512 it reports
// "control flow in loop"; measured 2.5x slower than libm), so this kernel
// is the only replica.
void sigmoid_avx512(const float* x, float* y, std::size_t n);
// tanh_avx2 sixteen lanes wide: BM_Tanh/kernel ~10 -> ~6 us and
// BM_LstmForward about 12% lower than with tanh_avx2 on the AVX-512 tier.
void tanh_avx512(const float* x, float* y, std::size_t n);

// ---- AVX2+FMA tier (kernels_avx2.cpp) ----

// Faster than microkernel_generic on small and conv1 shapes, slower on
// some dW shapes; the full tile only, edge tiles take the generic kernel.
void gemm_microkernel_avx2(std::size_t kb, const float* ap, const float* bp,
                           const float* seed, std::size_t lds, float* c, std::size_t ldc,
                           std::size_t mr_eff, std::size_t nr_eff, bool add);
// The portable dot is slower: at 512 bits the compiler folds the eight
// fixed double lanes into one latency-bound zmm add chain, where this
// kernel keeps two independent ymm chains.
double dot_avx2(const float* x, const float* y, std::size_t n);
// y[i] = tanh_fdlibm(x[i]) (tensor/simd/tanh.hpp), eight lanes at a time;
// x and y may be the same array. The portable loop runs the scalar
// replica's branches per element.
void tanh_avx2(const float* x, float* y, std::size_t n);
// The two int8 kernels of compute_quant_params / fake_quantize_int8. The
// portable loops are 8-12x slower: their NaN-skipping std::min/std::max and
// libm's lrintf do not vectorize. minmax_avx2 returns min(0, x...) and
// max(0, x...) over the non-NaN elements.
void minmax_avx2(const float* x, std::size_t n, float* lo, float* hi);
void fake_quantize_int8_avx2(float* x, std::size_t n, float inv_scale,
                             float scale, std::int32_t zero_point);

#endif  // x86-64

}  // namespace fedca::tensor::simd
