// AVX-512F GEMM microkernel tier. One 512-bit register holds an entire
// kNr-wide packed B row, so the 6 x 16 tile is six zmm accumulators — the
// same fma chains as the AVX2 and portable microkernels, just wider
// registers (bit-identical output by the association contract in
// kernels.hpp). Compiled with -mavx512f when the compiler has it; the
// dispatcher only selects this tier when the build carries it AND CPUID
// reports support.

#if defined(__x86_64__) || defined(_M_X64)

#include "tensor/simd/kernels.hpp"

#if defined(__AVX512F__)

#include <immintrin.h>

namespace fedca::tensor::simd {

bool avx512_compiled() { return true; }

void gemm_microkernel_avx512(std::size_t kb, const float* ap, const float* bp,
                             float* c, std::size_t ldc, std::size_t mr_eff,
                             std::size_t nr_eff, bool first) {
  static_assert(kNr == 16, "one zmm per packed B row");
  if (mr_eff != kMr || nr_eff != kNr) {
    microkernel_generic(kb, ap, bp, c, ldc, mr_eff, nr_eff, first);
    return;
  }
  __m512 c0, c1, c2, c3, c4, c5;
  if (first) {
    c0 = c1 = c2 = c3 = c4 = c5 = _mm512_setzero_ps();
  } else {
    c0 = _mm512_loadu_ps(c + 0 * ldc);
    c1 = _mm512_loadu_ps(c + 1 * ldc);
    c2 = _mm512_loadu_ps(c + 2 * ldc);
    c3 = _mm512_loadu_ps(c + 3 * ldc);
    c4 = _mm512_loadu_ps(c + 4 * ldc);
    c5 = _mm512_loadu_ps(c + 5 * ldc);
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

}  // namespace fedca::tensor::simd

#else  // !__AVX512F__: compiler can't target AVX-512; tier never selected.

namespace fedca::tensor::simd {

bool avx512_compiled() { return false; }

void gemm_microkernel_avx512(std::size_t kb, const float* ap, const float* bp,
                             float* c, std::size_t ldc, std::size_t mr_eff,
                             std::size_t nr_eff, bool first) {
  microkernel_generic(kb, ap, bp, c, ldc, mr_eff, nr_eff, first);
}

void pack_panel_runs_avx512(const float* in, const std::size_t* step, std::size_t kb,
                            const PanelRun* runs, std::size_t nruns, float* dst) {
  pack_panel_runs_generic(in, step, kb, runs, nruns, 1, dst);
}

}  // namespace fedca::tensor::simd

#endif  // __AVX512F__

#endif  // x86-64
