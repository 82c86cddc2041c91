// The portable GEMM microkernel (the scalar tier, and the edge-tile
// fallback of the vector tiers).
//
// Include it only from translation units built with -fopenmp-simd (ops.cpp,
// kernels_avx2.cpp, kernels_avx512.cpp): its `#pragma omp simd` is an
// unknown pragma, and a -Wunknown-pragmas warning, anywhere else.
#pragma once

#include <cmath>
#include <cstddef>

#include "tensor/simd/kernels.hpp"

namespace fedca::tensor::simd {

// Portable microkernel: explicit std::fma chains the compiler may
// vectorize freely (lanes are distinct output elements, so any
// vectorization preserves the association). Also the edge-tile fallback
// inside the vector tiers.
inline void microkernel_generic(std::size_t kb, const float* ap, const float* bp,
                                const float* seed, std::size_t lds, float* c,
                                std::size_t ldc, std::size_t mr_eff, std::size_t nr_eff,
                                bool add) {
  float acc[kMr][kNr];
  for (std::size_t r = 0; r < kMr; ++r) {
    for (std::size_t j = 0; j < kNr; ++j) {
      acc[r][j] = (seed != nullptr && r < mr_eff && j < nr_eff) ? seed[r * lds + j] : 0.0f;
    }
  }
  for (std::size_t kk = 0; kk < kb; ++kk) {
    const float* arow = ap + kk * kMr;
    const float* brow = bp + kk * kNr;
    for (std::size_t r = 0; r < kMr; ++r) {
      const float av = arow[r];
      // Lanes are distinct output elements, so vectorizing this loop
      // cannot change any chain.
#pragma omp simd
      for (std::size_t j = 0; j < kNr; ++j) {
        acc[r][j] = std::fma(av, brow[j], acc[r][j]);
      }
    }
  }
  for (std::size_t r = 0; r < mr_eff; ++r) {
    float* crow = c + r * ldc;
    if (add) {
      for (std::size_t j = 0; j < nr_eff; ++j) crow[j] += acc[r][j];
    } else {
      for (std::size_t j = 0; j < nr_eff; ++j) crow[j] = acc[r][j];
    }
  }
}

}  // namespace fedca::tensor::simd
