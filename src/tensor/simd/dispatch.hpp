// Runtime dispatch for the SIMD kernel tier.
//
// Most tensor kernels (ops.cpp) are one portable loop. ops.cpp is built
// -O3 -march=native, so the compiler vectorizes those loops for the build
// host's full ISA (512-bit on an AVX-512 host). A few kernels also have
// hand-written vector code (tensor/simd/kernels.hpp: the GEMM
// microkernels, dot, tanh, the int8 pair and the conv panel packer),
// compiled into per-ISA translation units under src/tensor/simd/. Which of
// the two runs is decided once per process from CPUID plus the FEDCA_SIMD
// environment variable:
//
//   FEDCA_SIMD=auto    (default) best supported vector tier, else scalar
//   FEDCA_SIMD=avx512  AVX2 kernels + AVX-512F GEMM microkernel and panel
//                      packer; falls back to avx2/scalar if CPU or build
//                      lacks it
//   FEDCA_SIMD=avx2    AVX2+FMA kernels; falls back to scalar if the CPU
//                      lacks them
//   FEDCA_SIMD=scalar  the portable loops only (also what any
//                      unrecognized value selects)
//
// No tier makes the binary portable: "scalar" means the portable loops as
// compiled for the build host, and those loops use whatever ISA
// -march=native enabled there. A binary runs only on CPUs with every
// extension its build host had; the CPUID checks choose among the
// hand-written kernels, they do not guard the rest of ops.cpp.
//
// Determinism contract: every tier implements the exact same per-element
// association order (see ops.hpp), so switching tiers never changes a
// single output bit. The dispatch is therefore a pure performance knob —
// goldens, reports, and model states are tier-independent by construction,
// and the parallel-determinism suite verifies it.
#pragma once

namespace fedca::tensor::simd {

enum class Tier {
  kScalar = 0,  // the portable loops in ops.cpp only
  kAvx2 = 1,    // explicit AVX2+FMA kernels (x86-64)
  kAvx512 = 2,  // AVX2 kernels + AVX-512F GEMM microkernel and panel packer
};

// The tier every dispatched kernel uses. Resolved on first use from
// FEDCA_SIMD + CPU feature detection and cached; thread-safe.
Tier active_tier();

// Stable lowercase name for logs, bench context, and the README table.
const char* tier_name(Tier tier);
const char* active_tier_name();

// True when this build + CPU can run the AVX2+FMA kernels.
bool avx2_supported();
// True when this build + CPU can run the AVX-512F GEMM microkernel.
bool avx512_supported();

// Test hooks: force a tier (clamped to supported tiers) or re-resolve from
// the environment. Not for concurrent use with in-flight kernels.
void set_tier_for_testing(Tier tier);
void reset_tier_from_env();

}  // namespace fedca::tensor::simd
