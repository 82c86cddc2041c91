#include "tensor/ops.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <vector>

#include "tensor/simd/dispatch.hpp"
#include "tensor/simd/kernels.hpp"
#include "tensor/simd/tanh.hpp"

namespace fedca::tensor {

namespace {

void require_equal_size(std::span<const float> x, std::span<const float> y,
                        const char* what) {
  if (x.size() != y.size()) {
    throw std::invalid_argument(std::string(what) + ": size mismatch (" +
                                std::to_string(x.size()) + " vs " +
                                std::to_string(y.size()) + ")");
  }
}

// True when the dispatcher routed this process to an x86 vector tier: the
// few span kernels with hand-written AVX2 code (dot, tanh, the int8 pair)
// run it on both the AVX2 and the AVX-512 tier.
inline bool use_avx2() {
#if defined(__x86_64__) || defined(_M_X64)
  const simd::Tier t = simd::active_tier();
  return t == simd::Tier::kAvx2 || t == simd::Tier::kAvx512;
#else
  return false;
#endif
}

}  // namespace

void axpy(float alpha, std::span<const float> x, std::span<float> y) {
  require_equal_size(x, y, "axpy");
  const float* px = x.data();
  float* py = y.data();
  const std::size_t n = x.size();
  for (std::size_t i = 0; i < n; ++i) py[i] = std::fma(alpha, px[i], py[i]);
}

void copy(std::span<const float> x, std::span<float> y) {
  require_equal_size(x, y, "copy");
  std::copy(x.begin(), x.end(), y.begin());
}

void scale(float alpha, std::span<float> y) {
  float* py = y.data();
  const std::size_t n = y.size();
  for (std::size_t i = 0; i < n; ++i) py[i] *= alpha;
}

namespace {

// Lane width for the double-accumulating span reductions. Eight
// independent double lanes map onto one 512-bit (or two 256-bit) vector
// accumulators; the final combine is a fixed halving tree, so the result
// does not depend on the vector width the compiler (or the AVX2 tier)
// picks.
constexpr std::size_t kRedLanes = 8;

double reduce_lanes(double (&acc)[kRedLanes]) {
  for (std::size_t stride = kRedLanes / 2; stride > 0; stride /= 2) {
    for (std::size_t l = 0; l < stride; ++l) acc[l] += acc[l + stride];
  }
  return acc[0];
}

}  // namespace

double dot(std::span<const float> x, std::span<const float> y) {
  require_equal_size(x, y, "dot");
  const float* px = x.data();
  const float* py = y.data();
  const std::size_t n = x.size();
#if defined(__x86_64__) || defined(_M_X64)
  if (use_avx2()) return simd::dot_avx2(px, py, n);
#endif
  double acc[kRedLanes] = {};
  std::size_t i = 0;
  for (; i + kRedLanes <= n; i += kRedLanes) {
    for (std::size_t l = 0; l < kRedLanes; ++l) {
      acc[l] += static_cast<double>(px[i + l]) * static_cast<double>(py[i + l]);
    }
  }
  double total = reduce_lanes(acc);
  for (; i < n; ++i) {
    total += static_cast<double>(px[i]) * static_cast<double>(py[i]);
  }
  return total;
}

double l2_norm(std::span<const float> x) { return std::sqrt(dot(x, x)); }

double cosine_similarity(std::span<const float> x, std::span<const float> y) {
  require_equal_size(x, y, "cosine_similarity");
  const double nx = l2_norm(x);
  const double ny = l2_norm(y);
  if (nx == 0.0 || ny == 0.0) return 0.0;
  return dot(x, y) / (nx * ny);
}

double magnitude_similarity(std::span<const float> x, std::span<const float> y) {
  const double nx = l2_norm(x);
  const double ny = l2_norm(y);
  if (nx == 0.0 && ny == 0.0) return 1.0;
  const double lo = std::min(nx, ny);
  const double hi = std::max(nx, ny);
  if (hi == 0.0) return 1.0;
  return lo / hi;
}

void tanh(std::span<const float> x, std::span<float> y) {
  require_equal_size(x, y, "tanh");
  const std::size_t n = x.size();
#if defined(__x86_64__) || defined(_M_X64)
  if (use_avx2()) {
    simd::tanh_avx2(x.data(), y.data(), n);
    return;
  }
#endif
  for (std::size_t i = 0; i < n; ++i) y[i] = simd::tanh_fdlibm(x[i]);
}

namespace {

constexpr float kNegInf = -std::numeric_limits<float>::infinity();

// The kernels below are written as selects (on non-aliasing pointers for
// the ReLU loops), so at -O3 they compile to compares and blends with no
// data-dependent branch.
void relu_loop(const float* __restrict x, float* __restrict y, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) y[i] = x[i] > 0.0f ? x[i] : 0.0f;
}

void relu_backward_loop(const float* __restrict x, const float* __restrict g,
                        float* __restrict dx, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) dx[i] = x[i] > 0.0f ? g[i] : 0.0f;
}

// Scans the window x window block at in[start] (rows w apart) in row-major
// order from -inf: the first element strictly greater than the running
// best replaces it, by select. The winner's index starts at the block's
// first element and is tracked only when kArgmax.
template <bool kArgmax>
void pool_window(const float* in, std::size_t start, std::size_t window, std::size_t w,
                 float* out, std::uint32_t* argmax) {
  float best = kNegInf;
  std::size_t at = start;
  for (std::size_t dy = 0; dy < window; ++dy) {
    for (std::size_t dx = 0; dx < window; ++dx) {
      const std::size_t i = start + dy * w + dx;
      const bool gt = in[i] > best;
      best = gt ? in[i] : best;
      if constexpr (kArgmax) at = gt ? i : at;
    }
  }
  *out = best;
  if constexpr (kArgmax) *argmax = static_cast<std::uint32_t>(at);
}

using V4f = float __attribute__((vector_size(16)));
using V4u = std::uint32_t __attribute__((vector_size(16)));

V4f load4(const float* p) {
  V4f v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

// Four outputs at a time of one output row of a 2x2 pool: the row's
// windows start at in[first], in[first + 2], ... and span input rows
// first / w and the next. Each window's candidates are deinterleaved from
// two 8-float loads per input row and folded in scan order (top-left,
// top-right, bottom-left, bottom-right) by lane-wise selects, so every
// lane matches pool_window<kArgmax>. The vectors are four wide because LeNet's
// pooled rows are 8 and 4 outputs long. Returns the outputs written, a
// multiple of 4; the caller finishes the row with pool_window.
template <bool kArgmax>
std::size_t max_pool2_row4(const float* in, std::size_t first, std::size_t w, std::size_t ow,
                           float* out, std::uint32_t* argmax) {
  const float* r0 = in + first;
  const float* r1 = r0 + w;
  const auto w32 = static_cast<std::uint32_t>(w);
  std::size_t x = 0;
  for (; x + 4 <= ow; x += 4) {
    const V4f t0 = load4(r0 + 2 * x), t1 = load4(r0 + 2 * x + 4);
    const V4f b0 = load4(r1 + 2 * x), b1 = load4(r1 + 2 * x + 4);
    const V4f cand[4] = {
        __builtin_shufflevector(t0, t1, 0, 2, 4, 6), __builtin_shufflevector(t0, t1, 1, 3, 5, 7),
        __builtin_shufflevector(b0, b1, 0, 2, 4, 6), __builtin_shufflevector(b0, b1, 1, 3, 5, 7)};
    V4f best = V4f{} + kNegInf;
    const auto i0 = static_cast<std::uint32_t>(first + 2 * x);
    const V4u base = V4u{i0, i0 + 2, i0 + 4, i0 + 6};
    const std::uint32_t offset[4] = {0, 1, w32, w32 + 1};
    V4u at = base;
    for (int k = 0; k < 4; ++k) {
      const auto gt = cand[k] > best;
      best = gt ? cand[k] : best;
      if constexpr (kArgmax) at = gt ? base + offset[k] : at;
    }
    std::memcpy(out + x, &best, sizeof best);
    if constexpr (kArgmax) std::memcpy(argmax + x, &at, sizeof at);
  }
  return x;
}

}  // namespace

void relu(std::span<const float> x, std::span<float> y) {
  require_equal_size(x, y, "relu");
  relu_loop(x.data(), y.data(), x.size());
}

void relu_backward(std::span<const float> x, std::span<const float> g, std::span<float> dx) {
  require_equal_size(x, g, "relu_backward");
  require_equal_size(x, dx, "relu_backward");
  relu_backward_loop(x.data(), g.data(), dx.data(), x.size());
}

void max_pool2d(std::span<const float> in, std::size_t planes, std::size_t h, std::size_t w,
                std::size_t window, std::span<float> out, std::uint32_t* argmax) {
  if (window == 0 || h % window != 0 || w % window != 0) {
    throw std::invalid_argument("max_pool2d: window must evenly divide the plane");
  }
  const std::size_t oh = h / window, ow = w / window;
  if (in.size() != planes * h * w || out.size() != planes * oh * ow) {
    throw std::invalid_argument("max_pool2d: in/out sizes do not match the geometry");
  }
  if (argmax && in.size() > std::numeric_limits<std::uint32_t>::max()) {
    throw std::invalid_argument("max_pool2d: input has more than UINT32_MAX elements");
  }
  for (std::size_t p = 0; p < planes; ++p) {
    for (std::size_t y = 0; y < oh; ++y) {
      const std::size_t first = (p * h + y * window) * w;  // the row's first window
      float* row_out = out.data() + (p * oh + y) * ow;
      std::uint32_t* row_argmax = argmax ? argmax + (p * oh + y) * ow : nullptr;
      std::size_t x = 0;
      if (window == 2) {
        x = argmax ? max_pool2_row4<true>(in.data(), first, w, ow, row_out, row_argmax)
                   : max_pool2_row4<false>(in.data(), first, w, ow, row_out, nullptr);
      }
      for (; x < ow; ++x) {
        if (argmax) {
          pool_window<true>(in.data(), first + x * window, window, w, row_out + x,
                            row_argmax + x);
        } else {
          pool_window<false>(in.data(), first + x * window, window, w, row_out + x, nullptr);
        }
      }
    }
  }
}

void bias_add(std::span<float> out, std::size_t rows, std::span<const float> bias) {
  const std::size_t cols = bias.size();
  if (out.size() != rows * cols) {
    throw std::invalid_argument("bias_add: out size " + std::to_string(out.size()) +
                                " != rows*cols " + std::to_string(rows * cols));
  }
  const float* pb = bias.data();
  for (std::size_t r = 0; r < rows; ++r) {
    float* prow = out.data() + r * cols;
    for (std::size_t j = 0; j < cols; ++j) prow[j] += pb[j];
  }
}

void row_sum(std::span<const float> in, std::size_t rows, std::span<float> out) {
  const std::size_t cols = out.size();
  if (in.size() != rows * cols) {
    throw std::invalid_argument("row_sum: in size " + std::to_string(in.size()) +
                                " != rows*cols " + std::to_string(rows * cols));
  }
  float* po = out.data();
  for (std::size_t r = 0; r < rows; ++r) {
    const float* prow = in.data() + r * cols;
    for (std::size_t j = 0; j < cols; ++j) po[j] += prow[j];
  }
}

void plane_bias_add(std::span<float> out, std::size_t plane, std::span<const float> bias) {
  if (out.size() != bias.size() * plane) {
    throw std::invalid_argument("plane_bias_add: out size " + std::to_string(out.size()) +
                                " != channels*plane " + std::to_string(bias.size() * plane));
  }
  for (std::size_t c = 0; c < bias.size(); ++c) {
    const float b = bias[c];
    float* dst = out.data() + c * plane;
    for (std::size_t i = 0; i < plane; ++i) dst[i] += b;
  }
}

namespace {

// out[l] += float(sum_i in[l * plane + i]) for l < L: L independent double
// chains advanced together, so their latencies overlap; lane l only ever
// adds plane l's elements, i ascending.
template <std::size_t L>
void sum_planes(const float* in, std::size_t plane, float* out) {
  double acc[L] = {};
  for (std::size_t i = 0; i < plane; ++i) {
    for (std::size_t l = 0; l < L; ++l) acc[l] += in[l * plane + i];
  }
  for (std::size_t l = 0; l < L; ++l) out[l] += static_cast<float>(acc[l]);
}

}  // namespace

void plane_sum(std::span<const float> in, std::size_t plane, std::span<float> out) {
  if (in.size() != out.size() * plane) {
    throw std::invalid_argument("plane_sum: in size " + std::to_string(in.size()) +
                                " != channels*plane " + std::to_string(out.size() * plane));
  }
  using SumPlanes = void (*)(const float*, std::size_t, float*);
  static constexpr SumPlanes kSumPlanes[] = {
      nullptr,        sum_planes<1>, sum_planes<2>, sum_planes<3>, sum_planes<4>,
      sum_planes<5>,  sum_planes<6>, sum_planes<7>, sum_planes<8>};
  for (std::size_t c = 0; c < out.size();) {
    const std::size_t lanes = std::min<std::size_t>(8, out.size() - c);
    kSumPlanes[lanes](in.data() + c * plane, plane, out.data() + c);
    c += lanes;
  }
}

Tensor add(const Tensor& a, const Tensor& b) {
  Tensor out;
  add_into(a, b, out);
  return out;
}

Tensor sub(const Tensor& a, const Tensor& b) {
  Tensor out;
  sub_into(a, b, out);
  return out;
}

void add_into(const Tensor& a, const Tensor& b, Tensor& out) {
  if (!a.same_shape(b)) {
    throw std::invalid_argument("add: shape mismatch " + shape_to_string(a.shape()) +
                                " vs " + shape_to_string(b.shape()));
  }
  if (!out.same_shape(a)) out = Tensor(a.shape());
  const float* pa = a.raw();
  const float* pb = b.raw();
  float* po = out.raw();
  const std::size_t n = a.numel();
  for (std::size_t i = 0; i < n; ++i) po[i] = pa[i] + pb[i];
}

void sub_into(const Tensor& a, const Tensor& b, Tensor& out) {
  if (!a.same_shape(b)) {
    throw std::invalid_argument("sub: shape mismatch " + shape_to_string(a.shape()) +
                                " vs " + shape_to_string(b.shape()));
  }
  if (!out.same_shape(a)) out = Tensor(a.shape());
  const float* pa = a.raw();
  const float* pb = b.raw();
  float* po = out.raw();
  const std::size_t n = a.numel();
  for (std::size_t i = 0; i < n; ++i) po[i] = pa[i] - pb[i];
}

void sub_inplace(Tensor& a, const Tensor& b) {
  if (!a.same_shape(b)) {
    throw std::invalid_argument("sub: shape mismatch " + shape_to_string(a.shape()) +
                                " vs " + shape_to_string(b.shape()));
  }
  float* pa = a.raw();
  const float* pb = b.raw();
  const std::size_t n = a.numel();
  for (std::size_t i = 0; i < n; ++i) pa[i] -= pb[i];
}

void add_scaled(Tensor& a, float alpha, const Tensor& b) {
  if (!a.same_shape(b)) {
    throw std::invalid_argument("add_scaled: shape mismatch " +
                                shape_to_string(a.shape()) + " vs " +
                                shape_to_string(b.shape()));
  }
  axpy(alpha, b.data(), a.data());
}

namespace {

void require_matrix(const Tensor& t, const char* name) {
  if (t.ndim() != 2) {
    throw std::invalid_argument(std::string("gemm: ") + name + " must be 2-D, got " +
                                shape_to_string(t.shape()));
  }
}

// ---- Packed GEMM driver -------------------------------------------------
//
// One cache-blocked, panel-packed core serves all three variants
// (plain / B-transposed / A-transposed): transposition is absorbed by the
// packing routines, so gemm_nt and gemm_tn run the exact same microkernel
// as plain gemm instead of their own strided loops. Blocking: an Mc x Kc
// block of op(A) and a Kc x Nc block of op(B) are repacked into kMr- /
// kNr-wide zero-padded panels and swept by the register-tiled microkernel
// (portable fma chains or the AVX2 tier, chosen per call by the
// dispatcher).
//
// Association order: every C element is one fma chain over k ascending,
// carried through C memory between k-blocks. The chain is independent of
// the blocking constants, the packing and the microkernel tier, which is
// what keeps output bit-identical across FEDCA_SIMD tiers and worker
// counts. Every shape takes this path, however small.
constexpr std::size_t kMc = 96;   // rows of op(A) per packed block
constexpr std::size_t kKc = 256;  // shared-k slice per packed block
constexpr std::size_t kNc = 512;  // columns of op(B) per packed block

static_assert(kMc % simd::kMr == 0, "A block must hold whole row panels");
static_assert(kNc % simd::kNr == 0, "B block must hold whole column panels");

constexpr std::size_t round_up(std::size_t x, std::size_t to) {
  return (x + to - 1) / to * to;
}

// Packs rows [i0, i0+mb) x k [k0, k0+kb) of op(A) into kMr-wide row
// panels, layout ap[panel][kk * kMr + r], rows past mb zero-padded. The
// transpose branch is hoisted so every inner loop walks one operand
// contiguously.
void pack_a(const float* a, std::size_t as, bool a_trans, std::size_t i0,
            std::size_t mb, std::size_t k0, std::size_t kb, float* ap) {
  for (std::size_t ir = 0; ir < mb; ir += simd::kMr) {
    float* dst = ap + (ir / simd::kMr) * kb * simd::kMr;
    const std::size_t rows = std::min(simd::kMr, mb - ir);
    if (rows < simd::kMr) std::fill(dst, dst + kb * simd::kMr, 0.0f);
    if (a_trans) {
      // op(A)[i, kk] = a[kk * as + i]: a panel row is contiguous in a.
      const float* src = a + (k0)*as + i0 + ir;
      for (std::size_t kk = 0; kk < kb; ++kk, src += as) {
        float* drow = dst + kk * simd::kMr;
        for (std::size_t r = 0; r < rows; ++r) drow[r] = src[r];
      }
    } else {
      // Contiguous reads along each A row, strided writes into the panel.
      for (std::size_t r = 0; r < rows; ++r) {
        const float* src = a + (i0 + ir + r) * as + k0;
        for (std::size_t kk = 0; kk < kb; ++kk) {
          dst[kk * simd::kMr + r] = src[kk];
        }
      }
    }
  }
}

// Packs k [k0, k0+kb) x columns [j0, j0+nb) of op(B) into kNr-wide column
// panels, layout bp[panel][kk * kNr + j], columns past nb zero-padded.
void pack_b(const float* b, std::size_t bs, bool b_trans, std::size_t k0,
            std::size_t kb, std::size_t j0, std::size_t nb, float* bp) {
  for (std::size_t jr = 0; jr < nb; jr += simd::kNr) {
    float* dst = bp + (jr / simd::kNr) * kb * simd::kNr;
    const std::size_t cols = std::min(simd::kNr, nb - jr);
    if (cols < simd::kNr) std::fill(dst, dst + kb * simd::kNr, 0.0f);
    if (b_trans) {
      // op(B)[kk, j] = b[j * bs + kk]: contiguous reads along each B row,
      // strided writes into the panel.
      for (std::size_t j = 0; j < cols; ++j) {
        const float* src = b + (j0 + jr + j) * bs + k0;
        for (std::size_t kk = 0; kk < kb; ++kk) {
          dst[kk * simd::kNr + j] = src[kk];
        }
      }
    } else {
      // A panel row is a contiguous slice of a B row.
      const float* src = b + k0 * bs + j0 + jr;
      for (std::size_t kk = 0; kk < kb; ++kk, src += bs) {
        float* drow = dst + kk * simd::kNr;
        for (std::size_t j = 0; j < cols; ++j) drow[j] = src[j];
      }
    }
  }
}

// Per-thread packing scratch, held for the thread's lifetime and grown only
// to the largest panels that thread has packed so far: a per-call
// allocation zero-initializes the panels, which costs more than the
// microkernel work at hot sizes, while a grow-only buffer reaches zero
// steady-state heap traffic.
struct GemmScratch {
  std::vector<float> ap;
  std::vector<float> bp;

  void grow(std::size_t a_floats, std::size_t b_floats) {
    if (ap.size() < a_floats) ap.resize(a_floats);
    if (bp.size() < b_floats) bp.resize(b_floats);
  }
};

// Offset of the (jc, kc) block inside a whole op(B) packed block by block
// (jc outer, kc inner), as PackedB holds it: the column blocks before jc
// hold jc * K floats, and the k blocks before kc in this column block
// kc * (nb rounded up to whole panels).
std::size_t packed_block_offset(std::size_t K, std::size_t jc, std::size_t kc,
                                std::size_t nb) {
  return jc * K + kc * round_up(nb, simd::kNr);
}

// Offset of the (kc, ic) block inside a whole op(A) packed block by block
// (kc outer, ic inner), as PackedA holds it: the k blocks before kc hold
// kc * (M rounded up to whole panels) floats, and the row blocks before ic
// in this k block ic * kb.
std::size_t packed_a_block_offset(std::size_t M, std::size_t kc, std::size_t ic,
                                  std::size_t kb) {
  return kc * round_up(M, simd::kMr) + ic * kb;
}

// C(MxN) = op(A)(MxK) * op(B)(KxN) through the packed blocking; C is
// overwritten. The calling thread packs its own A panels unless `a_panels`
// holds op(A) already packed (see PackedA), and its own B panels unless
// `b_panels` holds op(B) already packed (see PackedB).
void gemm_any(std::size_t M, std::size_t K, std::size_t N, const float* a,
              std::size_t as, bool a_trans, const float* b, std::size_t bs,
              bool b_trans, float* c, const float* b_panels = nullptr,
              const float* a_panels = nullptr) {
  if (K == 0) {
    std::fill(c, c + M * N, 0.0f);
    return;
  }
#if defined(__x86_64__) || defined(_M_X64)
  const simd::Tier tier = simd::active_tier();
  const simd::MicroKernel kernel =
      tier == simd::Tier::kAvx512 ? simd::gemm_microkernel_avx512
      : tier == simd::Tier::kAvx2 ? simd::gemm_microkernel_avx2
                                  : simd::microkernel_generic;
#else
  const simd::MicroKernel kernel = simd::microkernel_generic;
#endif
  thread_local GemmScratch scratch;
  const std::size_t kb_max = std::min(kKc, K);
  scratch.grow(a_panels != nullptr ? 0 : round_up(std::min(kMc, M), simd::kMr) * kb_max,
               b_panels != nullptr ? 0 : kb_max * round_up(std::min(kNc, N), simd::kNr));
  float* const a_scratch = scratch.ap.data();
  float* const b_scratch = scratch.bp.data();
  for (std::size_t jc = 0; jc < N; jc += kNc) {
    const std::size_t nb = std::min(kNc, N - jc);
    for (std::size_t kc = 0; kc < K; kc += kKc) {
      const std::size_t kb = std::min(kKc, K - kc);
      const bool first = kc == 0;
      const float* bp = b_scratch;
      if (b_panels != nullptr) {
        bp = b_panels + packed_block_offset(K, jc, kc, nb);
      } else {
        pack_b(b, bs, b_trans, kc, kb, jc, nb, b_scratch);
      }
      for (std::size_t ic = 0; ic < M; ic += kMc) {
        const std::size_t mb = std::min(kMc, M - ic);
        const float* ap = a_scratch;
        if (a_panels != nullptr) {
          ap = a_panels + packed_a_block_offset(M, kc, ic, kb);
        } else {
          pack_a(a, as, a_trans, ic, mb, kc, kb, a_scratch);
        }
        for (std::size_t ir = 0; ir < mb; ir += simd::kMr) {
          const std::size_t mr_eff = std::min(simd::kMr, mb - ir);
          const float* apanel = ap + (ir / simd::kMr) * kb * simd::kMr;
          for (std::size_t jr = 0; jr < nb; jr += simd::kNr) {
            const std::size_t nr_eff = std::min(simd::kNr, nb - jr);
            kernel(kb, apanel, bp + (jr / simd::kNr) * kb * simd::kNr,
                   c + (ic + ir) * N + jc + jr, N, mr_eff, nr_eff, first);
          }
        }
      }
    }
  }
}

}  // namespace

void gemm(std::size_t m, std::size_t k, std::size_t n, const float* a,
          const float* b, float* c) {
  gemm_any(m, k, n, a, /*as=*/k, /*a_trans=*/false, b, /*bs=*/n,
           /*b_trans=*/false, c);
}

void gemm(const Tensor& a, const Tensor& b, Tensor& c) {
  require_matrix(a, "A");
  require_matrix(b, "B");
  require_matrix(c, "C");
  const std::size_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
  if (b.dim(0) != k || c.dim(0) != m || c.dim(1) != n) {
    throw std::invalid_argument("gemm: incompatible shapes A" + shape_to_string(a.shape()) +
                                " B" + shape_to_string(b.shape()) + " C" +
                                shape_to_string(c.shape()));
  }
  gemm(m, k, n, a.raw(), b.raw(), c.raw());
}

void gemm_nt(std::size_t m, std::size_t k, std::size_t n, const float* a,
             const float* b, float* c) {
  // B is stored n x k; packing reads it transposed.
  gemm_any(m, k, n, a, /*as=*/k, /*a_trans=*/false, b, /*bs=*/k,
           /*b_trans=*/true, c);
}

void gemm_nt(const Tensor& a, const Tensor& b, Tensor& c) {
  require_matrix(a, "A");
  require_matrix(b, "B");
  require_matrix(c, "C");
  const std::size_t m = a.dim(0), k = a.dim(1), n = b.dim(0);
  if (b.dim(1) != k || c.dim(0) != m || c.dim(1) != n) {
    throw std::invalid_argument("gemm_nt: incompatible shapes A" +
                                shape_to_string(a.shape()) + " B" +
                                shape_to_string(b.shape()) + " C" +
                                shape_to_string(c.shape()));
  }
  gemm_nt(m, k, n, a.raw(), b.raw(), c.raw());
}

void gemm_tn(std::size_t m, std::size_t k, std::size_t n, const float* a,
             const float* b, float* c) {
  // C is k x n and the reduction runs over m: A (stored m x k) is read
  // transposed.
  gemm_any(/*M=*/k, /*K=*/m, /*N=*/n, a, /*as=*/k, /*a_trans=*/true, b,
           /*bs=*/n, /*b_trans=*/false, c);
}

void gemm_tn(const Tensor& a, const Tensor& b, Tensor& c) {
  require_matrix(a, "A");
  require_matrix(b, "B");
  require_matrix(c, "C");
  const std::size_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
  if (b.dim(0) != m || c.dim(0) != k || c.dim(1) != n) {
    throw std::invalid_argument("gemm_tn: incompatible shapes A" +
                                shape_to_string(a.shape()) + " B" +
                                shape_to_string(b.shape()) + " C" +
                                shape_to_string(c.shape()));
  }
  gemm_tn(m, k, n, a.raw(), b.raw(), c.raw());
}

// ---- Int8 affine quantization ------------------------------------------

QuantParams compute_quant_params(std::span<const float> x) {
  float mn = 0.0f;
  float mx = 0.0f;
#if defined(__x86_64__) || defined(_M_X64)
  if (use_avx2()) {
    simd::minmax_avx2(x.data(), x.size(), &mn, &mx);
  } else
#endif
  {
    if (!x.empty()) {
      mn = x[0];
      mx = x[0];
      for (std::size_t i = 1; i < x.size(); ++i) {
        mn = std::min(mn, x[i]);
        mx = std::max(mx, x[i]);
      }
    }
  }
  // Force zero into the representable range so a quantized update can
  // express "no change" exactly — the error-feedback path depends on
  // residuals not being injected into untouched coordinates.
  const float lo = std::min(mn, 0.0f);
  const float hi = std::max(mx, 0.0f);
  QuantParams p;
  p.scale = (hi - lo) / 255.0f;
  if (!(p.scale > 0.0f)) {
    // All-zero (or degenerate) input: any scale represents it; pick 1.
    p.scale = 1.0f;
  }
  const auto zp = static_cast<std::int32_t>(std::lrintf(-128.0f - lo / p.scale));
  p.zero_point = std::clamp(zp, -128, 127);
  return p;
}

void fake_quantize_int8(std::span<float> x, const QuantParams& p) {
  const float inv_scale = 1.0f / p.scale;
#if defined(__x86_64__) || defined(_M_X64)
  if (use_avx2()) {
    simd::fake_quantize_int8_avx2(x.data(), x.size(), inv_scale, p.scale,
                                  p.zero_point);
    return;
  }
#endif
  for (std::size_t i = 0; i < x.size(); ++i) {
    const auto r = static_cast<std::int32_t>(std::lrintf(x[i] * inv_scale)) +
                   p.zero_point;
    const std::int32_t qi = std::clamp(r, -128, 127);
    x[i] = p.scale * static_cast<float>(qi - p.zero_point);
  }
}

// ---- Naive reference kernels (retained pre-optimization code) ----------

namespace ref {

void gemm(const Tensor& a, const Tensor& b, Tensor& c) {
  require_matrix(a, "A");
  require_matrix(b, "B");
  require_matrix(c, "C");
  const std::size_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
  if (b.dim(0) != k || c.dim(0) != m || c.dim(1) != n) {
    throw std::invalid_argument("ref::gemm: incompatible shapes");
  }
  const float* pa = a.raw();
  const float* pb = b.raw();
  float* pc = c.raw();
  for (std::size_t i = 0; i < m; ++i) {
    float* crow = pc + i * n;
    std::fill(crow, crow + n, 0.0f);
    for (std::size_t kk = 0; kk < k; ++kk) {
      const float aval = pa[i * k + kk];
      const float* brow = pb + kk * n;
      for (std::size_t j = 0; j < n; ++j) crow[j] += aval * brow[j];
    }
  }
}

void gemm_nt(const Tensor& a, const Tensor& b, Tensor& c) {
  require_matrix(a, "A");
  require_matrix(b, "B");
  require_matrix(c, "C");
  const std::size_t m = a.dim(0), k = a.dim(1), n = b.dim(0);
  if (b.dim(1) != k || c.dim(0) != m || c.dim(1) != n) {
    throw std::invalid_argument("ref::gemm_nt: incompatible shapes");
  }
  const float* pa = a.raw();
  const float* pb = b.raw();
  float* pc = c.raw();
  for (std::size_t i = 0; i < m; ++i) {
    const float* arow = pa + i * k;
    float* crow = pc + i * n;
    for (std::size_t j = 0; j < n; ++j) {
      const float* brow = pb + j * k;
      double acc = 0.0;
      for (std::size_t kk = 0; kk < k; ++kk) {
        acc += static_cast<double>(arow[kk]) * static_cast<double>(brow[kk]);
      }
      crow[j] = static_cast<float>(acc);
    }
  }
}

void gemm_tn(const Tensor& a, const Tensor& b, Tensor& c) {
  require_matrix(a, "A");
  require_matrix(b, "B");
  require_matrix(c, "C");
  const std::size_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
  if (b.dim(0) != m || c.dim(0) != k || c.dim(1) != n) {
    throw std::invalid_argument("ref::gemm_tn: incompatible shapes");
  }
  const float* pa = a.raw();
  const float* pb = b.raw();
  float* pc = c.raw();
  std::fill(pc, pc + k * n, 0.0f);
  for (std::size_t i = 0; i < m; ++i) {
    const float* arow = pa + i * k;
    const float* brow = pb + i * n;
    for (std::size_t kk = 0; kk < k; ++kk) {
      const float aval = arow[kk];
      float* crow = pc + kk * n;
      for (std::size_t j = 0; j < n; ++j) crow[j] += aval * brow[j];
    }
  }
}

}  // namespace ref

namespace {

// Per-thread zero-bordered copy of one image, [C, H+2p, W+2p]: reading
// (or accumulating into) it instead of the image turns every lowering's
// copy and col2im's add into branch-free (strided) row moves. Held
// for the thread's lifetime and grown only, for the GemmScratch reasons
// above; the whole used prefix is re-zeroed per call, so a larger earlier
// geometry leaves nothing behind.
float* padded_image(const Conv2dGeometry& geo) {
  thread_local std::vector<float> buf;
  const std::size_t floats = geo.in_channels * (geo.in_h + 2 * geo.pad) *
                             (geo.in_w + 2 * geo.pad);
  if (buf.size() < floats) buf.resize(floats);
  std::fill(buf.begin(), buf.begin() + static_cast<std::ptrdiff_t>(floats), 0.0f);
  return buf.data();
}

// dst[0, n) = src[0, n). A row of 8+ floats moves as 8-float blocks, the
// last one overlapping its predecessor, so a short image row costs a few
// vector moves instead of a library call.
inline void copy_row(const float* src, std::size_t n, float* dst) {
  if (n < 8) {
    for (std::size_t x = 0; x < n; ++x) dst[x] = src[x];
    return;
  }
  for (std::size_t x = 0; x + 8 < n; x += 8) std::memcpy(dst + x, src + x, 8 * sizeof(float));
  std::memcpy(dst + n - 8, src + n - 8, 8 * sizeof(float));
}

// Copies the [C, H, W] image into the interior of the padded
// [C, H+2p, W+2p] buffer, or (unpad) that interior back out to the image.
void copy_interior(const Conv2dGeometry& geo, const float* from, float* to, bool unpad) {
  const std::size_t hp = geo.in_h + 2 * geo.pad, wp = geo.in_w + 2 * geo.pad;
  for (std::size_t c = 0; c < geo.in_channels; ++c) {
    for (std::size_t y = 0; y < geo.in_h; ++y) {
      const std::size_t image_off = (c * geo.in_h + y) * geo.in_w;
      const std::size_t padded_off = (c * hp + y + geo.pad) * wp + geo.pad;
      const float* src = from + (unpad ? padded_off : image_off);
      copy_row(src, geo.in_w, to + (unpad ? image_off : padded_off));
    }
  }
}

// dst[0, n) += src[0, n) as disjoint 8-float blocks plus a scalar tail:
// every element is added exactly once.
inline void add_row(const float* src, std::size_t n, float* dst) {
  std::size_t x = 0;
  for (; x + 8 <= n; x += 8) {
    float acc[8], add[8];
    std::memcpy(acc, dst + x, sizeof acc);
    std::memcpy(add, src + x, sizeof add);
    for (std::size_t j = 0; j < 8; ++j) acc[j] += add[j];
    std::memcpy(dst + x, acc, sizeof acc);
  }
  for (; x < n; ++x) dst[x] += src[x];
}

void check_image_size(const char* who, std::size_t image_size, const Conv2dGeometry& geo) {
  const std::size_t expected_image = geo.in_channels * geo.in_h * geo.in_w;
  if (image_size != expected_image) {
    throw std::invalid_argument(std::string(who) + ": image size " +
                                std::to_string(image_size) + " != expected " +
                                std::to_string(expected_image));
  }
}

void check_lowering_sizes(const char* who, std::size_t image_size, std::size_t columns_size,
                          const Conv2dGeometry& geo) {
  check_image_size(who, image_size, geo);
  const std::size_t expected_cols =
      geo.in_channels * geo.kernel_h * geo.kernel_w * geo.out_h() * geo.out_w();
  if (columns_size != expected_cols) {
    throw std::invalid_argument(std::string(who) + ": columns size " +
                                std::to_string(columns_size) + " != expected " +
                                std::to_string(expected_cols));
  }
}

// What a lowering reads: the image itself, or (pad != 0) its zero-bordered
// per-thread copy.
const float* lowering_source(std::span<const float> image, const Conv2dGeometry& geo) {
  if (geo.pad == 0) return image.data();
  float* padded = padded_image(geo);
  copy_interior(geo, image.data(), padded, /*unpad=*/false);
  return padded;
}

// off[i] = where column-matrix row first + i = (c, kh, kw) starts reading
// in the (padded) [C, hp, wp] image: the top-left of its window at output
// position 0. Counters, not divisions, step through the rows.
void row_offsets(const Conv2dGeometry& geo, std::size_t hp, std::size_t wp,
                 std::size_t first, std::size_t count, std::size_t* off) {
  const std::size_t taps = geo.kernel_h * geo.kernel_w;
  std::size_t c = first / taps, kh = first % taps / geo.kernel_w, kw = first % geo.kernel_w;
  for (std::size_t i = 0; i < count; ++i) {
    off[i] = (c * hp + kh) * wp + kw;
    if (++kw == geo.kernel_w) {
      kw = 0;
      if (++kh == geo.kernel_h) {
        kh = 0;
        ++c;
      }
    }
  }
}

// off[i] = how far output position first + i = (y, x) moves every
// window's read from position 0's.
void position_offsets(const Conv2dGeometry& geo, std::size_t wp, std::size_t first,
                      std::size_t count, std::size_t* off) {
  const std::size_t ow = geo.out_w();
  std::size_t y = first / ow, x = first % ow;
  for (std::size_t i = 0; i < count; ++i) {
    off[i] = (y * wp + x) * geo.stride;
    if (++x == ow) {
      x = 0;
      ++y;
    }
  }
}

}  // namespace

void PackedA::pack(std::size_t m, std::size_t k, const float* a, bool a_trans) {
  m_ = m;
  k_ = k;
  // Every row block is whole panels tall except possibly the last, so the
  // total is (M rounded up to whole panels) * K.
  size_ = round_up(m, simd::kMr) * k;
  if (panels_.size() < size_) panels_.resize(size_);
  const std::size_t as = a_trans ? m : k;
  for (std::size_t kc = 0; kc < k; kc += kKc) {
    const std::size_t kb = std::min(kKc, k - kc);
    for (std::size_t ic = 0; ic < m; ic += kMc) {
      pack_a(a, as, a_trans, ic, std::min(kMc, m - ic), kc, kb,
             panels_.data() + packed_a_block_offset(m, kc, ic, kb));
    }
  }
}

float* PackedB::reshape(std::size_t k, std::size_t n) {
  k_ = k;
  n_ = n;
  // Every column block is whole panels wide except possibly the last, so
  // the total is K * (N rounded up to whole panels).
  size_ = k * round_up(n, simd::kNr);
  if (panels_.size() < size_) panels_.resize(size_);
  return panels_.data();
}

void PackedB::reserve_conv(const Conv2dGeometry& geo) {
  const std::size_t rows = geo.in_channels * geo.kernel_h * geo.kernel_w;
  const std::size_t positions = geo.out_h() * geo.out_w();
  const std::size_t floats = std::max(rows * round_up(positions, simd::kNr),
                                      positions * round_up(rows, simd::kNr));
  if (panels_.size() < floats) panels_.resize(floats);
}

void PackedB::pack(std::size_t k, std::size_t n, const float* b, bool b_trans) {
  float* panels = reshape(k, n);
  const std::size_t bs = b_trans ? k : n;
  for (std::size_t jc = 0; jc < n; jc += kNc) {
    const std::size_t nb = std::min(kNc, n - jc);
    for (std::size_t kc = 0; kc < k; kc += kKc) {
      pack_b(b, bs, b_trans, kc, std::min(kKc, k - kc), jc, nb,
             panels + packed_block_offset(k, jc, kc, nb));
    }
  }
}

// The conv packers below write exactly pack_b's panels for the column
// matrix (ref::im2col) or its transpose, reading each value from the image
// instead: block by block, then panel by panel. A panel is described as
// runs — stretches of its columns whose values lie evenly spaced in the
// image, at the same place relative to each panel row's base — and written
// whole rows at a time by the active tier's panel packer, padding columns
// included. Strided runs always take the portable packer.

using PanelPacker = void (*)(const float*, const std::size_t*, std::size_t,
                             const simd::PanelRun*, std::size_t, std::size_t, float*);

PanelPacker panel_packer(std::size_t stride) {
#if defined(__x86_64__) || defined(_M_X64)
  if (stride == 1 && simd::active_tier() == simd::Tier::kAvx512) {
    return [](const float* in, const std::size_t* step, std::size_t kb,
              const simd::PanelRun* runs, std::size_t nruns, std::size_t, float* dst) {
      simd::pack_panel_runs_avx512(in, step, kb, runs, nruns, dst);
    };
  }
#endif
  return simd::pack_panel_runs_generic;
}

void PackedB::pack_conv(std::span<const float> image, const Conv2dGeometry& geo) {
  check_image_size("PackedB::pack_conv", image.size(), geo);
  const std::size_t K = geo.in_channels * geo.kernel_h * geo.kernel_w;
  const std::size_t N = geo.out_h() * geo.out_w();
  const std::size_t ow = geo.out_w(), s = geo.stride;
  const std::size_t hp = geo.in_h + 2 * geo.pad, wp = geo.in_w + 2 * geo.pad;
  float* panels = reshape(K, N);
  const float* src = lowering_source(image, geo);
  const PanelPacker pack_panel = panel_packer(s);
  std::size_t roff[kKc];
  simd::PanelRun runs[simd::kNr];
  for (std::size_t jc = 0; jc < N; jc += kNc) {
    const std::size_t nb = std::min(kNc, N - jc);
    for (std::size_t kc = 0; kc < K; kc += kKc) {
      const std::size_t kb = std::min(kKc, K - kc);
      row_offsets(geo, hp, wp, kc, kb, roff);
      float* block = panels + packed_block_offset(K, jc, kc, nb);
      for (std::size_t jr = 0; jr < nb; jr += simd::kNr) {
        // Panel columns are output positions; a run is one output row's
        // share of them, `stride` apart in the image.
        std::size_t nruns = 0;
        for (std::size_t p = jc + jr, end = p + std::min(simd::kNr, nb - jr); p < end;) {
          const std::size_t len = std::min(end - p, ow - p % ow);
          runs[nruns++] = {(p / ow * wp + p % ow) * s, static_cast<std::uint32_t>(p - jc - jr),
                           static_cast<std::uint32_t>(len)};
          p += len;
        }
        pack_panel(src, roff, kb, runs, nruns, s, block + (jr / simd::kNr) * kb * simd::kNr);
      }
    }
  }
}

void PackedB::pack_conv_t(std::span<const float> image, const Conv2dGeometry& geo) {
  check_image_size("PackedB::pack_conv_t", image.size(), geo);
  const std::size_t K = geo.out_h() * geo.out_w();
  const std::size_t N = geo.in_channels * geo.kernel_h * geo.kernel_w;
  const std::size_t hp = geo.in_h + 2 * geo.pad, wp = geo.in_w + 2 * geo.pad;
  float* panels = reshape(K, N);
  const float* src = lowering_source(image, geo);
  const PanelPacker pack_panel = panel_packer(1);
  std::size_t roff[kNc], poff[kKc];
  simd::PanelRun runs[simd::kNr];
  for (std::size_t jc = 0; jc < N; jc += kNc) {
    const std::size_t nb = std::min(kNc, N - jc);
    row_offsets(geo, hp, wp, jc, nb, roff);
    for (std::size_t kc = 0; kc < K; kc += kKc) {
      const std::size_t kb = std::min(kKc, K - kc);
      position_offsets(geo, wp, kc, kb, poff);
      float* block = panels + packed_block_offset(K, jc, kc, nb);
      for (std::size_t jr = 0; jr < nb; jr += simd::kNr) {
        // Panel columns are column-matrix rows (c, kh, kw); a run is one
        // (c, kh)'s consecutive kw taps, adjacent in the image whatever
        // the conv stride.
        std::size_t nruns = 0;
        for (std::size_t r = jc + jr, end = r + std::min(simd::kNr, nb - jr); r < end;) {
          const std::size_t len = std::min(end - r, geo.kernel_w - r % geo.kernel_w);
          runs[nruns++] = {roff[r - jc], static_cast<std::uint32_t>(r - jc - jr),
                           static_cast<std::uint32_t>(len)};
          r += len;
        }
        pack_panel(src, poff, kb, runs, nruns, 1, block + (jr / simd::kNr) * kb * simd::kNr);
      }
    }
  }
}

void gemm_packed(std::size_t m, const float* a, const PackedB& b, float* c) {
  gemm_any(m, b.k(), b.n(), a, /*as=*/b.k(), /*a_trans=*/false, /*b=*/nullptr,
           /*bs=*/0, /*b_trans=*/false, c, b.panels().data());
}

void gemm_packed(const Tensor& a, const PackedB& b, Tensor& c) {
  require_matrix(a, "A");
  require_matrix(c, "C");
  const std::size_t m = a.dim(0);
  if (a.dim(1) != b.k() || c.dim(0) != m || c.dim(1) != b.n()) {
    throw std::invalid_argument("gemm_packed: incompatible shapes A" +
                                shape_to_string(a.shape()) + " op(B) [" +
                                std::to_string(b.k()) + ", " + std::to_string(b.n()) +
                                "] C" + shape_to_string(c.shape()));
  }
  gemm_packed(m, a.raw(), b, c.raw());
}


void gemm_packed(const PackedA& a, const PackedB& b, float* c) {
  if (a.k() != b.k()) {
    throw std::invalid_argument("gemm_packed: op(A) [" + std::to_string(a.m()) + ", " +
                                std::to_string(a.k()) + "] and op(B) [" +
                                std::to_string(b.k()) + ", " + std::to_string(b.n()) +
                                "] do not chain");
  }
  gemm_any(a.m(), a.k(), b.n(), /*a=*/nullptr, /*as=*/0, /*a_trans=*/false, /*b=*/nullptr,
           /*bs=*/0, /*b_trans=*/false, c, b.panels().data(), a.panels().data());
}

void gemm_packed(const PackedA& a, std::size_t n, const float* b, float* c) {
  gemm_any(a.m(), a.k(), n, /*a=*/nullptr, /*as=*/0, /*a_trans=*/false, b, /*bs=*/n,
           /*b_trans=*/false, c, /*b_panels=*/nullptr, a.panels().data());
}

namespace ref {

void im2col(std::span<const float> image, const Conv2dGeometry& geo,
            std::span<float> columns) {
  check_lowering_sizes("im2col", image.size(), columns.size(), geo);
  const std::size_t oh = geo.out_h(), ow = geo.out_w(), s = geo.stride;
  const std::size_t hp = geo.in_h + 2 * geo.pad, wp = geo.in_w + 2 * geo.pad;
  const float* src = lowering_source(image, geo);
  float* dst = columns.data();
  for (std::size_t c = 0; c < geo.in_channels; ++c) {
    for (std::size_t kh = 0; kh < geo.kernel_h; ++kh) {
      for (std::size_t kw = 0; kw < geo.kernel_w; ++kw) {
        for (std::size_t y = 0; y < oh; ++y, dst += ow) {
          const float* in = src + (c * hp + y * s + kh) * wp + kw;
          for (std::size_t x = 0; x < ow; ++x) dst[x] = in[x * s];
        }
      }
    }
  }
}

}  // namespace ref

void col2im(std::span<const float> columns, const Conv2dGeometry& geo,
            std::span<float> image_grad) {
  check_lowering_sizes("col2im", image_grad.size(), columns.size(), geo);
  const std::size_t oh = geo.out_h(), ow = geo.out_w(), s = geo.stride;
  const std::size_t hp = geo.in_h + 2 * geo.pad, wp = geo.in_w + 2 * geo.pad;
  // The padded copy starts from image_grad's prior accumulation, so each
  // pixel still sums its contributions in column-row order.
  float* acc = image_grad.data();
  if (geo.pad != 0) {
    acc = padded_image(geo);
    copy_interior(geo, image_grad.data(), acc, /*unpad=*/false);
  }
  const float* in = columns.data();
  for (std::size_t c = 0; c < geo.in_channels; ++c) {
    for (std::size_t kh = 0; kh < geo.kernel_h; ++kh) {
      for (std::size_t kw = 0; kw < geo.kernel_w; ++kw) {
        for (std::size_t y = 0; y < oh; ++y, in += ow) {
          float* out = acc + (c * hp + y * s + kh) * wp + kw;
          if (s == 1) {
            add_row(in, ow, out);
          } else {
            for (std::size_t x = 0; x < ow; ++x) out[x * s] += in[x];
          }
        }
      }
    }
  }
  if (geo.pad != 0) copy_interior(geo, acc, image_grad.data(), /*unpad=*/true);
}

}  // namespace fedca::tensor
