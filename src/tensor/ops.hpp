// Numerical kernels over raw float spans and Tensors.
//
// Two audiences share these kernels:
//   * the nn/ substrate (gemm, conv lowering, elementwise math), and
//   * the FedCA core (dot products, norms, cosine similarity — Eqs. 1 & 6
//     of the paper are built directly from `dot`, `l2_norm`, and
//     `cosine_similarity`).
// All span-based functions require equal lengths and are checked.
//
// Accumulation policy (uniform across the optimized kernels, and across
// every FEDCA_SIMD dispatch tier — see tensor/simd/dispatch.hpp). Most
// kernels are one portable loop, compiled for the build host's vector ISA;
// GEMM, dot, tanh and the int8 pair also have hand-written vector code
// (tensor/simd/kernels.hpp), which the vector tiers run instead:
//   * All three GEMM variants accumulate in float. Each output element is
//     one sequential fused-multiply-add chain over k ascending, seeded at
//     0 (std::fma in portable code, vfmadd in the vector tiers). A chain may
//     round-trip through C memory between k-blocks — float stores are
//     value-preserving — so the association is independent of blocking
//     constants, panel packing and vector lane width. Each call runs on
//     the calling thread. Results are bit-reproducible run to run, across
//     worker counts, and across dispatch tiers.
//   * `axpy` is a per-element fused multiply-add: y = fma(alpha, x, y).
//   * Span reductions that feed virtual-time and FedCA-metric decisions
//     (`dot`, `l2_norm`) accumulate in double over eight fixed
//     lanes (element i feeds lane i mod 8) with a fixed halving-tree
//     combine and a scalar tail appended last; lane products are separate
//     multiply + add, never fused. Again bit-reproducible across tiers.
//   * `tanh` is an in-tree replica of glibc 2.36's fdlibm tanhf
//     (tensor/simd/tanh.hpp: single-precision + - * / and bit operations,
//     no fma), run lane-wise by the vector tiers. The tanh tests prove it
//     equal to std::tanh on all 2^32 inputs, so every tier returns libm's
//     bits. exp stays libm's expf, called per element: glibc's expf is an
//     ifunc'd fma variant no replica has been proven equal to.
//   * `relu`, `relu_backward` and `max_pool2d` do no arithmetic: each
//     output is one of its inputs (or +0) picked by an exact select, so
//     their bits do not depend on the dispatch tier or the compile flags.
//     The conv packers (PackedB::pack_conv / pack_conv_t) only move
//     values, so every tier writes the same panels.
//   * `plane_sum` accumulates each channel plane in double, ascending from
//     0.0; channels' chains may run interleaved but are never reassociated.
//   * These kernel translation units are compiled with -ffp-contract=off:
//     fusion happens exactly where the contract says fma and nowhere
//     else, so the compiler cannot silently change the association.
// The naive kernels the optimized ones replaced are retained under
// tensor::ref for property tests and benches; ref::gemm_nt keeps its
// historical double accumulator.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "tensor/tensor.hpp"

namespace fedca::tensor {

// ---- Span kernels (the FL layer works on flat update vectors) ----

// y += alpha * x
void axpy(float alpha, std::span<const float> x, std::span<float> y);
// y = x (sizes must match)
void copy(std::span<const float> x, std::span<float> y);
// elementwise y *= alpha
void scale(float alpha, std::span<float> y);
// sum_i x[i] * y[i], accumulated in double for stability.
double dot(std::span<const float> x, std::span<const float> y);
// sqrt(dot(x, x))
double l2_norm(std::span<const float> x);
// Cosine similarity of two equal-length vectors; returns 0 when either has
// zero norm (the convention the FedCA retransmission check needs: an
// all-zero eager update never "matches" a non-zero final one).
double cosine_similarity(std::span<const float> x, std::span<const float> y);
// min(|x|,|y|) / max(|x|,|y|) with |.| = L2 norm; 1 when both are zero,
// 0 when exactly one is zero. This is the magnitude-similarity factor of
// the paper's statistical-progress metric (Eq. 1).
double magnitude_similarity(std::span<const float> x, std::span<const float> y);
// y[i] = tanh(x[i]) with the bits of glibc 2.36's tanhf (std::tanh on a
// glibc 2.36 host) for every input, in every dispatch tier. x and y may be
// the same span.
void tanh(std::span<const float> x, std::span<float> y);

// ---- Parameter-free layer kernels (exact selects) ----

// y[i] = x[i] > 0 ? x[i] : +0 — NaN and -0 give +0. x and y must not
// overlap.
void relu(std::span<const float> x, std::span<float> y);
// dx[i] = x[i] > 0 ? g[i] : +0, with x the ReLU's forward input. dx must
// not overlap x or g.
void relu_backward(std::span<const float> x, std::span<const float> g, std::span<float> dx);
// Max pooling with stride == window over `planes` row-major h x w planes
// (window must divide h and w): out holds planes x (h/window) x (w/window).
// Each window is scanned row-major from -inf and the first element
// strictly greater than the running best wins, so ties keep the first
// element and an all-NaN or all -inf window yields -inf. When argmax is
// non-null it receives, per output, the flat index into `in` of the
// winner (the window's first element when none wins); `in` may then hold
// at most UINT32_MAX elements. A null argmax computes no index.
void max_pool2d(std::span<const float> in, std::size_t planes, std::size_t h, std::size_t w,
                std::size_t window, std::span<float> out, std::uint32_t* argmax);

// ---- Fused dense-layer helpers ----

// out[r * bias.size() + j] += bias[j] for every row r in [0, rows).
// `out` must have exactly rows * bias.size() elements.
void bias_add(std::span<float> out, std::size_t rows, std::span<const float> bias);
// out[j] += sum_r in[r * out.size() + j] — the column sums of a row-major
// rows x out.size() matrix, *accumulated* into `out` (gradient convention:
// callers zero the destination via Module::zero_grad). Rows are consumed in
// ascending order, so the float association is fixed.
void row_sum(std::span<const float> in, std::size_t rows, std::span<float> out);

// ---- Per-plane convolution helpers ----
//
// One sample's conv activation is bias.size() (or out.size()) channel
// planes of `plane` floats each, row-major.

// out[c * plane + i] += bias[c]: a conv bias over one sample's output.
// `out` must have exactly bias.size() * plane elements.
void plane_bias_add(std::span<float> out, std::size_t plane, std::span<const float> bias);
// out[c] += float(sum_i in[c * plane + i]): each plane summed in double, i
// ascending from a 0.0 seed, then rounded and *accumulated* into `out` (a
// conv bias gradient). Up to eight channels' chains run interleaved; each
// keeps its own order and none is reassociated, so the bits are those of
// one serial loop per channel. `in` must have exactly out.size() * plane
// elements.
void plane_sum(std::span<const float> in, std::size_t plane, std::span<float> out);

// ---- Tensor helpers ----

// out = a + b (same shape)
Tensor add(const Tensor& a, const Tensor& b);
// out = a - b (same shape)
Tensor sub(const Tensor& a, const Tensor& b);
// a += alpha * b (same shape), in place.
void add_scaled(Tensor& a, float alpha, const Tensor& b);
// Into-destination variants: write a+b / a-b into `out`, reusing its
// storage when the shape already matches (no allocation in steady state).
// Identical element order and arithmetic to add()/sub().
void add_into(const Tensor& a, const Tensor& b, Tensor& out);
void sub_into(const Tensor& a, const Tensor& b, Tensor& out);
// a -= b (same shape), in place.
void sub_inplace(Tensor& a, const Tensor& b);

// ---- Int8 affine quantization ----
//
// Per-span asymmetric int8 quantization: x ~ scale * (q - zero_point),
// q in [-128, 127]. Parameters always make exact zero representable (the
// FedCA eager wire + error-feedback path depends on "no change" encoding
// losslessly). Rounding is nearest-even in every tier, so the quantized
// values are identical across FEDCA_SIMD dispatch tiers.

struct QuantParams {
  float scale = 1.0f;
  std::int32_t zero_point = 0;
};

// Min/max-derived parameters for `x` (zero forced into range; all-zero
// spans get scale 1).
QuantParams compute_quant_params(std::span<const float> x);
// In place, x[i] = scale * (q - zero_point) with
// q = clamp(round(x[i] / scale) + zero_point, -128, 127): what the receiver
// of an int8 transmission reconstructs. The simulator only counts the
// wire's bytes, so the int8 codes themselves are never stored.
void fake_quantize_int8(std::span<float> x, const QuantParams& p);

// ---- Convolution geometry ----

// Geometry of a 2-D convolution with square behaviour per-axis.
struct Conv2dGeometry {
  std::size_t in_channels = 0;
  std::size_t in_h = 0;
  std::size_t in_w = 0;
  std::size_t kernel_h = 0;
  std::size_t kernel_w = 0;
  std::size_t stride = 1;
  std::size_t pad = 0;

  std::size_t out_h() const { return (in_h + 2 * pad - kernel_h) / stride + 1; }
  std::size_t out_w() const { return (in_w + 2 * pad - kernel_w) / stride + 1; }
};

// ---- GEMM ----
//
// Cache-blocked (Mc/Kc/Nc), panel-packed, register-tiled kernels with the
// fixed association order described at the top of this header. All
// variants share one packed microkernel (transposition is absorbed during
// packing), dispatched per call to the portable or a vector tier. Either
// operand may come prepacked (PackedA, PackedB): the microkernel then reads
// the same panels, so the result is the same bits. Raw-pointer variants
// are exposed so layers that already know their geometry (per-sample
// slices) can avoid staging copies; the Tensor overloads validate shapes
// and forward to them.

// C(mxn) = A(mxk) * B(kxn); row-major, C overwritten.
void gemm(std::size_t m, std::size_t k, std::size_t n, const float* a,
          const float* b, float* c);
void gemm(const Tensor& a, const Tensor& b, Tensor& c);
// C(mxn) = A(mxk) * B(nxk)^T; row-major, C overwritten.
void gemm_nt(std::size_t m, std::size_t k, std::size_t n, const float* a,
             const float* b, float* c);
void gemm_nt(const Tensor& a, const Tensor& b, Tensor& c);
// C(kxn) = A(mxk)^T * B(mxn); row-major, C overwritten.
void gemm_tn(std::size_t m, std::size_t k, std::size_t n, const float* a,
             const float* b, float* c);
void gemm_tn(const Tensor& a, const Tensor& b, Tensor& c);

// op(A) of a GEMM, packed once into the row panels the microkernel reads,
// for an A operand many calls share (a convolution weight across the
// samples of a batch). The packed copy does not follow later writes to A;
// pack() again after them. Storage only grows.
class PackedA {
 public:
  // Packs op(A) (m x k): `a` is stored m x k, or k x m when a_trans (the A
  // of gemm_tn).
  void pack(std::size_t m, std::size_t k, const float* a, bool a_trans);
  std::size_t m() const { return m_; }
  std::size_t k() const { return k_; }
  // The packed op(A), k blocks outer and row blocks inner, kMr-row panels
  // with zero-padded tail rows.
  std::span<const float> panels() const { return {panels_.data(), size_}; }

 private:
  std::size_t m_ = 0;
  std::size_t k_ = 0;
  std::size_t size_ = 0;
  std::vector<float> panels_;
};

// op(B) of a GEMM, packed once into the column panels the microkernel
// reads, for a B operand many calls share (a recurrent weight across
// timesteps), or lowered straight from an image into those panels (a
// convolution's B, which is then never built as a column matrix). The
// packed copy does not follow later writes to its source; pack again after
// them. Storage only grows, so one PackedB per layer serves every sample.
class PackedB {
 public:
  // Packs op(B) (k x n): `b` is stored k x n, or n x k when b_trans (the B
  // of gemm_nt).
  void pack(std::size_t k, std::size_t n, const float* b, bool b_trans);
  // Packs op(B) = the im2col lowering of one [C, H, W] image,
  // (C*kh*kw) x (out_h*out_w), read from the image (through a zero-bordered
  // copy when pad != 0): the same panels pack() writes from
  // ref::im2col's column matrix. Throws when the image size does not match
  // the geometry.
  void pack_conv(std::span<const float> image, const Conv2dGeometry& geo);
  // Packs op(B) = the transpose of that lowering, (out_h*out_w) x
  // (C*kh*kw): the B of a convolution's weight gradient, the same panels
  // pack(..., b_trans=true) writes from the column matrix.
  void pack_conv_t(std::span<const float> image, const Conv2dGeometry& geo);
  // Grows the panel storage to hold both lowerings of `geo` (pack_conv's
  // and pack_conv_t's), so a layer that alternates them allocates once.
  void reserve_conv(const Conv2dGeometry& geo);
  std::size_t k() const { return k_; }
  std::size_t n() const { return n_; }
  // The packed op(B), column blocks outer and k blocks inner, kNr-column
  // panels with zero-padded tail columns.
  std::span<const float> panels() const { return {panels_.data(), size_}; }

 private:
  float* reshape(std::size_t k, std::size_t n);

  std::size_t k_ = 0;
  std::size_t n_ = 0;
  std::size_t size_ = 0;
  std::vector<float> panels_;
};

// C(mxn) = A(mxk) * op(B) with op(B) prepacked; C overwritten. Bit-identical
// to gemm / gemm_nt on the B that was packed: same panels, same chains.
void gemm_packed(std::size_t m, const float* a, const PackedB& b, float* c);
void gemm_packed(const Tensor& a, const PackedB& b, Tensor& c);
// C(mxn) = op(A) * op(B), both prepacked; throws when a.k() != b.k().
void gemm_packed(const PackedA& a, const PackedB& b, float* c);
// C(mxn) = op(A) * B with op(A) prepacked and B stored k x n (row-major).
// Bit-identical to gemm / gemm_tn on the A that was packed.
void gemm_packed(const PackedA& a, std::size_t n, const float* b, float* c);

// ---- Convolution lowering ----

// col2im: scatters gradients from column layout back to image layout
// (accumulating into `image_grad`, which must be pre-sized and may hold
// prior accumulation). Each pixel receives its contributions in column-row
// order, one per row, on top of its prior value. When pad != 0 it
// accumulates in a per-thread, grow-only zero-bordered copy of the image
// ([C, H+2p, W+2p]), so each column row is a branch-free (strided) add.
void col2im(std::span<const float> columns, const Conv2dGeometry& geo,
            std::span<float> image_grad);

// Naive reference kernels (the pre-optimization implementations), retained
// verbatim for property tests and before/after benches. ref::gemm_nt keeps
// the historical double accumulator.
namespace ref {
void gemm(const Tensor& a, const Tensor& b, Tensor& c);
void gemm_nt(const Tensor& a, const Tensor& b, Tensor& c);
void gemm_tn(const Tensor& a, const Tensor& b, Tensor& c);
// im2col: expands one image (C,H,W flattened in `image`) to its column
// matrix, (C*kh*kw) x (out_h*out_w), written into `columns` (row-major,
// must be pre-sized). Padding reads as zero. The oracle of
// PackedB::pack_conv / pack_conv_t, which lower into GEMM panels instead.
void im2col(std::span<const float> image, const Conv2dGeometry& geo,
            std::span<float> columns);
}  // namespace ref

}  // namespace fedca::tensor
