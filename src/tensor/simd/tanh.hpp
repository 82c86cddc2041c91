// Scalar replica of glibc 2.36's tanhf: the fdlibm code of
// sysdeps/ieee754/flt-32/s_tanhf.c with the part of s_expm1f.c that tanhf
// reaches. It is single-precision + - * / and bit manipulation only (no
// fma, no table), so compiled with -ffp-contract=off it rounds exactly as
// libm does; the tanh tests compare it with std::tanh on all 2^32 inputs.
// The scalar tier of tensor::tanh runs it, and the vector kernels use it
// for tails and non-finite lanes.
#pragma once

#include <bit>
#include <cstdint>

namespace fedca::tensor::simd {

namespace fdlibm {

inline std::uint32_t bits(float x) { return std::bit_cast<std::uint32_t>(x); }
inline float from_bits(std::uint32_t b) { return std::bit_cast<float>(b); }

inline constexpr float kLn2Hi = 6.9313812256e-01f;  // 0x3f317180
inline constexpr float kLn2Lo = 9.0580006145e-06f;  // 0x3717f7d1
inline constexpr float kInvLn2 = 1.4426950216e+00f;  // 0x3fb8aa3b
inline constexpr float kQ1 = -3.3333335072e-02f;  // 0xbd088889
inline constexpr float kQ2 = 1.5873016091e-03f;   // 0x3ad00d01
inline constexpr float kQ3 = -7.9365076090e-05f;  // 0xb8a670cd
inline constexpr float kQ4 = 4.0082177293e-06f;   // 0x36867e54
inline constexpr float kQ5 = -2.0109921195e-07f;  // 0xb457edbb

// Adds k to the binary exponent of y (SET_FLOAT_WORD(y, i + (k << 23))).
inline float add_exponent(float y, std::int32_t k) {
  return from_bits(bits(y) + (static_cast<std::uint32_t>(k) << 23));
}

// __expm1f restricted to the arguments __tanhf passes it: x = 2|v| for
// 1 <= |v| < 22 (x in [2, 44)) or x = -2|v| for 2^-55 <= |v| < 1 (x in
// (-2, -2^-54]). That rules out the overflow, non-finite, x < -27 ln2 and
// k == 1 branches; every branch left is copied statement for statement.
inline float expm1f(float x) {
  const std::uint32_t hx = bits(x) & 0x7fffffffu;
  const bool negative = (bits(x) & 0x80000000u) != 0;
  float c = 0.0f;
  std::int32_t k = 0;
  if (hx > 0x3eb17218u) {  // |x| > 0.5 ln2
    float hi, lo;
    if (hx < 0x3f851592u) {  // and |x| < 1.5 ln2
      if (!negative) {
        hi = x - kLn2Hi;
        lo = kLn2Lo;
        k = 1;
      } else {
        hi = x + kLn2Hi;
        lo = -kLn2Lo;
        k = -1;
      }
    } else {
      k = static_cast<std::int32_t>(kInvLn2 * x + (negative ? -0.5f : 0.5f));
      const float t = static_cast<float>(k);
      hi = x - t * kLn2Hi;  // t * ln2_hi is exact here
      lo = t * kLn2Lo;
    }
    x = hi - lo;
    c = (hi - x) - lo;
  } else if (hx < 0x33000000u) {  // |x| < 2^-25
    return x;
  }
  // x is now in the primary range.
  const float hfx = 0.5f * x;
  const float hxs = x * hfx;
  const float r1 = 1.0f + hxs * (kQ1 + hxs * (kQ2 + hxs * (kQ3 + hxs * (kQ4 + hxs * kQ5))));
  float t = 3.0f - r1 * hfx;
  float e = hxs * ((r1 - t) / (6.0f - x * t));
  if (k == 0) return x - (x * e - hxs);
  e = (x * (e - c) - c);
  e -= hxs;
  if (k == -1) return 0.5f * (x - e) - 0.5f;
  if (k <= -2 || k > 56) {  // exp(x) - 1 is exp(x) to float precision
    return add_exponent(1.0f - (e - x), k) - 1.0f;
  }
  if (k < 23) {
    t = from_bits(0x3f800000u - (0x1000000u >> k));  // 1 - 2^-k
    return add_exponent(t - (e - x), k);
  }
  t = from_bits(static_cast<std::uint32_t>(0x7f - k) << 23);  // 2^-k
  float y = x - (e + t);
  y += 1.0f;
  return add_exponent(y, k);
}

}  // namespace fdlibm

// tanhf(x), bit-identical to glibc 2.36 on every input.
inline float tanh_fdlibm(float x) {
  const std::uint32_t jx = fdlibm::bits(x);
  const std::uint32_t ix = jx & 0x7fffffffu;
  const bool negative = (jx & 0x80000000u) != 0;
  if (ix >= 0x7f800000u) {  // inf or NaN
    return negative ? 1.0f / x - 1.0f : 1.0f / x + 1.0f;
  }
  float z;
  if (ix < 0x41b00000u) {     // |x| < 22
    if (ix == 0) return x;    // +-0
    if (ix < 0x24000000u) {   // |x| < 2^-55
      return x * (1.0f + x);
    }
    const float ax = fdlibm::from_bits(ix);
    if (ix >= 0x3f800000u) {  // |x| >= 1
      const float t = fdlibm::expm1f(2.0f * ax);
      z = 1.0f - 2.0f / (t + 2.0f);
    } else {
      const float t = fdlibm::expm1f(-2.0f * ax);
      z = -t / (t + 2.0f);
    }
  } else {                    // |x| >= 22: 1 - tiny rounds to 1
    z = 1.0f;
  }
  return negative ? -z : z;
}

}  // namespace fedca::tensor::simd
