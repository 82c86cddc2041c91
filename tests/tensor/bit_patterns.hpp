// Helpers for tests that check a float kernel's bits (tanh_test.cpp,
// exp_test.cpp, simd_kernels_test.cpp): a four-thread sweep over all 2^32
// patterns, an FNV-1a digest over a fixed grid of patterns that pins a
// kernel's output to the libm it was recorded from, and a bitwise
// comparison of two spans.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstring>
#include <thread>
#include <vector>

#include "tensor/simd/dispatch.hpp"

namespace fedca::tensor::bit_patterns {

inline constexpr std::uint64_t kPatterns = 1ull << 32;
inline constexpr std::size_t kChunk = 1u << 16;
inline constexpr unsigned kThreads = 4;

// Every 4093rd bit pattern: both signs, every exponent.
inline constexpr std::uint32_t kGridStride = 4093;

inline float from_bits(std::uint32_t b) {
  float f;
  std::memcpy(&f, &b, sizeof f);
  return f;
}

inline std::vector<float> grid_inputs() {
  std::vector<float> x;
  for (std::uint64_t b = 0; b < kPatterns; b += kGridStride) {
    x.push_back(from_bits(static_cast<std::uint32_t>(b)));
  }
  return x;
}

// True when a and b hold the same floats bit for bit. (memcmp must not be
// handed the null data() of an empty vector.)
inline bool same_bits(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0);
}

inline std::uint64_t fnv1a(const std::vector<float>& v) {
  std::uint64_t h = 1469598103934665603ull;
  const auto* bytes = reinterpret_cast<const unsigned char*>(v.data());
  for (std::size_t i = 0; i < v.size() * sizeof(float); ++i) {
    h ^= bytes[i];
    h *= 1099511628211ull;
  }
  return h;
}

// Calls check(x, n) on every 32-bit pattern, in kChunk-long runs of
// consecutive patterns split over kThreads threads; returns the sum of
// what check returns (a mismatch count).
template <typename Check>
std::uint64_t sweep_all_patterns(const Check& check) {
  std::atomic<std::uint64_t> total{0};
  std::vector<std::thread> threads;
  for (unsigned w = 0; w < kThreads; ++w) {
    threads.emplace_back([&, w] {
      std::vector<float> x(kChunk);
      std::uint64_t bad = 0;
      for (std::uint64_t base = w * kChunk; base < kPatterns; base += kThreads * kChunk) {
        for (std::size_t i = 0; i < kChunk; ++i) {
          x[i] = from_bits(static_cast<std::uint32_t>(base + i));
        }
        bad += check(x.data(), kChunk);
      }
      total += bad;
    });
  }
  for (std::thread& t : threads) t.join();
  return total.load();
}

inline std::vector<simd::Tier> host_tiers() {
  std::vector<simd::Tier> tiers{simd::Tier::kScalar};
  if (simd::avx2_supported()) tiers.push_back(simd::Tier::kAvx2);
  if (simd::avx512_supported()) tiers.push_back(simd::Tier::kAvx512);
  return tiers;
}

}  // namespace fedca::tensor::bit_patterns
