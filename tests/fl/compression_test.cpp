// Update compression: QSGD quantization, top-k sparsification, int8
// affine quantization, the CompressedScheme decorator, the int8 eager
// wire, and end-to-end effects on wire bytes.
#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <string>

#include "core/factory.hpp"
#include "fl/compression.hpp"
#include "fl/experiment.hpp"
#include "fl/scenario.hpp"
#include "tensor/ops.hpp"

namespace fedca {
namespace {

// Experiment geometry comes from the committed scenario; tests override
// the few knobs they need on the returned copy.
const fl::Scenario& eager_scenario() {
  static const fl::Scenario sc = fl::load_scenario_file(
      std::string(FEDCA_SOURCE_DIR) + "/scenarios/eager_compression.scn");
  return sc;
}

fl::ExperimentOptions scenario_options() { return eager_scenario().options; }

tensor::Tensor ramp(std::size_t n) {
  tensor::Tensor t({n});
  for (std::size_t i = 0; i < n; ++i) {
    t[i] = static_cast<float>((static_cast<double>(i) - static_cast<double>(n) / 2) /
                              static_cast<double>(n));
  }
  return t;
}

TEST(Identity, PreservesValuesAndBytes) {
  fl::IdentityCompressor codec;
  tensor::Tensor t = ramp(100);
  const tensor::Tensor orig = t;
  EXPECT_DOUBLE_EQ(codec.compress(t, 4.0), 400.0);
  for (std::size_t i = 0; i < t.numel(); ++i) EXPECT_EQ(t[i], orig[i]);
}

TEST(Qsgd, PreservesSignsAndBoundsError) {
  fl::QsgdQuantizer codec(64, util::Rng(1));
  tensor::Tensor t = ramp(1000);
  const tensor::Tensor orig = t;
  codec.compress(t, 4.0);
  const double norm = tensor::l2_norm(orig.data());
  for (std::size_t i = 0; i < t.numel(); ++i) {
    if (orig[i] > 0.0f) {
      EXPECT_GE(t[i], 0.0f);
    }
    if (orig[i] < 0.0f) {
      EXPECT_LE(t[i], 0.0f);
    }
    // Each element moves by at most one quantization bucket.
    EXPECT_LE(std::abs(t[i] - orig[i]), norm / 64.0 + 1e-6);
  }
}

TEST(Qsgd, UnbiasedOnAverage) {
  // Average many independent quantizations of one vector: should converge
  // to the vector itself (stochastic rounding unbiasedness).
  const tensor::Tensor orig = ramp(64);
  std::vector<double> mean(orig.numel(), 0.0);
  const int reps = 600;
  for (int r = 0; r < reps; ++r) {
    fl::QsgdQuantizer codec(8, util::Rng(100 + r));
    tensor::Tensor t = orig;
    codec.compress(t, 4.0);
    for (std::size_t i = 0; i < t.numel(); ++i) mean[i] += t[i];
  }
  const double norm = tensor::l2_norm(orig.data());
  for (std::size_t i = 0; i < orig.numel(); ++i) {
    EXPECT_NEAR(mean[i] / reps, orig[i], 0.05 * norm / 8.0 + 5e-3) << i;
  }
}

TEST(Qsgd, WireBytesShrink) {
  fl::QsgdQuantizer codec(128, util::Rng(2));  // 1 + 8 bits -> ~28% of fp32
  tensor::Tensor t = ramp(1000);
  const double bytes = codec.compress(t, 4.0);
  EXPECT_LT(bytes, 0.35 * 4000.0);
  EXPECT_GT(bytes, 0.20 * 4000.0);
}

TEST(Qsgd, ZeroVectorStaysZero) {
  fl::QsgdQuantizer codec(16, util::Rng(3));
  tensor::Tensor t({10});
  codec.compress(t, 4.0);
  for (std::size_t i = 0; i < t.numel(); ++i) EXPECT_EQ(t[i], 0.0f);
}

TEST(Qsgd, Validation) {
  EXPECT_THROW(fl::QsgdQuantizer(0, util::Rng(1)), std::invalid_argument);
}

TEST(TopK, KeepsLargestEntries) {
  fl::TopKSparsifier codec(0.2);
  tensor::Tensor t({10}, std::vector<float>{0.1f, -5.0f, 0.2f, 3.0f, 0.05f, 0.0f,
                                            -0.3f, 0.4f, 0.01f, -0.02f});
  const double bytes = codec.compress(t, 4.0);
  EXPECT_DOUBLE_EQ(bytes, 2 * 4.0 * 2.0);  // k = 2, value + index
  EXPECT_EQ(t[1], -5.0f);
  EXPECT_EQ(t[3], 3.0f);
  for (const std::size_t i : {0u, 2u, 4u, 5u, 6u, 7u, 8u, 9u}) {
    EXPECT_EQ(t[i], 0.0f) << i;
  }
}

TEST(TopK, AtLeastOneKept) {
  fl::TopKSparsifier codec(0.001);
  tensor::Tensor t({5}, std::vector<float>{1, 2, 3, 4, 5});
  codec.compress(t, 4.0);
  std::size_t nonzero = 0;
  for (std::size_t i = 0; i < t.numel(); ++i) {
    if (t[i] != 0.0f) ++nonzero;
  }
  EXPECT_EQ(nonzero, 1u);
  EXPECT_EQ(t[4], 5.0f);
}

TEST(TopK, FullFractionIsIdentity) {
  fl::TopKSparsifier codec(1.0);
  tensor::Tensor t = ramp(20);
  const tensor::Tensor orig = t;
  codec.compress(t, 4.0);
  for (std::size_t i = 0; i < t.numel(); ++i) EXPECT_EQ(t[i], orig[i]);
}

TEST(TopK, Validation) {
  EXPECT_THROW(fl::TopKSparsifier(0.0), std::invalid_argument);
  EXPECT_THROW(fl::TopKSparsifier(1.5), std::invalid_argument);
}

// Degenerate tensor shapes must round-trip unchanged and bill a sane
// number of wire bytes (an empty layer carries no payload at all).
TEST(CompressionEdgeCases, EmptyTensorCostsNothing) {
  tensor::Tensor empty({0});
  fl::IdentityCompressor identity;
  EXPECT_DOUBLE_EQ(identity.compress(empty, 4.0), 0.0);
  fl::QsgdQuantizer qsgd(8, util::Rng(1));
  EXPECT_DOUBLE_EQ(qsgd.compress(empty, 4.0), 0.0);
  fl::TopKSparsifier topk(0.1);
  EXPECT_DOUBLE_EQ(topk.compress(empty, 4.0), 0.0);
  EXPECT_EQ(empty.numel(), 0u);
}

TEST(CompressionEdgeCases, SingleElementRoundTrips) {
  for (const float v : {-1.5f, 0.0f, 2.25f}) {
    tensor::Tensor t({1});
    t[0] = v;
    fl::TopKSparsifier topk(0.5);  // k = max(1, 0) keeps the lone entry
    EXPECT_DOUBLE_EQ(topk.compress(t, 4.0), 8.0);
    EXPECT_EQ(t[0], v);

    tensor::Tensor q({1});
    q[0] = v;
    fl::QsgdQuantizer qsgd(4, util::Rng(2));
    const double bytes = qsgd.compress(q, 4.0);
    EXPECT_GT(bytes, 0.0);
    // A single element sits exactly at the norm: quantization is exact.
    EXPECT_FLOAT_EQ(q[0], v);
  }
}

TEST(CompressionEdgeCases, AllZeroTensorStaysZero) {
  tensor::Tensor t({16}, 0.0f);
  fl::QsgdQuantizer qsgd(8, util::Rng(3));
  qsgd.compress(t, 4.0);
  for (std::size_t i = 0; i < t.numel(); ++i) EXPECT_EQ(t[i], 0.0f);

  tensor::Tensor s({16}, 0.0f);
  fl::TopKSparsifier topk(0.25);
  const double bytes = topk.compress(s, 4.0);
  EXPECT_DOUBLE_EQ(bytes, 4.0 * 4.0 * 2.0);  // k = 4 entries billed
  for (std::size_t i = 0; i < s.numel(); ++i) EXPECT_EQ(s[i], 0.0f);
}

TEST(MakeCompressor, DispatchesAndValidates) {
  EXPECT_EQ(fl::make_compressor("none", 8, 0.1, util::Rng(1))->name(), "identity");
  EXPECT_EQ(fl::make_compressor("qsgd", 8, 0.1, util::Rng(1))->name(), "qsgd8");
  EXPECT_NE(fl::make_compressor("topk", 8, 0.1, util::Rng(1)), nullptr);
  EXPECT_EQ(fl::make_compressor("int8", 8, 0.1, util::Rng(1))->name(), "int8");
  EXPECT_THROW(fl::make_compressor("zip", 8, 0.1, util::Rng(1)), std::invalid_argument);
}

TEST(Int8, RoundTripBoundedByHalfStep) {
  tensor::Tensor t = ramp(1000);
  const tensor::Tensor orig = t;
  const tensor::QuantParams p = tensor::compute_quant_params(orig.data());
  fl::Int8Quantizer codec;
  codec.compress(t, 4.0);
  std::set<float> distinct;
  for (std::size_t i = 0; i < t.numel(); ++i) {
    // Nearest-code quantization moves each value by at most half a step.
    EXPECT_LE(std::abs(t[i] - orig[i]), 0.5 * p.scale + 1e-6) << i;
    distinct.insert(t[i]);
  }
  EXPECT_LE(distinct.size(), 256u);  // one int8 code per element
}

TEST(Int8, ScaleAndZeroPointCoverRange) {
  // The quantization grid must span [min, max] widened to include zero,
  // with zero itself exactly representable (error feedback depends on
  // untouched entries surviving the round trip).
  tensor::Tensor t({4}, std::vector<float>{-2.0f, 0.0f, 1.0f, 0.25f});
  const tensor::QuantParams p = tensor::compute_quant_params(t.data());
  EXPECT_FLOAT_EQ(p.scale, 3.0f / 255.0f);
  fl::Int8Quantizer codec;
  codec.compress(t, 4.0);
  EXPECT_EQ(t[1], 0.0f);  // zero is a grid point, not merely close
  EXPECT_NEAR(t[0], -2.0f, 0.5 * p.scale + 1e-6);
  EXPECT_NEAR(t[2], 1.0f, 0.5 * p.scale + 1e-6);

  // All-positive input: the grid still contains zero (lo clamps to 0).
  tensor::Tensor pos({3}, std::vector<float>{2.0f, 4.0f, 3.0f});
  const tensor::QuantParams pp = tensor::compute_quant_params(pos.data());
  EXPECT_FLOAT_EQ(pp.scale, 4.0f / 255.0f);
}

TEST(Int8, WireBytesMatchBitsPerElement) {
  EXPECT_DOUBLE_EQ(fl::Int8Quantizer::bits_per_element(), 8.0);
  fl::Int8Quantizer codec;
  tensor::Tensor t = ramp(1000);
  // Header (scale + zero-point) plus bits_per_element/32 of the fp32 cost.
  const double expected =
      fl::Int8Quantizer::header_bytes() +
      1000.0 * 4.0 * (fl::Int8Quantizer::bits_per_element() / 32.0);
  EXPECT_DOUBLE_EQ(codec.compress(t, 4.0), expected);

  tensor::Tensor empty({0});
  EXPECT_DOUBLE_EQ(codec.compress(empty, 4.0), 0.0);

  tensor::Tensor zeros({16}, 0.0f);
  codec.compress(zeros, 4.0);
  for (std::size_t i = 0; i < zeros.numel(); ++i) EXPECT_EQ(zeros[i], 0.0f);
}

TEST(EagerWire, ParseAndName) {
  EXPECT_EQ(fl::parse_eager_wire("fp32"), fl::EagerWire::kFp32);
  EXPECT_EQ(fl::parse_eager_wire("int8"), fl::EagerWire::kInt8);
  EXPECT_THROW(fl::parse_eager_wire("fp16"), std::invalid_argument);
  EXPECT_STREQ(fl::eager_wire_name(fl::EagerWire::kFp32), "fp32");
  EXPECT_STREQ(fl::eager_wire_name(fl::EagerWire::kInt8), "int8");
}

TEST(CompressedScheme, EndToEndReducesBytes) {
  fl::ExperimentOptions options = scenario_options();
  options.eager_wire = fl::EagerWire::kFp32;
  options.local_iterations = 5;
  options.max_rounds = 2;
  options.seed = 11;

  util::Config plain_config;
  auto plain = core::make_scheme("fedavg", plain_config, options.seed);
  const fl::ExperimentResult base = fl::run_experiment(options, *plain);

  util::Config q_config;
  q_config.set("compress", "qsgd");
  auto quantized = core::make_scheme("fedavg", q_config, options.seed);
  EXPECT_EQ(quantized->name(), "FedAvg+qsgd");
  const fl::ExperimentResult q = fl::run_experiment(options, *quantized);

  double base_bytes = 0.0, q_bytes = 0.0;
  for (const auto& round : base.rounds) {
    for (const auto& c : round.clients) base_bytes += c.bytes_sent;
  }
  for (const auto& round : q.rounds) {
    for (const auto& c : round.clients) q_bytes += c.bytes_sent;
  }
  EXPECT_LT(q_bytes, 0.5 * base_bytes);
}

TEST(CompressedScheme, ComposesWithFedCa) {
  util::Config config;
  config.set("compress", "topk");
  config.set("compress_fraction", "0.2");
  config.set("fedca_period", "2");
  auto scheme = core::make_scheme("fedca", config, 3);
  EXPECT_EQ(scheme->name(), "FedCA+topk");

  fl::ExperimentOptions options = scenario_options();
  options.eager_wire = fl::EagerWire::kFp32;
  options.num_clients = 4;
  options.local_iterations = 6;
  options.train_samples = 240;
  options.seed = 12;
  const fl::ExperimentResult result = fl::run_experiment(options, *scheme);
  EXPECT_EQ(result.rounds.size(), 5u);  // runs to completion
  // FedCA mechanisms still fire under compression.
  EXPECT_GT(result.eager_iterations(false).size(), 0u);
}

TEST(CompressedScheme, DeterministicQuantization) {
  auto run = [] {
    util::Config config;
    config.set("compress", "qsgd");
    auto scheme = core::make_scheme("fedavg", config, 5);
    fl::ExperimentOptions options = scenario_options();
    options.eager_wire = fl::EagerWire::kFp32;
    options.num_clients = 4;
    options.local_iterations = 4;
    options.train_samples = 240;
    options.max_rounds = 2;
    options.seed = 13;
    return fl::run_experiment(options, *scheme).final_accuracy;
  };
  EXPECT_DOUBLE_EQ(run(), run());
}

fl::ExperimentResult run_eager_scenario(fl::EagerWire wire) {
  const fl::Scenario& sc = eager_scenario();
  fl::ExperimentOptions options = sc.options;
  options.eager_wire = wire;
  auto scheme = core::make_scheme(sc.scheme, fl::scheme_config(sc), options.seed);
  return fl::run_experiment(options, *scheme);
}

double total_eager_bytes(const fl::ExperimentResult& result) {
  double total = 0.0;
  for (const auto& round : result.rounds) {
    for (const auto& c : round.clients) total += c.eager_bytes;
  }
  return total;
}

// Acceptance gate of the quantized eager wire: the committed
// eager_compression scenario must cut eager bytes-on-wire by >= 3.5x
// versus the fp32 wire (the int8 codec is 4x minus per-layer headers).
TEST(Int8EagerWire, CutsEagerBytesVsFp32) {
  const fl::ExperimentResult fp32 = run_eager_scenario(fl::EagerWire::kFp32);
  const fl::ExperimentResult int8 = run_eager_scenario(fl::EagerWire::kInt8);
  const double fp32_bytes = total_eager_bytes(fp32);
  const double int8_bytes = total_eager_bytes(int8);
  ASSERT_GT(int8_bytes, 0.0);  // eager transmissions actually fired
  EXPECT_GE(fp32_bytes / int8_bytes, 3.5);
}

// Error-feedback regression: quantizing the eager wire must not derail
// convergence — the residual rides the full-precision retransmission
// path, so the final loss stays within a small epsilon of the fp32 run.
TEST(Int8EagerWire, ErrorFeedbackKeepsConvergence) {
  const fl::ExperimentResult fp32 = run_eager_scenario(fl::EagerWire::kFp32);
  const fl::ExperimentResult int8 = run_eager_scenario(fl::EagerWire::kInt8);
  ASSERT_FALSE(fp32.curve.empty());
  ASSERT_FALSE(int8.curve.empty());
  EXPECT_NEAR(int8.curve.back().loss, fp32.curve.back().loss, 0.1);
  EXPECT_NEAR(int8.final_accuracy, fp32.final_accuracy, 0.1);
}

}  // namespace
}  // namespace fedca
