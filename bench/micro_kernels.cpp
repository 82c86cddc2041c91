// Google-benchmark microbenches of the kernels on FedCA's hot paths:
// GEMM in all three transpose variants (local SGD) and at the exact shapes
// the nn layers use in training, the conv2d lowering into GEMM panels and
// col2im, the retained naive references (before/after comparison), span
// kernels, the int8 wire's quantization, the fused dense-layer helpers,
// conv2d, ReLU/MaxPool and LSTM forward/backward, the SGD step, tanh and
// sigmoid against libm, statistical progress (Eq. 1), profiler recording,
// link throughput, speed-timeline integration, CNN and WRN training steps,
// and end-to-end round throughput.
#include <benchmark/benchmark.h>

#include <cmath>
#include <vector>

#include "core/progress.hpp"
#include "core/sampling_profiler.hpp"
#include "data/partition.hpp"
#include "data/synthetic.hpp"
#include "fl/experiment.hpp"
#include "fl/round_engine.hpp"
#include "fl/scheme.hpp"
#include "nn/activations.hpp"
#include "nn/conv2d.hpp"
#include "nn/lstm.hpp"
#include "nn/models.hpp"
#include "nn/sgd.hpp"
#include "bench/common.hpp"
#include "sim/network.hpp"
#include "tensor/ops.hpp"
#include "tensor/simd/dispatch.hpp"
#include "trace/trace.hpp"
#include "util/rng.hpp"

namespace {

using namespace fedca;

tensor::Tensor randn(tensor::Shape shape, std::uint64_t seed) {
  util::Rng rng(seed);
  tensor::Tensor t(std::move(shape));
  for (std::size_t i = 0; i < t.numel(); ++i) {
    t[i] = static_cast<float>(rng.normal(0.0, 1.0));
  }
  return t;
}

void BM_Gemm(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const tensor::Tensor a = randn({n, n}, 1);
  const tensor::Tensor b = randn({n, n}, 2);
  tensor::Tensor c({n, n});
  for (auto _ : state) {
    tensor::gemm(a, b, c);
    benchmark::DoNotOptimize(c.raw());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(2 * n * n * n));
}
BENCHMARK(BM_Gemm)->Arg(32)->Arg(64)->Arg(128);

void BM_GemmNT(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const tensor::Tensor a = randn({n, n}, 1);
  const tensor::Tensor b = randn({n, n}, 2);
  tensor::Tensor c({n, n});
  for (auto _ : state) {
    tensor::gemm_nt(a, b, c);
    benchmark::DoNotOptimize(c.raw());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(2 * n * n * n));
}
BENCHMARK(BM_GemmNT)->Arg(32)->Arg(64)->Arg(128);

void BM_GemmTN(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const tensor::Tensor a = randn({n, n}, 1);
  const tensor::Tensor b = randn({n, n}, 2);
  tensor::Tensor c({n, n});
  for (auto _ : state) {
    tensor::gemm_tn(a, b, c);
    benchmark::DoNotOptimize(c.raw());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(2 * n * n * n));
}
BENCHMARK(BM_GemmTN)->Arg(32)->Arg(64)->Arg(128);

// The GEMM calls local SGD issues on the benchmark models (LeNet-5 on
// 3x16x16 inputs at batch 10, the LSTM classifier at hidden 96), in the
// raw-pointer (m, k, n) convention of each variant: a shape-specific
// slowdown shows up here before it shows up end to end.
//
// conv1_fwd is the GEMM the LeNet-5 conv1 forward runs per sample: both
// operands prepacked (the weight once per pass, the lowered image by
// PackedB::pack_conv), as Conv2d runs it. fc1_dW_acc is fc1's weight
// gradient at batch 10 as Linear::backward runs it: gemm_tn added straight
// into the gradient (Store::kAccumulate).
enum class GemmOp { kNN, kNT, kTN, kTNAcc, kPacked };

void BM_LayerGemm(benchmark::State& state, GemmOp op, std::size_t m,
                  std::size_t k, std::size_t n) {
  const tensor::Tensor a = randn({m * k}, 1);
  const bool tn = op == GemmOp::kTN || op == GemmOp::kTNAcc;
  const tensor::Tensor b = randn({(tn ? m : k) * n}, 2);
  tensor::Tensor c({(tn ? k : m) * n});
  tensor::PackedA packed_a;
  tensor::PackedB packed_b;
  if (op == GemmOp::kPacked) {
    packed_a.pack(m, k, a.raw(), /*a_trans=*/false);
    packed_b.pack(k, n, b.raw(), /*b_trans=*/false);
  }
  for (auto _ : state) {
    switch (op) {
      case GemmOp::kNN: tensor::gemm(m, k, n, a.raw(), b.raw(), c.raw()); break;
      case GemmOp::kNT: tensor::gemm_nt(m, k, n, a.raw(), b.raw(), c.raw()); break;
      case GemmOp::kTN: tensor::gemm_tn(m, k, n, a.raw(), b.raw(), c.raw()); break;
      case GemmOp::kTNAcc:
        tensor::gemm_tn(m, k, n, a.raw(), b.raw(), c.raw(), tensor::Store::kAccumulate);
        break;
      case GemmOp::kPacked: tensor::gemm_packed(packed_a, packed_b, c.raw()); break;
    }
    benchmark::DoNotOptimize(c.raw());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(2 * m * k * n));
}
BENCHMARK_CAPTURE(BM_LayerGemm, conv1_fwd, GemmOp::kPacked, 6, 75, 256);
BENCHMARK_CAPTURE(BM_LayerGemm, conv1_dW, GemmOp::kNT, 6, 256, 75);
BENCHMARK_CAPTURE(BM_LayerGemm, conv2_dW, GemmOp::kNT, 16, 64, 150);
BENCHMARK_CAPTURE(BM_LayerGemm, fc2_fwd, GemmOp::kNT, 10, 120, 84);
BENCHMARK_CAPTURE(BM_LayerGemm, fc1_dW_acc, GemmOp::kTNAcc, 10, 120, 256);
BENCHMARK_CAPTURE(BM_LayerGemm, lstm_dW_ih, GemmOp::kTN, 10, 384, 8);
BENCHMARK_CAPTURE(BM_LayerGemm, lstm_dx, GemmOp::kNN, 10, 384, 8);

// Conv2d lowering of one sample at the LeNet-5 conv1 (3x16x16, k5, pad 2)
// and conv2 (6x8x8, k5, pad 2) geometries, straight into GEMM panels:
// PackedB::pack_conv for the forward B, pack_conv_t (the _t cases) for
// dW's. conv1's forward panels are the B operand of
// BM_LayerGemm/conv1_fwd, so the two read as lowering vs GEMM cost per
// sample.
void BM_Im2col(benchmark::State& state, tensor::Conv2dGeometry geo, bool transposed) {
  const tensor::Tensor image = randn({geo.in_channels * geo.in_h * geo.in_w}, 3);
  tensor::PackedB panels;
  for (auto _ : state) {
    if (transposed) {
      panels.pack_conv_t(image.data(), geo);
    } else {
      panels.pack_conv(image.data(), geo);
    }
    benchmark::DoNotOptimize(panels.panels().data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(panels.k() * panels.n()));
}
BENCHMARK_CAPTURE(BM_Im2col, conv1, tensor::Conv2dGeometry{3, 16, 16, 5, 5, 1, 2}, false);
BENCHMARK_CAPTURE(BM_Im2col, conv2, tensor::Conv2dGeometry{6, 8, 8, 5, 5, 1, 2}, false);
BENCHMARK_CAPTURE(BM_Im2col, conv1_t, tensor::Conv2dGeometry{3, 16, 16, 5, 5, 1, 2}, true);
BENCHMARK_CAPTURE(BM_Im2col, conv2_t, tensor::Conv2dGeometry{6, 8, 8, 5, 5, 1, 2}, true);

// Every lowering and packing copy one LeNet-5 training step at N = 10 (the
// step of BM_CnnTrainingIteration) makes around its conv GEMMs: per conv,
// the forward's weight pack and per-sample pack_conv, and the backward's
// per-sample pack_conv_t plus, for conv2 only (conv1 computes no dX), the
// W^T pack. The kernel gate holds it to a share of that step.
void BM_ConvLowering(benchmark::State& state) {
  struct Layer {
    tensor::Conv2dGeometry geo;
    std::size_t out_c;
    bool grad_input;
  };
  const Layer layers[] = {{{3, 16, 16, 5, 5, 1, 2}, 6, false},
                          {{6, 8, 8, 5, 5, 1, 2}, 16, true}};
  constexpr std::size_t kBatch = 10;
  std::vector<tensor::Tensor> images, weights;
  for (const Layer& l : layers) {
    const tensor::Conv2dGeometry& g = l.geo;
    images.push_back(randn({kBatch * g.in_channels * g.in_h * g.in_w}, 30));
    weights.push_back(randn({l.out_c * g.in_channels * g.kernel_h * g.kernel_w}, 31));
  }
  tensor::PackedA packed_weight;
  tensor::PackedB panels;
  for (auto _ : state) {
    for (std::size_t i = 0; i < 2; ++i) {
      const tensor::Conv2dGeometry& g = layers[i].geo;
      const std::size_t col_rows = g.in_channels * g.kernel_h * g.kernel_w;
      const std::size_t image_size = g.in_channels * g.in_h * g.in_w;
      packed_weight.pack(layers[i].out_c, col_rows, weights[i].raw(), /*a_trans=*/false);
      for (std::size_t s = 0; s < kBatch; ++s) {
        panels.pack_conv(images[i].data().subspan(s * image_size, image_size), g);
        benchmark::DoNotOptimize(panels.panels().data());
      }
      if (layers[i].grad_input) {
        packed_weight.pack(col_rows, layers[i].out_c, weights[i].raw(), /*a_trans=*/true);
      }
      for (std::size_t s = 0; s < kBatch; ++s) {
        panels.pack_conv_t(images[i].data().subspan(s * image_size, image_size), g);
        benchmark::DoNotOptimize(panels.panels().data());
      }
    }
    benchmark::DoNotOptimize(packed_weight.panels().data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_ConvLowering);

void BM_Col2im(benchmark::State& state, tensor::Conv2dGeometry geo) {
  const tensor::Tensor cols = randn(
      {geo.in_channels * geo.kernel_h * geo.kernel_w * geo.out_h() * geo.out_w()}, 4);
  tensor::Tensor image({geo.in_channels * geo.in_h * geo.in_w});
  for (auto _ : state) {
    tensor::col2im(cols.data(), geo, image.data());
    benchmark::DoNotOptimize(image.raw());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(cols.numel()));
}
BENCHMARK_CAPTURE(BM_Col2im, conv1, tensor::Conv2dGeometry{3, 16, 16, 5, 5, 1, 2});
BENCHMARK_CAPTURE(BM_Col2im, conv2, tensor::Conv2dGeometry{6, 8, 8, 5, 5, 1, 2});

// The naive pre-optimization kernel, kept for honest before/after numbers.
void BM_GemmRef(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const tensor::Tensor a = randn({n, n}, 1);
  const tensor::Tensor b = randn({n, n}, 2);
  tensor::Tensor c({n, n});
  for (auto _ : state) {
    tensor::ref::gemm(a, b, c);
    benchmark::DoNotOptimize(c.raw());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(2 * n * n * n));
}
BENCHMARK(BM_GemmRef)->Arg(32)->Arg(64)->Arg(128);

void BM_Axpy(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const tensor::Tensor x = randn({n}, 3);
  tensor::Tensor y = randn({n}, 4);
  for (auto _ : state) {
    tensor::axpy(0.5f, x.data(), y.data());
    benchmark::DoNotOptimize(y.raw());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_Axpy)->Arg(65536);

void BM_Dot(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const tensor::Tensor x = randn({n}, 3);
  const tensor::Tensor y = randn({n}, 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tensor::dot(x.data(), y.data()));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_Dot)->Arg(65536);

void BM_L2Norm(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const tensor::Tensor x = randn({n}, 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tensor::l2_norm(x.data()));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_L2Norm)->Arg(65536);

void BM_Scale(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  tensor::Tensor x = randn({n}, 3);
  for (auto _ : state) {
    tensor::scale(1.0000001f, x.data());
    benchmark::DoNotOptimize(x.raw());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_Scale)->Arg(65536);

void BM_BiasAdd(benchmark::State& state) {
  const std::size_t rows = 64, cols = 256;
  tensor::Tensor out = randn({rows, cols}, 5);
  const tensor::Tensor bias = randn({cols}, 6);
  for (auto _ : state) {
    tensor::bias_add(out.data(), rows, bias.data());
    benchmark::DoNotOptimize(out.raw());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(rows * cols));
}
BENCHMARK(BM_BiasAdd);

void BM_RowSum(benchmark::State& state) {
  const std::size_t rows = 64, cols = 256;
  const tensor::Tensor in = randn({rows, cols}, 5);
  tensor::Tensor out({cols});
  for (auto _ : state) {
    tensor::row_sum(in.data(), rows, out.data());
    benchmark::DoNotOptimize(out.raw());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(rows * cols));
}
BENCHMARK(BM_RowSum);

// The int8 eager wire's work on an update of LeNet-5's size (61,706
// floats): Int8Quantizer::compress's compute_quant_params, then
// fake_quantize_int8 in place. After the first pass the values sit on the
// int8 grid; neither kernel's speed depends on the values.
void BM_FakeQuantize(benchmark::State& state) {
  constexpr std::size_t kParams = 61706;
  tensor::Tensor x = randn({kParams}, 25);
  for (auto _ : state) {
    const tensor::QuantParams p = tensor::compute_quant_params(x.data());
    tensor::fake_quantize_int8(x.data(), p);
    benchmark::DoNotOptimize(x.raw());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kParams));
}
BENCHMARK(BM_FakeQuantize);

void BM_ConvForward(benchmark::State& state) {
  util::Rng rng(11);
  nn::Conv2d conv("bench", 8, 16, 16, 16, 3, 1, 1, rng);
  tensor::Tensor input = randn({8, 8, 16, 16}, 12);
  for (auto _ : state) {
    tensor::Tensor out = conv.forward(input);
    benchmark::DoNotOptimize(out.raw());
  }
}
BENCHMARK(BM_ConvForward);

void BM_ConvBackward(benchmark::State& state) {
  util::Rng rng(11);
  nn::Conv2d conv("bench", 8, 16, 16, 16, 3, 1, 1, rng);
  tensor::Tensor input = randn({8, 8, 16, 16}, 12);
  tensor::Tensor grad = randn({8, 16, 16, 16}, 13);
  conv.forward(input);
  for (auto _ : state) {
    conv.zero_grad();
    tensor::Tensor dx = conv.backward(grad);
    benchmark::DoNotOptimize(dx.raw());
  }
}
BENCHMARK(BM_ConvBackward);

// One SgdOptimizer::step over LeNet-5's parameters (44,726 floats) with the
// CNN cell's weight decay, gradients as left by a training step: the
// per-parameter pass every local iteration ends with.
void BM_SgdStep(benchmark::State& state) {
  util::Rng rng(31);
  nn::Classifier model = nn::build_lenet5(nn::default_geometry(nn::ModelKind::kCnn), 10, rng);
  const nn::InputGeometry geo = nn::default_geometry(nn::ModelKind::kCnn);
  const tensor::Tensor input = randn({10, geo.channels, geo.height, geo.width}, 32);
  std::vector<int> labels(10);
  for (std::size_t i = 0; i < labels.size(); ++i) labels[i] = static_cast<int>(i);
  model.compute_gradients(input, labels);
  nn::SgdOptimizer sgd(model.backbone().parameters(), {0.05, 0.01, 0.0});
  for (auto _ : state) {
    sgd.step();
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(nn::parameter_count(model.backbone())));
}
BENCHMARK(BM_SgdStep);

// LeNet-5's parameter-free layers at conv1's training activation
// ([10, 6, 16, 16]): ReLU then MaxPool forward, MaxPool then ReLU
// backward — one training step's worth, caches included. The kernel
// gate holds it to a small share of BM_CnnTrainingIteration.
void BM_ParamFree(benchmark::State& state, std::size_t n, std::size_t c, std::size_t hw) {
  nn::ReLU relu;
  nn::MaxPool2d pool(c, hw, hw, 2);
  const tensor::Tensor input = randn({n, c, hw, hw}, 25);
  const tensor::Tensor grad = randn({n, c, hw / 2, hw / 2}, 26);
  for (auto _ : state) {
    tensor::Tensor pooled = pool.forward(relu.forward(input));
    tensor::Tensor dx = relu.backward(pool.backward(grad));
    benchmark::DoNotOptimize(pooled.raw());
    benchmark::DoNotOptimize(dx.raw());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(input.numel()));
}
BENCHMARK_CAPTURE(BM_ParamFree, conv1, 10, 6, 16);

// The LSTM layer of the keyword-spotting model at the training batch
// (N = 10, T = 16, F = 8, H = 96): one forward, and the parameter-only
// backward the SGD step runs.
void BM_LstmForward(benchmark::State& state) {
  util::Rng rng(21);
  nn::LSTM lstm("bench", 8, 96, 16, rng);
  const tensor::Tensor input = randn({10, 16, 8}, 22);
  for (auto _ : state) {
    tensor::Tensor h = lstm.forward(input);
    benchmark::DoNotOptimize(h.raw());
  }
}
BENCHMARK(BM_LstmForward);

void BM_LstmBackwardParams(benchmark::State& state) {
  util::Rng rng(21);
  nn::LSTM lstm("bench", 8, 96, 16, rng);
  const tensor::Tensor input = randn({10, 16, 8}, 22);
  const tensor::Tensor grad = randn({10, 96}, 23);
  lstm.forward(input);
  for (auto _ : state) {
    lstm.zero_grad();
    lstm.backward_params(grad);
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_LstmBackwardParams);

// One LSTM timestep's tanh work at that batch (g and tanh(c), 2 x 10 x 96
// floats): glibc tanhf per element against tensor::tanh, which returns the
// same bits.
void BM_Tanh(benchmark::State& state, bool kernel) {
  const tensor::Tensor x = randn({1920}, 24);
  tensor::Tensor y({1920});
  for (auto _ : state) {
    if (kernel) {
      tensor::tanh(x.data(), y.data());
    } else {
      for (std::size_t i = 0; i < x.numel(); ++i) y[i] = std::tanh(x[i]);
    }
    benchmark::DoNotOptimize(y.raw());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 1920);
}
BENCHMARK_CAPTURE(BM_Tanh, libm, false);
BENCHMARK_CAPTURE(BM_Tanh, kernel, true);

// One LSTM timestep's sigmoid gates at that batch (i, f and o, 3 x 10 x 96
// floats): 1 / (1 + expf(-x)) with glibc's expf per element against
// tensor::sigmoid, which returns the same bits (its AVX-512 kernel
// replicates expf; the other tiers call libm).
void BM_Sigmoid(benchmark::State& state, bool kernel) {
  const tensor::Tensor x = randn({2880}, 27);
  tensor::Tensor y({2880});
  for (auto _ : state) {
    if (kernel) {
      tensor::sigmoid(x.data(), y.data());
    } else {
      for (std::size_t i = 0; i < x.numel(); ++i) y[i] = 1.0f / (1.0f + std::exp(-x[i]));
    }
    benchmark::DoNotOptimize(y.raw());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 2880);
}
BENCHMARK_CAPTURE(BM_Sigmoid, libm, false);
BENCHMARK_CAPTURE(BM_Sigmoid, kernel, true);

void BM_StatisticalProgress(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const tensor::Tensor gi = randn({n}, 3);
  const tensor::Tensor gk = randn({n}, 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::statistical_progress(gi.data(), gk.data()));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_StatisticalProgress)->Arg(1024)->Arg(65536);

void BM_ProfilerRecordIteration(benchmark::State& state) {
  util::Rng rng(5);
  nn::Classifier model = nn::build_model(nn::ModelKind::kCnn, rng);
  core::SamplingProfiler profiler(core::ProfilerOptions{}, util::Rng(6));
  profiler.begin_round(0, model.state());
  for (auto _ : state) {
    profiler.record_iteration(model.backbone());
  }
  state.counters["sampled_params"] =
      static_cast<double>(profiler.sampled_param_count());
}
BENCHMARK(BM_ProfilerRecordIteration);

// One local SGD step's compute_gradients on a model at batch n.
void training_iteration(benchmark::State& state, nn::ModelKind kind, std::size_t n) {
  util::Rng rng(7);
  nn::Classifier model = nn::build_model(kind, rng);
  const nn::InputGeometry geo = nn::default_geometry(kind);
  tensor::Tensor input = randn({n, geo.channels, geo.height, geo.width}, 8);
  std::vector<int> labels(n);
  for (std::size_t i = 0; i < n; ++i) labels[i] = static_cast<int>(i % 10);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.compute_gradients(input, labels));
  }
}

// LeNet-5 at N = 10 (the suite's tta_cnn_fedca batch), and at the paper's
// batch of 50 (the n50 case).
void BM_CnnTrainingIteration(benchmark::State& state) {
  training_iteration(state, nn::ModelKind::kCnn, 10);
}
void BM_CnnTrainingIteration(benchmark::State& state, std::size_t n) {
  training_iteration(state, nn::ModelKind::kCnn, n);
}
BENCHMARK(BM_CnnTrainingIteration);
BENCHMARK_CAPTURE(BM_CnnTrainingIteration, n50, 50);

// WRN-lite at the paper's batch of 50.
void BM_WrnTrainingIteration(benchmark::State& state) {
  training_iteration(state, nn::ModelKind::kWrn, 50);
}
BENCHMARK(BM_WrnTrainingIteration)->Unit(benchmark::kMillisecond);

void BM_LinkTransmit(benchmark::State& state) {
  sim::Link link(13.7);
  double t = 0.0;
  for (auto _ : state) {
    const sim::Transfer tr = link.transmit(t, 240e3);
    t = tr.end;
    benchmark::DoNotOptimize(t);
  }
}
BENCHMARK(BM_LinkTransmit);

void BM_SpeedTimelineFinish(benchmark::State& state) {
  trace::DynamicityOptions dyn;
  trace::SpeedTimeline timeline(1.0, dyn, util::Rng(9));
  double t = 0.0;
  for (auto _ : state) {
    t = timeline.finish_time(t, 0.1);
    benchmark::DoNotOptimize(t);
  }
}
BENCHMARK(BM_SpeedTimelineFinish);

// End-to-end round throughput: wall-clock per FedAvg round (real local SGD
// for every client) at the given worker count. Arg 0 = FEDCA_THREADS /
// hardware default. The geometry is fixed here, beside the numbers
// BENCH_kernels.json records for it.
void BM_RoundThroughput(benchmark::State& state) {
  fl::ExperimentOptions options;  // analyze:waive(scenario-hardcode)
  options.model = nn::ModelKind::kCnn;
  options.num_clients = 8;
  options.local_iterations = 5;
  options.batch_size = 16;
  options.train_samples = 800;
  options.test_samples = 32;
  options.seed = 21;
  options.worker_threads = static_cast<std::size_t>(state.range(0));
  fl::FedAvgScheme scheme;
  fl::ExperimentSetup setup = fl::make_setup(options, scheme);
  for (auto _ : state) {
    const fl::RoundRecord record = setup.engine->run_round();
    benchmark::DoNotOptimize(record.end_time);
  }
  state.counters["clients"] = static_cast<double>(options.num_clients);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(options.num_clients *
                                                    options.local_iterations));
}
BENCHMARK(BM_RoundThroughput)->Arg(1)->Arg(0)->Unit(benchmark::kMillisecond);

}  // namespace

// BENCHMARK_MAIN() plus provenance: the dispatch tier and build type go
// into the JSON context so a checked-in BENCH_kernels.json says what it
// measured (tools/bench_kernels.py refuses debug-build numbers).
int main(int argc, char** argv) {
  benchmark::AddCustomContext("fedca_build_type", fedca::bench::build_type());
  benchmark::AddCustomContext("fedca_simd_tier",
                              fedca::tensor::simd::active_tier_name());
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
