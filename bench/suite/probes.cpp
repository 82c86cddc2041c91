#include "probes.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <stdexcept>
#include <utility>

#include "data/loader.hpp"
#include "nn/loss.hpp"
#include "nn/sequential.hpp"
#include "nn/sgd.hpp"
#include "tensor/ops.hpp"
#include "timing.hpp"

namespace fedca::suite {

namespace {

// Median nanoseconds per call of `op` over seven batches, each batch long
// enough (>= 2 ms) that clock resolution does not matter.
template <typename Op>
double median_ns(Op&& op) {
  op();
  std::size_t iters = 1;
  for (;;) {
    const std::int64_t t0 = now_ns();
    for (std::size_t i = 0; i < iters; ++i) op();
    if (now_ns() - t0 >= 2'000'000 || iters >= (1u << 20)) break;
    iters *= 2;
  }
  std::vector<double> per_call;
  for (int batch = 0; batch < 7; ++batch) {
    const std::int64_t t0 = now_ns();
    for (std::size_t i = 0; i < iters; ++i) op();
    per_call.push_back(static_cast<double>(now_ns() - t0) / static_cast<double>(iters));
  }
  std::sort(per_call.begin(), per_call.end());
  return per_call[per_call.size() / 2];
}

template <typename Op>
double median_us(Op&& op) {
  return median_ns(std::forward<Op>(op)) * 1e-3;
}

// The role a top-level child plays. Every workload's model has all three,
// so every nn metric is measured on every workload: the input-facing
// weighted layers (Conv2d, LSTM), the Linear classifier head, and the
// parameter-free layers around them (activations, pooling, flatten).
const char* layer_role(nn::Module& layer) {
  if (layer.parameters().empty()) return "param_free";
  return layer.type_name() == "Linear" ? "head" : "features";
}

enum class Gemm { kNN, kNT, kTN };

struct GemmShape {
  Gemm variant;
  std::size_t m, k, n;
  auto operator<=>(const GemmShape&) const = default;
};

// SGD steps one client has taken by the workload's last round: the loader
// cursor a client restores there.
std::size_t client_steps(const Workload& w) {
  if (w.async) {
    return w.updates / w.options.num_clients * w.async_options.local_iterations;
  }
  const double steps = static_cast<double>(w.options.max_rounds * w.options.local_iterations) *
                       w.options.participation_fraction;
  return std::max<std::size_t>(1, static_cast<std::size_t>(std::lround(steps)));
}

}  // namespace

std::vector<std::pair<std::string, double>> run_probes(const Workload& w) {
  std::map<std::string, double> out;
  fl::FedAvgScheme placeholder;
  fl::ExperimentSetup setup = fl::make_setup(w.options, placeholder);
  nn::Classifier& model = *setup.model;
  const std::size_t batch_size = w.async ? w.async_options.batch_size : w.options.batch_size;
  const util::Rng rng = util::Rng(w.options.seed).fork(0x9A0BE);
  const data::Dataset& shard = setup.shards.front();
  data::BatchLoader loader(&shard, batch_size, rng);
  const data::Batch batch = loader.next_batch();
  model.set_training(true);

  // --- nn: each top-level child of the backbone, forward and backward.
  auto* net = dynamic_cast<nn::Sequential*>(&model.backbone());
  if (net == nullptr) throw std::runtime_error("probes: backbone is not a Sequential");
  const std::size_t layers = net->child_count();
  std::vector<tensor::Tensor> acts{batch.inputs};
  for (std::size_t i = 0; i < layers; ++i) acts.push_back(net->child(i).forward(acts[i]));
  for (std::size_t i = 0; i < layers; ++i) {
    out[std::string("nn.") + layer_role(net->child(i)) + ".fwd_us"] +=
        median_us([&] { net->child(i).forward(acts[i]); });
  }
  for (std::size_t i = 0; i < layers; ++i) net->child(i).forward(acts[i]);
  std::vector<tensor::Tensor> grads(layers + 1);
  grads[layers] = nn::softmax_cross_entropy(acts.back(), batch.labels).grad_logits;
  for (std::size_t i = layers; i-- > 0;) grads[i] = net->child(i).backward(grads[i + 1]);
  for (std::size_t i = layers; i-- > 0;) {
    out[std::string("nn.") + layer_role(net->child(i)) + ".bwd_us"] +=
        median_us([&] { net->child(i).backward(grads[i + 1]); });
  }
  out["nn.loss_us"] = median_us([&] { nn::softmax_cross_entropy(acts.back(), batch.labels); });
  out["nn.compute_gradients_us"] =
      median_us([&] { model.compute_gradients(batch.inputs, batch.labels); });
  const nn::ModelState initial = model.state();
  {
    nn::SgdOptimizer optimizer(model.parameters(), w.options.optimizer);
    out["nn.sgd_step_us"] = median_us([&] { optimizer.step(); });
  }
  model.load(initial);
  const data::Batch test = setup.test_set.as_batch();
  out["nn.eval_forward_ms"] =
      median_ns([&] { model.evaluate(test.inputs, test.labels); }) * 1e-6;
  out["nn.load_us"] = median_us([&] { model.load(initial); });
  nn::ModelState captured;
  out["nn.capture_state_us"] =
      median_us([&] { nn::capture_state_into(model.parameters(), captured); });

  // --- tensor: every GEMM call one SGD step issues, derived from parameter
  // shapes and the activations around each layer (the call pattern of
  // src/nn/{conv2d,linear,lstm}.cpp), summed per step.
  std::map<GemmShape, double> gemm_calls;
  for (std::size_t i = 0; i < layers; ++i) {
    nn::Module& layer = net->child(i);
    const std::string type = layer.type_name();
    const std::vector<nn::Parameter*> params = layer.parameters();
    const std::size_t n = acts[i].dim(0);
    if (type == "Conv2d") {
      // Per sample: weight [O, C*k*k] times the im2col panel of the output's
      // pixels, forward and both backward products.
      const std::size_t o = params[0]->value.dim(0), ckk = params[0]->value.dim(1);
      const std::size_t pixels = acts[i + 1].dim(2) * acts[i + 1].dim(3);
      gemm_calls[{Gemm::kNN, o, ckk, pixels}] += static_cast<double>(n);
      gemm_calls[{Gemm::kNT, o, pixels, ckk}] += static_cast<double>(n);
      gemm_calls[{Gemm::kTN, o, ckk, pixels}] += static_cast<double>(n);
    } else if (type == "Linear") {
      const std::size_t outs = params[0]->value.dim(0), ins = params[0]->value.dim(1);
      gemm_calls[{Gemm::kNT, n, ins, outs}] += 1.0;
      gemm_calls[{Gemm::kTN, n, outs, ins}] += 1.0;
      gemm_calls[{Gemm::kNN, n, outs, ins}] += 1.0;
    } else if (type == "LSTM") {
      const auto steps = static_cast<double>(acts[i].dim(1));
      const std::size_t gates = params[0]->value.dim(0);
      for (const std::size_t width : {params[0]->value.dim(1), params[1]->value.dim(1)}) {
        gemm_calls[{Gemm::kNT, n, width, gates}] += steps;
        gemm_calls[{Gemm::kTN, n, gates, width}] += steps;
        gemm_calls[{Gemm::kNN, n, gates, width}] += steps;
      }
    }
  }
  for (const auto& [shape, calls] : gemm_calls) {
    const std::size_t m = shape.m, k = shape.k, n = shape.n;
    std::vector<float> a(m * k, 0.01f), b(std::max(k * n, m * n), 0.02f),
        c(std::max(m * n, k * n));
    if (shape.variant == Gemm::kNN) {
      out["tensor.gemm_us"] +=
          calls * median_us([&] { tensor::gemm(m, k, n, a.data(), b.data(), c.data()); });
    } else if (shape.variant == Gemm::kNT) {
      out["tensor.gemm_nt_us"] +=
          calls * median_us([&] { tensor::gemm_nt(m, k, n, a.data(), b.data(), c.data()); });
    } else {
      out["tensor.gemm_tn_us"] +=
          calls * median_us([&] { tensor::gemm_tn(m, k, n, a.data(), b.data(), c.data()); });
    }
  }
  {
    const std::size_t numel = initial.numel();
    std::vector<float> x(numel, 0.5f), y(numel, 0.25f);
    out["tensor.axpy_ns"] = median_ns([&] { tensor::axpy(1e-3f, x, y); });
  }

  // --- sim: the workload's own cluster (compact registry on pop_1m).
  sim::Cluster& cluster = *setup.cluster;
  util::Rng pick = rng.fork(1);
  out["sim.lease_us"] = median_us([&] {
    const sim::DeviceLease lease = cluster.lease(pick.uniform_index(cluster.size()));
  });
  {
    double t = 0.0;
    out["sim.online_at_ns"] =
        median_ns([&] { cluster.online_at(pick.uniform_index(cluster.size()), t += 1.0); });
  }
  {
    const sim::DeviceLease device = cluster.lease(0);
    const double work = model.info().nominal_iteration_seconds;
    const double bytes = static_cast<double>(initial.numel()) *
                         model.info().bytes_per_actual_param();
    double t = 0.0;
    out["sim.compute_finish_ns"] = median_ns([&] { t = device->compute_finish(t, work); });
    double u = 0.0;
    out["sim.transmit_ns"] = median_ns([&] { u = device->uplink().transmit(u, bytes).end; });
  }

  // --- data: batches and the loader cursor restore a lease performs.
  out["data.next_batch_us"] = median_us([&] { loader.next_batch(); });
  {
    data::BatchLoader advanced(&shard, batch_size, rng);
    for (std::size_t s = 0; s < client_steps(w); ++s) advanced.next_batch();
    const data::BatchLoader::Cursor cursor = advanced.cursor();
    out["data.loader_restore_us"] = median_us([&] {
      data::BatchLoader restored(&shard, batch_size, rng);
      restored.restore(cursor);
    });
  }

  // --- util: cohort sampling at the million-client geometry.
  util::Rng cohort = rng.fork(2);
  out["util.sample_cohort_us"] =
      median_us([&] { cohort.sample_without_replacement(1'000'000, 1024); });

  return {out.begin(), out.end()};
}

}  // namespace fedca::suite
