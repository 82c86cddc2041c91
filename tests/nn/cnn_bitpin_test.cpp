// CNN bit pins: FNV-1a digests of LeNet-5 and WRN-lite logits (training-
// and eval-mode forwards) at batch sizes 1, 10 and 320, and of their
// parameter and input gradients over two SGD steps at batch sizes 1 and
// 10, on every SIMD tier this host runs. The digests were recorded from
// the scalar ReLU/MaxPool loops the tensor::relu / tensor::max_pool2d
// kernels replaced, so any change to a single output bit fails here.
// WRN-lite puts its ReLUs inside Residual blocks and BatchNorm2d beside
// them. Eval mode (no backward caches in ReLU, MaxPool2d, Conv2d and
// Linear) must give the training-mode output bits, and backward after it
// must throw.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "nn/activations.hpp"
#include "nn/conv2d.hpp"
#include "nn/linear.hpp"
#include "nn/loss.hpp"
#include "nn/models.hpp"
#include "tensor/ops.hpp"
#include "tensor/simd/dispatch.hpp"
#include "util/rng.hpp"

namespace fedca::nn {
namespace {

namespace simd = tensor::simd;

std::vector<simd::Tier> host_tiers() {
  std::vector<simd::Tier> tiers{simd::Tier::kScalar};
  if (simd::avx2_supported()) tiers.push_back(simd::Tier::kAvx2);
  if (simd::avx512_supported()) tiers.push_back(simd::Tier::kAvx512);
  return tiers;
}

// Running FNV-1a over raw float bytes.
struct Fnv {
  std::uint64_t h = 1469598103934665603ull;
  void add(const Tensor& t) {
    const auto* bytes = reinterpret_cast<const unsigned char*>(t.raw());
    for (std::size_t i = 0; i < t.numel() * sizeof(float); ++i) {
      h ^= bytes[i];
      h *= 1099511628211ull;
    }
  }
};

Tensor random_tensor(tensor::Shape shape, util::Rng& rng) {
  Tensor t(std::move(shape));
  for (std::size_t i = 0; i < t.numel(); ++i) t[i] = static_cast<float>(rng.normal(0.0, 1.0));
  return t;
}

Classifier build(ModelKind kind, util::Rng& rng) {
  const InputGeometry geo = default_geometry(kind);
  return kind == ModelKind::kCnn ? build_lenet5(geo, 10, rng) : build_wrn_lite(geo, 10, rng);
}

Tensor image_batch(ModelKind kind, std::size_t n, util::Rng& rng) {
  const InputGeometry geo = default_geometry(kind);
  return random_tensor({n, geo.channels, geo.height, geo.width}, rng);
}

std::vector<int> labels_for(std::size_t n) {
  std::vector<int> labels(n);
  for (std::size_t s = 0; s < n; ++s) labels[s] = static_cast<int>(s % 10);
  return labels;
}

struct Digests {
  std::uint64_t logits, eval, grads, input_grad;
};

// A training-mode forward, an eval-mode forward, and (with_steps) two SGD
// steps (lr 0.05): step 0 through Classifier::compute_gradients (the
// backward_params path), step 1 through the backbone's full backward,
// whose input gradient is digested too.
Digests run(ModelKind kind, std::size_t n, bool with_steps) {
  util::Rng rng(4321 + n);
  Classifier model = build(kind, rng);
  const Tensor input = image_batch(kind, n, rng);
  const std::vector<int> labels = labels_for(n);
  Fnv logits, eval, grads, input_grad;
  logits.add(model.forward(input));
  model.set_training(false);
  eval.add(model.forward(input));
  model.set_training(true);
  if (with_steps) {
    for (int step = 0; step < 2; ++step) {
      if (step == 0) {
        (void)model.compute_gradients(input, labels);
      } else {
        model.backbone().zero_grad();
        const Tensor out = model.forward(input);
        logits.add(out);
        input_grad.add(model.backbone().backward(softmax_cross_entropy(out, labels).grad_logits));
      }
      for (Parameter* p : model.parameters()) {
        grads.add(p->grad);
        tensor::add_scaled(p->value, -0.05f, p->grad);
      }
    }
  }
  return {logits.h, eval.h, grads.h, input_grad.h};
}

TEST(CnnBitPin, DigestsMatchOnEveryTier) {
  struct Case {
    ModelKind kind;
    std::size_t n;
    Digests want;
  };
  // kEmpty is the digest of no bytes: no SGD steps run at N = 320.
  constexpr std::uint64_t kEmpty = 1469598103934665603ull;
  const Case cases[] = {
      {ModelKind::kCnn, 1,
       {0xb54b0acc25b09aa9ull, 0xd4ff5001060c71e4ull, 0x428c64c1ee15830cull,
        0x503eac84b37ebd55ull}},
      {ModelKind::kCnn, 10,
       {0x72943c3c89e28816ull, 0x8d7caae93bdacb93ull, 0x01c63df649d4bdf7ull,
        0xa1df957d1d9b0a2cull}},
      {ModelKind::kCnn, 320, {0x38bb833df356c72aull, 0x38bb833df356c72aull, kEmpty, kEmpty}},
      {ModelKind::kWrn, 1,
       {0x5686734b03b4faf2ull, 0x1d40166c010afc09ull, 0xe3bc5ddf1ae8d58dull,
        0x44878fad31e1cca5ull}},
      {ModelKind::kWrn, 10,
       {0xdacf95c092660dcaull, 0xcb310e0e83c45fb4ull, 0x5bed67e91e9f6248ull,
        0xc9ee5ab8da748914ull}},
      {ModelKind::kWrn, 320, {0x617f7dd33ce623f1ull, 0x6144f8598438eb9dull, kEmpty, kEmpty}},
  };
  for (const simd::Tier tier : host_tiers()) {
    simd::set_tier_for_testing(tier);
    for (const Case& c : cases) {
      const Digests got = run(c.kind, c.n, /*with_steps=*/c.n <= 10);
      const std::string where = model_kind_name(c.kind) + " N=" + std::to_string(c.n) +
                                " tier " + simd::tier_name(tier);
      EXPECT_EQ(got.logits, c.want.logits) << where << " logits 0x" << std::hex << got.logits;
      EXPECT_EQ(got.eval, c.want.eval) << where << " eval 0x" << std::hex << got.eval;
      EXPECT_EQ(got.grads, c.want.grads) << where << " grads 0x" << std::hex << got.grads;
      EXPECT_EQ(got.input_grad, c.want.input_grad)
          << where << " input grad 0x" << std::hex << got.input_grad;
    }
  }
  simd::reset_tier_from_env();
}

bool same_bits(const Tensor& a, const Tensor& b) {
  return a.same_shape(b) && std::memcmp(a.raw(), b.raw(), a.numel() * sizeof(float)) == 0;
}

std::vector<float> grads_of(const std::vector<Parameter*>& params) {
  std::vector<float> all;
  for (const Parameter* p : params) {
    all.insert(all.end(), p->grad.raw(), p->grad.raw() + p->grad.numel());
  }
  return all;
}

void expect_eval_mode_throw(const std::function<void()>& backward, const std::string& who) {
  try {
    backward();
    ADD_FAILURE() << who << ": backward after an eval-mode forward did not throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("eval mode"), std::string::npos) << who << ": "
                                                                          << e.what();
  }
}

// Each layer that drops its backward cache in eval mode, as a factory of
// fresh, identically initialised copies, with its input shape at batch n.
struct LayerCase {
  std::string name;
  std::function<std::unique_ptr<Module>()> make;
  std::function<tensor::Shape(std::size_t)> input_shape;
};

std::vector<LayerCase> cache_dropping_layers() {
  return {
      {"ReLU", [] { return std::make_unique<ReLU>(); },
       [](std::size_t n) { return tensor::Shape{n, 6, 16, 16}; }},
      {"MaxPool2d", [] { return std::make_unique<MaxPool2d>(6, 16, 16, 2); },
       [](std::size_t n) { return tensor::Shape{n, 6, 16, 16}; }},
      {"Conv2d",
       [] {
         util::Rng rng(99);
         return std::make_unique<Conv2d>("conv1", 3, 6, 16, 16, 5, 1, 2, rng);
       },
       [](std::size_t n) { return tensor::Shape{n, 3, 16, 16}; }},
      {"Linear",
       [] {
         util::Rng rng(98);
         return std::make_unique<Linear>("fc1", 64, 12, rng);
       },
       [](std::size_t n) { return tensor::Shape{n, 64}; }},
  };
}

TEST(CnnEvalMode, LayersMatchTrainingAndKeepNoCache) {
  for (const LayerCase& lc : cache_dropping_layers()) {
    for (const std::size_t n : {1u, 10u, 320u}) {
      const std::string where = lc.name + " N=" + std::to_string(n);
      util::Rng rng(55 + n);
      const Tensor input = random_tensor(lc.input_shape(n), rng);
      std::unique_ptr<Module> layer = lc.make();
      const Tensor trained = layer->forward(input);
      const Tensor grad = random_tensor(trained.shape(), rng);
      layer->set_training(false);
      EXPECT_TRUE(same_bits(layer->forward(input), trained)) << where;
      // The eval forward dropped the training forward's cache, and a clone
      // carries none.
      expect_eval_mode_throw([&] { (void)layer->backward(grad); }, where + " backward");
      expect_eval_mode_throw([&] { layer->backward_params(grad); }, where + " backward_params");
      expect_eval_mode_throw([&] { (void)layer->clone()->backward(grad); }, where + " clone");

      // Back in training mode, after a forward at another batch size, the
      // gradients equal a fresh layer's.
      layer->set_training(true);
      (void)layer->forward(random_tensor(lc.input_shape(n + 1), rng));
      layer->zero_grad();
      (void)layer->forward(input);
      const Tensor dx = layer->backward(grad);
      std::unique_ptr<Module> fresh = lc.make();
      (void)fresh->forward(input);
      EXPECT_TRUE(same_bits(dx, fresh->backward(grad))) << where;
      EXPECT_EQ(grads_of(layer->parameters()), grads_of(fresh->parameters())) << where;
    }
  }
}

TEST(CnnEvalMode, LeNetEvalMatchesTrainingAndRetrainsLikeFresh) {
  for (const simd::Tier tier : host_tiers()) {
    simd::set_tier_for_testing(tier);
    for (const std::size_t n : {1u, 10u, 320u}) {
      const std::string where = "N=" + std::to_string(n) + " tier " + simd::tier_name(tier);
      util::Rng rng(66 + n);
      Classifier model = build(ModelKind::kCnn, rng);
      const Tensor input = image_batch(ModelKind::kCnn, n, rng);
      const std::vector<int> labels = labels_for(n);
      const Tensor trained = model.forward(input);
      model.set_training(false);
      EXPECT_TRUE(same_bits(model.forward(input), trained)) << where;
      const Tensor grad = softmax_cross_entropy(trained, labels).grad_logits;
      expect_eval_mode_throw([&] { model.backbone().backward_params(grad); }, where);
      // evaluate() switches to eval mode and back: training resumes, and
      // its gradients equal a fresh model's.
      model.set_training(true);
      (void)model.evaluate(input, labels);
      (void)model.compute_gradients(input, labels);
      util::Rng fresh_rng(66 + n);
      Classifier fresh = build(ModelKind::kCnn, fresh_rng);
      (void)fresh.compute_gradients(input, labels);
      EXPECT_EQ(grads_of(model.parameters()), grads_of(fresh.parameters())) << where;
    }
  }
  simd::reset_tier_from_env();
}

}  // namespace
}  // namespace fedca::nn
