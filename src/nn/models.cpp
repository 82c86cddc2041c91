#include "nn/models.hpp"

#include <algorithm>
#include <cctype>
#include <stdexcept>

#include "nn/activations.hpp"
#include "nn/conv2d.hpp"
#include "nn/linear.hpp"
#include "nn/lstm.hpp"
#include "nn/norm.hpp"
#include "nn/sequential.hpp"

namespace fedca::nn {

ModelKind parse_model_kind(const std::string& name) {
  std::string lower = name;
  std::transform(lower.begin(), lower.end(), lower.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  if (lower == "cnn" || lower == "lenet" || lower == "lenet5") return ModelKind::kCnn;
  if (lower == "lstm") return ModelKind::kLstm;
  if (lower == "wrn" || lower == "wideresnet") return ModelKind::kWrn;
  throw std::invalid_argument("unknown model kind: " + name);
}

std::string model_kind_name(ModelKind kind) {
  switch (kind) {
    case ModelKind::kCnn: return "CNN";
    case ModelKind::kLstm: return "LSTM";
    case ModelKind::kWrn: return "WRN";
  }
  return "?";
}

Classifier::Classifier(std::unique_ptr<Module> backbone, ModelInfo info)
    : backbone_(std::move(backbone)), info_(std::move(info)) {
  if (!backbone_) throw std::invalid_argument("Classifier: null backbone");
  info_.actual_params = parameter_count(*backbone_);
  params_ = backbone_->parameters();
}

std::unique_ptr<Classifier> Classifier::clone() const {
  auto out = std::make_unique<Classifier>(backbone_->clone(), info_);
  // The ctor recomputes actual_params; keep the exact original info in
  // case a caller tweaked it after construction.
  out->info_ = info_;
  return out;
}

Tensor Classifier::forward(const Tensor& inputs) { return backbone_->forward(inputs); }

double Classifier::compute_gradients(const Tensor& inputs, const std::vector<int>& labels) {
  for (Parameter* p : params_) p->grad.zero();
  Tensor logits = backbone_->forward(inputs);
  LossResult result = softmax_cross_entropy(logits, labels);
  backbone_->backward_params(result.grad_logits);
  return result.loss;
}

Classifier::EvalResult Classifier::evaluate(const Tensor& inputs,
                                            const std::vector<int>& labels) {
  backbone_->set_training(false);
  Tensor logits = backbone_->forward(inputs);
  backbone_->set_training(true);
  LossResult lr = softmax_cross_entropy(logits, labels);
  return EvalResult{lr.loss, accuracy(logits, labels)};
}

InputGeometry default_geometry(ModelKind kind) {
  InputGeometry geo;
  switch (kind) {
    case ModelKind::kCnn:
    case ModelKind::kWrn:
      geo.channels = 3;
      geo.height = 16;
      geo.width = 16;
      break;
    case ModelKind::kLstm:
      geo.seq_len = 16;
      geo.features = 8;
      break;
  }
  return geo;
}

Classifier build_model(ModelKind kind, util::Rng& rng) {
  const InputGeometry geo = default_geometry(kind);
  switch (kind) {
    case ModelKind::kCnn: return build_lenet5(geo, 10, rng);
    case ModelKind::kLstm: return build_lstm_classifier(geo, 10, rng);
    case ModelKind::kWrn: return build_wrn_lite(geo, 10, rng);
  }
  throw std::invalid_argument("build_model: bad kind");
}

Classifier build_lenet5(const InputGeometry& geo, std::size_t num_classes, util::Rng& rng) {
  auto net = std::make_unique<Sequential>();
  // conv1 keeps spatial size (k5 pad2), pool halves; conv2 likewise.
  const std::size_t h1 = geo.height, w1 = geo.width;
  net->add(std::make_unique<Conv2d>("conv1", geo.channels, 6, h1, w1, 5, 1, 2, rng));
  net->add(std::make_unique<ReLU>());
  net->add(std::make_unique<MaxPool2d>(6, h1, w1, 2));
  const std::size_t h2 = h1 / 2, w2 = w1 / 2;
  net->add(std::make_unique<Conv2d>("conv2", 6, 16, h2, w2, 5, 1, 2, rng));
  net->add(std::make_unique<ReLU>());
  net->add(std::make_unique<MaxPool2d>(16, h2, w2, 2));
  const std::size_t h3 = h2 / 2, w3 = w2 / 2;
  net->add(std::make_unique<Flatten>());
  const std::size_t flat = 16 * h3 * w3;
  net->add(std::make_unique<Linear>("fc1", flat, 120, rng));
  net->add(std::make_unique<ReLU>());
  net->add(std::make_unique<Linear>("fc2", 120, 84, rng));
  net->add(std::make_unique<ReLU>());
  net->add(std::make_unique<Linear>("fc3", 84, num_classes, rng));

  ModelInfo info;
  info.kind = ModelKind::kCnn;
  info.name = "CNN";
  info.num_classes = num_classes;
  info.simulated_params = 60'000;          // LeNet-5 at paper scale
  info.nominal_iteration_seconds = 0.10;   // calibrated to Table 1 regime
  return Classifier(std::move(net), info);
}

Classifier build_lstm_classifier(const InputGeometry& geo, std::size_t num_classes,
                                 util::Rng& rng) {
  auto net = std::make_unique<Sequential>();
  const std::size_t hidden = 96;
  net->add(std::make_unique<LSTM>("rnn", geo.features, hidden, geo.seq_len, rng));
  net->add(std::make_unique<ReLU>());
  net->add(std::make_unique<Linear>("fc", hidden, num_classes, rng));

  ModelInfo info;
  info.kind = ModelKind::kLstm;
  info.name = "LSTM";
  info.num_classes = num_classes;
  info.simulated_params = 50'000;          // paper-scale LSTM
  info.nominal_iteration_seconds = 0.20;
  return Classifier(std::move(net), info);
}

namespace {

// One pre-activation-free WRN block: conv-bn-relu-conv-bn on the main path,
// optional 1x1 strided projection on the shortcut, ReLU after the sum.
// Parameter names mimic the paper's Fig. 3 labels
// ("conv<g>.<b>.residual.<i>.weight" / ".bias").
std::unique_ptr<Module> make_wrn_block(const std::string& prefix, std::size_t in_c,
                                       std::size_t out_c, std::size_t in_h,
                                       std::size_t in_w, std::size_t stride,
                                       util::Rng& rng) {
  const std::size_t out_h = in_h / stride;
  const std::size_t out_w = in_w / stride;

  auto main = std::make_unique<Sequential>();
  main->add(std::make_unique<Conv2d>(prefix + ".residual.0", in_c, out_c, in_h, in_w, 3,
                                     stride, 1, rng));
  main->add(std::make_unique<BatchNorm2d>(prefix + ".residual.1", out_c, out_h, out_w));
  main->add(std::make_unique<ReLU>());
  main->add(std::make_unique<Conv2d>(prefix + ".residual.3", out_c, out_c, out_h, out_w, 3,
                                     1, 1, rng));
  main->add(std::make_unique<BatchNorm2d>(prefix + ".residual.4", out_c, out_h, out_w));

  std::unique_ptr<Module> shortcut;
  if (in_c != out_c || stride != 1) {
    auto proj = std::make_unique<Sequential>();
    proj->add(std::make_unique<Conv2d>(prefix + ".shortcut.0", in_c, out_c, in_h, in_w, 1,
                                       stride, 0, rng, /*bias=*/false));
    shortcut = std::move(proj);
  }
  auto block = std::make_unique<Sequential>();
  block->add(std::make_unique<Residual>(std::move(main), std::move(shortcut)));
  block->add(std::make_unique<ReLU>());
  return block;
}

}  // namespace

Classifier build_wrn_lite(const InputGeometry& geo, std::size_t num_classes, util::Rng& rng) {
  auto net = std::make_unique<Sequential>();
  const std::size_t h = geo.height, w = geo.width;
  net->add(std::make_unique<Conv2d>("conv1", geo.channels, 8, h, w, 3, 1, 1, rng));
  net->add(std::make_unique<ReLU>());
  // Three groups like WRN-28's conv2/conv3/conv4, one block each, width
  // doubling and spatial halving between groups.
  net->add(make_wrn_block("conv2.0", 8, 8, h, w, 1, rng));
  net->add(make_wrn_block("conv3.0", 8, 16, h, w, 2, rng));
  net->add(make_wrn_block("conv4.0", 16, 32, h / 2, w / 2, 2, rng));
  net->add(std::make_unique<GlobalAvgPool>(32, h / 4, w / 4));
  net->add(std::make_unique<Linear>("fc", 32, num_classes, rng));

  ModelInfo info;
  info.kind = ModelKind::kWrn;
  info.name = "WRN";
  info.num_classes = num_classes;
  info.simulated_params = 36'000'000;      // WideResNet-28-10 at paper scale
  info.nominal_iteration_seconds = 40.0;   // compute-heavy regime of Table 1
  return Classifier(std::move(net), info);
}

}  // namespace fedca::nn
