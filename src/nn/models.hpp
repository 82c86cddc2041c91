// Model zoo: the three workloads of the paper's evaluation (Sec. 5.1).
//
//   * "CNN"  — LeNet-5-style convnet (paper: LeNet-5 on CIFAR-10, ~60 K
//              parameters),
//   * "LSTM" — recurrent keyword-spotting classifier (paper: LSTM on the
//              KWS speech-commands set, ~50 K parameters),
//   * "WRN"  — residual wide-ResNet-style convnet (paper: WideResNet-28-10
//              on CIFAR-100, 36 M parameters).
//
// We train honest, smaller instantiations (documented in DESIGN.md); the
// *system* costs of the paper-scale originals — parameter bytes on the wire
// and per-iteration compute — are carried in ModelInfo and consumed by the
// cluster simulator, so the communication/computation regime of each
// workload matches the paper even though the arithmetic runs on the
// laptop-scale models.
#pragma once

#include <memory>
#include <string>

#include "nn/loss.hpp"
#include "nn/module.hpp"
#include "nn/state.hpp"

namespace fedca::nn {

enum class ModelKind { kCnn, kLstm, kWrn };

// Parses "cnn" / "lstm" / "wrn" (case-insensitive); throws on other input.
ModelKind parse_model_kind(const std::string& name);
std::string model_kind_name(ModelKind kind);

// Input geometry + system-cost metadata of one workload.
struct ModelInfo {
  ModelKind kind = ModelKind::kCnn;
  std::string name;          // "CNN" | "LSTM" | "WRN"
  std::size_t num_classes = 10;
  // Actual trainable scalar count of the instantiated model.
  std::size_t actual_params = 0;
  // Paper-scale parameter count used for wire-size accounting
  // (60 K / 50 K / 36 M).
  std::size_t simulated_params = 0;
  // Median-device seconds per local iteration at paper scale; the
  // simulator divides by each client's speed factor.
  double nominal_iteration_seconds = 0.1;

  // Bytes on the wire for a full-model update at simulated scale.
  double simulated_model_bytes() const {
    return static_cast<double>(simulated_params) * 4.0;
  }
  // Scale factor mapping actual parameter counts to simulated bytes; a
  // layer with n scalars costs n * bytes_per_actual_param() on the wire, so
  // per-layer eager transmission sees proportionally-sized transfers.
  double bytes_per_actual_param() const {
    if (actual_params == 0) return 4.0;
    return simulated_model_bytes() / static_cast<double>(actual_params);
  }
};

// A classification model: backbone producing logits + helpers for the
// training loop. The backbone is a Module tree with named parameters.
class Classifier {
 public:
  Classifier(std::unique_ptr<Module> backbone, ModelInfo info);

  Module& backbone() { return *backbone_; }
  const ModelInfo& info() const { return info_; }

  // Forward pass to logits (respects train/eval mode).
  Tensor forward(const Tensor& inputs);
  // zero_grad + forward + softmax-CE + backward. Parameter gradients are
  // left populated for an optimizer step (bit-identical to a full
  // backward(); the gradient w.r.t. the inputs is never formed — see
  // Module::backward_params). Returns the mean batch loss.
  double compute_gradients(const Tensor& inputs, const std::vector<int>& labels);
  // Mean loss and accuracy without touching gradients (eval mode).
  struct EvalResult {
    double loss = 0.0;
    double accuracy = 0.0;
  };
  EvalResult evaluate(const Tensor& inputs, const std::vector<int>& labels);

  // Deep copy for client training: an independent backbone with its own
  // parameters and batch-norm buffers.
  std::unique_ptr<Classifier> clone() const;

  // Flat parameter list, cached at construction (parameter pointers stay
  // valid for the backbone's lifetime) — the hot loop reuses this instead
  // of re-walking the module tree every call.
  const std::vector<Parameter*>& parameters() { return params_; }
  ModelState state() {
    ModelState s;
    capture_state_into(params_, s);
    return s;
  }
  void load(const ModelState& state) { load_state(params_, state); }
  void set_training(bool training) { backbone_->set_training(training); }

 private:
  std::unique_ptr<Module> backbone_;
  ModelInfo info_;
  std::vector<Parameter*> params_;
};

// Synthetic-input geometry shared between the model builders and the data
// generators (data/synthetic.*).
struct InputGeometry {
  // Image models (CNN, WRN).
  std::size_t channels = 3;
  std::size_t height = 16;
  std::size_t width = 16;
  // Sequence model (LSTM).
  std::size_t seq_len = 16;
  std::size_t features = 8;
};

InputGeometry default_geometry(ModelKind kind);

// Builds a workload model with deterministic initialization from `rng`.
// All three builders use default_geometry(kind) and 10 classes.
Classifier build_model(ModelKind kind, util::Rng& rng);

// Individual builders (exposed for tests/examples that want to tweak).
Classifier build_lenet5(const InputGeometry& geo, std::size_t num_classes, util::Rng& rng);
Classifier build_lstm_classifier(const InputGeometry& geo, std::size_t num_classes,
                                 util::Rng& rng);
Classifier build_wrn_lite(const InputGeometry& geo, std::size_t num_classes, util::Rng& rng);

}  // namespace fedca::nn
