// Module/Parameter abstraction of the neural-network substrate.
//
// Every trainable tensor is a named Parameter; names follow PyTorch
// conventions ("conv2.weight", "rnn.weight_hh_l0", ...). This matters
// beyond aesthetics: FedCA's per-layer mechanisms (Figs. 3 & 5, eager
// transmission of Sec. 4.3) operate at exactly this granularity — one
// "layer" in the paper is one named parameter tensor here.
//
// Modules implement an explicit reverse pass: forward() caches whatever the
// matching backward() needs; backward() consumes the output gradient,
// *accumulates* into each parameter's .grad, and returns the input
// gradient. No autograd tape — the model zoo is small and static, and the
// explicit style keeps per-iteration update accounting (the heart of the
// statistical-progress metric) easy to audit.
#pragma once

#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "tensor/tensor.hpp"
#include "util/rng.hpp"

namespace fedca::nn {

using tensor::Tensor;

// A named trainable tensor with its gradient accumulator.
struct Parameter {
  std::string name;
  Tensor value;
  Tensor grad;

  Parameter() = default;
  Parameter(std::string n, Tensor v)
      : name(std::move(n)), value(std::move(v)), grad(value.shape()) {}

  std::size_t numel() const { return value.numel(); }
};

class Module {
 public:
  virtual ~Module() = default;

  // Maps a batch of inputs to a batch of outputs. Input layout is
  // module-specific (dense: [N, F]; conv: [N, C*H*W] flattened with known
  // geometry; recurrent: [N, T*F]). Implementations cache activations
  // needed by backward().
  virtual Tensor forward(const Tensor& input) = 0;

  // Propagates the loss gradient. Must be called after forward() with a
  // gradient matching forward's output shape. Accumulates parameter
  // gradients and returns d(loss)/d(input).
  virtual Tensor backward(const Tensor& grad_output) = 0;

  // backward() for a module whose input gradient nobody reads — the layer
  // that consumes the model input. Same preconditions as backward(), and it
  // accumulates the same parameter gradients bit for bit; it only may skip
  // computing d(loss)/d(input) (Conv2d skips its transposed GEMM and
  // col2im, LSTM its per-timestep input GEMM). Classifier::compute_gradients
  // calls it on the backbone; Sequential forwards it to its first child.
  // Default: backward() with the result dropped.
  virtual void backward_params(const Tensor& grad_output) { backward(grad_output); }

  // Trainable parameters in a stable order (pointers remain valid for the
  // module's lifetime). Default: none.
  virtual std::vector<Parameter*> parameters() { return {}; }

  // Human-readable type name for diagnostics.
  virtual std::string type_name() const = 0;

  // Switches between training and inference behaviour (batch-norm
  // statistics). Containers propagate to children; stateless modules
  // ignore it.
  virtual void set_training(bool /*training*/) {}

  // Deep copy: a structurally identical module tree with its own
  // parameters and buffers (cached activations may be copied too; the
  // next forward() overwrites them). Every module implements it: both
  // engines train each client on a clone of the shared model.
  virtual std::unique_ptr<Module> clone() const = 0;

  // Visits every non-parameter state buffer (batch-norm running
  // statistics) in a stable order; containers forward to children.
  // Modules without buffers (the default) visit nothing. The engines use
  // this to snapshot/restore buffer state around parallel client
  // training so eval-time statistics stay worker-count independent.
  virtual void visit_buffers(const std::function<void(std::span<double>)>& /*fn*/) {}

  // Clears all parameter gradients.
  void zero_grad();
};

// Total scalar parameter count across a module.
std::size_t parameter_count(Module& module);

// Flattens every buffer visited by visit_buffers into one vector (empty
// when the module has none).
std::vector<double> capture_buffers(Module& module);
// Writes `data` (as produced by capture_buffers on an identically
// structured module) back into the buffers; throws on size mismatch.
void load_buffers(Module& module, const std::vector<double>& data);

}  // namespace fedca::nn
