// SGD optimizer with weight decay and an optional FedProx proximal term.
//
// FedProx (Li et al., MLSys 2020 — baseline in the paper's Sec. 5.1) adds
// (mu/2)||w - w_global||^2 to each client's local objective; its gradient
// contribution mu * (w - w_anchor) is applied here at step time against the
// round-start snapshot, exactly matching how a loss-side implementation
// would behave for plain SGD.
//
// A step is one tensor::sgd_update pass per parameter (built with the
// kernel flags, vectorized, its branches hoisted). Per element it runs
// g = grad; g += wd * w (only when wd != 0); g += mu * (w - anchor) (only
// when mu != 0); w -= lr * g — each product, sum and difference rounded on
// its own in float, never fused, in that order.
#pragma once

#include <optional>
#include <vector>

#include "nn/module.hpp"

namespace fedca::nn {

struct SgdOptions {
  double learning_rate = 0.01;
  double weight_decay = 0.0;
  // FedProx proximal coefficient mu; 0 disables the term.
  double prox_mu = 0.0;
};

class SgdOptimizer {
 public:
  SgdOptimizer(std::vector<Parameter*> params, SgdOptions options);

  // Snapshots current parameter values as the proximal anchor (call at
  // round start when prox_mu > 0).
  void capture_prox_anchor();

  // Applies one update step: w -= lr * (grad + wd * w + mu * (w - anchor)),
  // in the op order above. Throws std::logic_error when prox_mu != 0 and
  // no anchor was captured.
  void step();

  const SgdOptions& options() const { return options_; }
  void set_learning_rate(double lr) { options_.learning_rate = lr; }

 private:
  std::vector<Parameter*> params_;
  SgdOptions options_;
  std::vector<Tensor> prox_anchor_;  // parallel to params_; empty if unset
};

}  // namespace fedca::nn
