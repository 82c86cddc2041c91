#include "core/fedca_policy.hpp"

#include <algorithm>

#include "obs/session.hpp"

namespace fedca::core {

FedCaClientPolicy::FedCaClientPolicy(FedCaOptions options, util::Rng rng)
    : options_(options), profiler_(options.profiler, rng) {}

void FedCaClientPolicy::on_round_start(const fl::RoundInfo& round,
                                       const nn::ModelState& global) {
  anchor_round_ = profiler_.is_anchor_round(round.round_index);
  lr_decayed_ = false;
  eager_sent_.assign(global.tensors.size(), false);
  if (anchor_round_) profiler_.begin_round(round.round_index, global);
}

fl::IterationDecision FedCaClientPolicy::after_iteration(const fl::IterationView& view) {
  fl::IterationDecision decision;
  if (anchor_round_) {
    // Anchor rounds only observe: record the sampled update, never
    // optimize, so the profiled curve covers the full K iterations.
    // The recording cost is exactly the Sec. 5.5 overhead claim, so it is
    // measured on the wall clock.
    FEDCA_WALL_SPAN("profiler.record_iteration");
    profiler_.record_iteration(*view.model);
    return decision;
  }
  if (!profiler_.has_curves()) return decision;  // pre-first-anchor warm-up

  // Communication optimization first (Eq. 5): a layer that both
  // stabilizes and is about to be early-stopped past should still go out.
  decision.eager_layers = layers_to_transmit(profiler_.layer_curves(), view.iteration,
                                             eager_sent_, options_.eager);
  for (const std::size_t layer : decision.eager_layers) eager_sent_[layer] = true;
  FEDCA_MCOUNT("fedca.eager_layers", static_cast<double>(decision.eager_layers.size()));

  // Computation optimization (Eqs. 2-4). Cost and deadline share the
  // round-start clock base: T_R is announced relative to round start and
  // the estimator's observations (arrival - round start) use the same
  // base, so t_{R,tau} here includes the download like the observations
  // the deadline was fit on.
  const double deadline_rel = (view.round->deadline == fl::kNoDeadline)
                                  ? fl::kNoDeadline
                                  : view.round->deadline - view.round->start_time;
  const double elapsed = view.now - view.round->start_time;
  decision.stop = should_stop_after(profiler_.model_curve(), view.iteration,
                                    view.round->planned_iterations, elapsed,
                                    deadline_rel, options_.early_stop);
  if (decision.stop) {
    FEDCA_MCOUNT("fedca.early_stops", 1.0);
    FEDCA_MHISTO("fedca.stop_iteration", 0.0,
                 static_cast<double>(std::max<std::size_t>(1, view.round->nominal_iterations)),
                 32, static_cast<double>(view.iteration));
    if (obs::current_trace() != nullptr) {
      // Annotate the stop with the Eqs. 2-4 terms that triggered it: the
      // engine attaches them to the emitted early_stop instant.
      const double b = marginal_benefit(profiler_.model_curve(), view.iteration + 1,
                                        view.round->planned_iterations);
      const double c = marginal_cost(elapsed, deadline_rel, options_.early_stop.beta);
      decision.trace_annotations = {{"b", b}, {"c", c}, {"n", b - c}};
    }
  }

  // Future-work extension (Sec. 6): intra-round lr autonomy — decay once
  // per round when the profiled benefit of the next iteration flattens.
  if (options_.adaptive_lr.enabled && !lr_decayed_ && !decision.stop &&
      view.iteration + 1 <= view.round->planned_iterations) {
    const double next_benefit =
        marginal_benefit(profiler_.model_curve(), view.iteration + 1,
                         view.round->planned_iterations);
    if (next_benefit < options_.adaptive_lr.benefit_threshold) {
      decision.lr_scale = options_.adaptive_lr.decay;
      lr_decayed_ = true;
    }
  }
  return decision;
}

std::vector<std::size_t> FedCaClientPolicy::select_retransmissions(
    const nn::ModelState& final_update, const std::vector<fl::EagerRecord>& eager) {
  std::vector<std::size_t> retrans =
      core::select_retransmissions(final_update, eager, options_.eager);
  FEDCA_MCOUNT("fedca.retransmissions", static_cast<double>(retrans.size()));
  return retrans;
}

void FedCaClientPolicy::on_round_end(const fl::RoundInfo& round) {
  if (anchor_round_ && profiler_.recording()) {
    {
      FEDCA_WALL_SPAN("profiler.finish_round");
      profiler_.finish_round();
    }
    FEDCA_MCOUNT("fedca.anchor_rounds", 1.0);
    // Sec. 5.5 accounting, exported live so any run can audit the
    // min(50 %, 100) sampling budget against the ≤ 4 MB claim.
    FEDCA_MGAUGE("fedca.profiler.sampled_params",
                 static_cast<double>(profiler_.sampled_param_count()));
    FEDCA_MGAUGE("fedca.profiler.bytes_per_round",
                 static_cast<double>(profiler_.profiling_bytes(
                     std::max<std::size_t>(1, round.nominal_iterations))));
  }
  anchor_round_ = false;
}

}  // namespace fedca::core
