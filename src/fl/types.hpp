// Shared record types of the FL framework.
#pragma once

#include <cstddef>
#include <limits>
#include <string>
#include <vector>

#include "nn/state.hpp"
#include "tensor/tensor.hpp"

namespace fedca::fl {

inline constexpr double kNoDeadline = std::numeric_limits<double>::infinity();

// Control framing added to every model download and final upload.
inline constexpr double kUploadHeaderBytes = 512.0;

// How a participant left a round early (fault injection; kNone in the
// fault-free simulation).
enum class ClientFault { kNone, kCrash, kDropout, kLinkOutage };

// One eagerly transmitted layer (Sec. 4.3): which layer, when it was sent
// (iteration + virtual arrival time at the server), and the update value
// that went on the wire.
struct EagerRecord {
  std::size_t layer = 0;
  std::size_t iteration = 0;      // 1-based local iteration of transmission
  double send_time = 0.0;         // virtual time the transfer started
  double arrival_time = 0.0;      // virtual time it fully arrived
  tensor::Tensor value;           // transmitted per-layer update (w_tau - w_0)
  bool retransmitted = false;     // set after the Eq. 6 check
  bool lost = false;              // eager transfer lost in flight (fault)
  bool truncated = false;         // eager transfer corrupted in flight (fault)
};

// What one client contributed to one round, with full system accounting.
struct ClientRoundResult {
  std::size_t client_id = 0;
  // The per-layer update the server will apply for this client (eager
  // values where they stand, final values elsewhere).
  nn::ModelState applied_update;
  // Aggregation weight (local dataset size).
  double weight = 1.0;
  // Virtual time the server has the complete update.
  double arrival_time = 0.0;

  // --- bookkeeping for figures/tables ---
  std::size_t iterations_run = 0;
  std::size_t planned_iterations = 0;
  bool early_stopped = false;
  double download_done = 0.0;
  double compute_done = 0.0;       // end of last local iteration
  double compute_seconds = 0.0;    // compute_done - download_done
  double bytes_sent = 0.0;         // uplink payload incl. retransmissions
  double eager_bytes = 0.0;        // eager-transmission share of bytes_sent
  double mean_local_loss = 0.0;
  std::vector<EagerRecord> eager;  // one entry per eagerly transmitted layer
  std::size_t retransmitted_layers = 0;

  // --- fault accounting (all default when no injector is installed) ---
  bool failed = false;             // client never delivered a usable update
  ClientFault fault = ClientFault::kNone;
  double fail_time = kNoDeadline;  // virtual time the fault struck
};

// Everything that happened in one round.
struct RoundRecord {
  std::size_t round_index = 0;
  double start_time = 0.0;
  double end_time = 0.0;           // server finished collecting the quorum
  double deadline = kNoDeadline;   // T_R announced at round start
  // Availability accounting (zero unless the cluster's availability layer
  // is on): total population size and how many sampled clients were
  // offline at round start and therefore skipped.
  std::size_t population = 0;
  std::size_t offline = 0;
  std::vector<ClientRoundResult> clients;   // every participant
  std::vector<std::size_t> collected;       // indices into `clients` aggregated
  // Normalized aggregation weight per collected entry (sums to 1 whenever
  // `collected` is non-empty); parallel to `collected`.
  std::vector<double> collected_weights;
  double duration() const { return end_time - start_time; }
};

// Accuracy trajectory sample (Fig. 7 / Table 1 raw data).
struct EvalPoint {
  std::size_t round_index = 0;
  double virtual_time = 0.0;   // at round end
  double accuracy = 0.0;
  double loss = 0.0;
};

}  // namespace fedca::fl
