// FedAvg-style update aggregation with partial collection.
//
// The server applies the weighted mean of collected client updates to the
// global model. Following the paper's setup (Sec. 5.1), the server waits
// only for the earliest `collect_fraction` (90 %) of participant updates;
// later arrivals are dropped for that round.
#pragma once

#include <cstddef>
#include <vector>

#include "fl/types.hpp"
#include "nn/state.hpp"
#include "util/sync.hpp"
#include "util/thread_annotations.hpp"

namespace fedca::fl {

// Quota of the earliest-arrival rule: ceil(fraction * quota_base),
// clamped to at least 1 (fraction itself clamped to (0, 1]). quota_base is
// the *planned* participant count, so the collected set shrinks below the
// quota when fewer results survive fault filtering.
std::size_t collect_quota(std::size_t quota_base, double fraction);

// Weighted mean of the selected updates, added in place to `global`.
// Weights are each client's `weight` (dataset size), normalized over the
// selected subset. Returns the normalized weight per selected entry
// (parallel to `selected`; sums to 1). Throws if `selected` is empty or
// layouts mismatch.
std::vector<double> apply_aggregated_update(nn::ModelState& global,
                                            const std::vector<ClientRoundResult>& results,
                                            const std::vector<std::size_t>& selected);

// The earliest-arrival rule, applied as results stream in: the server
// collects the `quota` eligible results that come first under the strict
// total order (arrival_time, then client_id — ties broken by id for
// determinism), and never holds more than `quota` client updates at once.
//
// Workers call offer(i) the moment slot i's result lands. The quorum keeps
// the quota smallest eligible entries seen so far and immediately frees the
// update payload (applied_update and eager layer tensors) of everything
// else: ineligible results (failed / non-finite arrival / past the upload
// timeout) and entries evicted when a smaller arrival displaces them.
// Bookkeeping fields (arrival times, byte counts, eager metadata) are left
// intact, so records, reports and metrics see every participant.
class StreamingQuorum {
 public:
  // `results` must stay alive and keep its size for the quorum's lifetime;
  // slots may be written concurrently but each slot only before its offer.
  StreamingQuorum(std::vector<ClientRoundResult>* results, std::size_t quota,
                  double timeout_cut);

  // Thread-safe. Must be called exactly once per completed slot.
  void offer(std::size_t index);

  // The retained slot indices, ascending. Call once every slot is offered.
  std::vector<std::size_t> collected();

 private:
  bool eligible(const ClientRoundResult& r) const;
  static void discard(ClientRoundResult& r);

  std::vector<ClientRoundResult>* results_;
  std::size_t quota_;
  double timeout_cut_;
  util::Mutex mutex_;
  // Max-heap of retained slot indices, ordered by (arrival_time, client_id)
  // descending at the root; size <= quota_.
  std::vector<std::size_t> heap_ FEDCA_GUARDED_BY(mutex_);
};

}  // namespace fedca::fl
