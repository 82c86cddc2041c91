#include "fl/aggregation.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace fedca::fl {

std::size_t collect_quota(std::size_t quota_base, double fraction) {
  fraction = std::clamp(fraction, 1e-9, 1.0);
  return std::max<std::size_t>(
      1, static_cast<std::size_t>(
             std::ceil(fraction * static_cast<double>(quota_base))));
}

std::vector<double> apply_aggregated_update(nn::ModelState& global,
                                            const std::vector<ClientRoundResult>& results,
                                            const std::vector<std::size_t>& selected) {
  if (selected.empty()) {
    throw std::invalid_argument("apply_aggregated_update: empty selection");
  }
  double total_weight = 0.0;
  for (const std::size_t idx : selected) {
    total_weight += results.at(idx).weight;
  }
  if (total_weight <= 0.0) {
    throw std::invalid_argument("apply_aggregated_update: nonpositive total weight");
  }
  std::vector<double> normalized;
  normalized.reserve(selected.size());
  for (const std::size_t idx : selected) {
    const ClientRoundResult& r = results.at(idx);
    if (!r.applied_update.same_layout(global)) {
      throw std::invalid_argument("apply_aggregated_update: layout mismatch for client " +
                                  std::to_string(r.client_id));
    }
    const double share = r.weight / total_weight;
    nn::state_add_scaled(global, static_cast<float>(share), r.applied_update);
    normalized.push_back(share);
  }
  return normalized;
}

StreamingQuorum::StreamingQuorum(std::vector<ClientRoundResult>* results,
                                 std::size_t quota, double timeout_cut)
    : results_(results), quota_(quota), timeout_cut_(timeout_cut) {
  if (results_ == nullptr) {
    throw std::invalid_argument("StreamingQuorum: null results");
  }
  heap_.reserve(std::min(quota_, results_->size()));
}

bool StreamingQuorum::eligible(const ClientRoundResult& r) const {
  if (r.failed || !std::isfinite(r.arrival_time)) return false;
  return !(r.arrival_time > timeout_cut_);
}

void StreamingQuorum::discard(ClientRoundResult& r) {
  r.applied_update = nn::ModelState{};
  for (EagerRecord& e : r.eager) e.value = tensor::Tensor{};
}

void StreamingQuorum::offer(std::size_t index) {
  std::vector<ClientRoundResult>& results = *results_;
  // The earliest-arrival order. Used as the heap comparator it puts the
  // latest retained entry at the front (evicted first).
  const auto earlier = [&results](std::size_t a, std::size_t b) {
    if (results[a].arrival_time != results[b].arrival_time) {
      return results[a].arrival_time < results[b].arrival_time;
    }
    return results[a].client_id < results[b].client_id;
  };
  util::MutexLock lock(mutex_);
  if (!eligible(results[index])) {
    discard(results[index]);
    return;
  }
  if (heap_.size() < quota_) {
    heap_.push_back(index);
    std::push_heap(heap_.begin(), heap_.end(), earlier);
    return;
  }
  // Full: either the newcomer or the current latest retained entry goes.
  if (!earlier(index, heap_.front())) {
    discard(results[index]);
    return;
  }
  std::pop_heap(heap_.begin(), heap_.end(), earlier);
  discard(results[heap_.back()]);
  heap_.back() = index;
  std::push_heap(heap_.begin(), heap_.end(), earlier);
}

std::vector<std::size_t> StreamingQuorum::collected() {
  util::MutexLock lock(mutex_);
  std::vector<std::size_t> indices = heap_;
  std::sort(indices.begin(), indices.end());
  return indices;
}

}  // namespace fedca::fl
