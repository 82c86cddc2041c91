#include "data/loader.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

namespace fedca::data {

BatchLoader::BatchLoader(const Dataset* dataset, std::size_t batch_size, util::Rng rng)
    : dataset_(dataset), batch_size_(batch_size), rng_(rng) {
  if (dataset_ == nullptr || dataset_->empty()) {
    throw std::invalid_argument("BatchLoader: dataset must be nonempty");
  }
  if (batch_size_ == 0) throw std::invalid_argument("BatchLoader: batch_size must be > 0");
  batch_size_ = std::min(batch_size_, dataset_->size());
  order_.resize(dataset_->size());
  std::iota(order_.begin(), order_.end(), 0);
  reshuffle();
}

Batch BatchLoader::next() { return next_batch(); }

const Batch& BatchLoader::next_batch() {
  scratch_indices_.clear();
  scratch_indices_.reserve(batch_size_);
  while (scratch_indices_.size() < batch_size_) {
    if (cursor_ >= order_.size()) reshuffle();
    scratch_indices_.push_back(order_[cursor_++]);
  }
  dataset_->gather_into(scratch_indices_, batch_);
  return batch_;
}

std::size_t BatchLoader::batches_per_epoch() const {
  return (dataset_->size() + batch_size_ - 1) / batch_size_;
}

void BatchLoader::restore(const Cursor& cursor) {
  if (cursor.epochs < epochs_) {
    throw std::invalid_argument("BatchLoader::restore: cursor predates this loader");
  }
  if (cursor.position > order_.size()) {
    throw std::invalid_argument("BatchLoader::restore: position past epoch end");
  }
  // Permutations compose deterministically: replaying the missing
  // reshuffles reproduces the exact epoch order the saved loader had.
  while (epochs_ < cursor.epochs) reshuffle();
  cursor_ = cursor.position;
}

void BatchLoader::reshuffle() {
  rng_.shuffle(order_);
  cursor_ = 0;
  ++epochs_;
}

}  // namespace fedca::data
