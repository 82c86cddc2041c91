// Partial collection and weighted aggregation invariants.
#include <gtest/gtest.h>

#include "fl/aggregation.hpp"

namespace fedca {
namespace {

fl::ClientRoundResult make_result(std::size_t id, double arrival, double weight,
                                  std::vector<float> update) {
  fl::ClientRoundResult r;
  r.client_id = id;
  r.arrival_time = arrival;
  r.weight = weight;
  r.applied_update.names = {"layer"};
  const std::size_t n = update.size();
  r.applied_update.tensors = {nn::Tensor({n}, std::move(update))};
  return r;
}

nn::ModelState zero_state(std::size_t n) {
  nn::ModelState s;
  s.names = {"layer"};
  s.tensors = {nn::Tensor({n})};
  return s;
}

// Offers the slots of `results` to a quorum in `order` (as workers landing
// out of order would) and returns the collected indices.
std::vector<std::size_t> stream(std::vector<fl::ClientRoundResult>& results,
                                double fraction, const std::vector<std::size_t>& order,
                                double timeout_cut = fl::kNoDeadline) {
  fl::StreamingQuorum quorum(&results, fl::collect_quota(results.size(), fraction),
                             timeout_cut);
  for (const std::size_t i : order) quorum.offer(i);
  return quorum.collected();
}

bool freed(const fl::ClientRoundResult& r) { return r.applied_update.tensors.empty(); }

TEST(StreamingQuorum, PicksEarliestArrivals) {
  std::vector<fl::ClientRoundResult> results;
  results.push_back(make_result(0, 5.0, 1, {0}));
  results.push_back(make_result(1, 1.0, 1, {0}));
  results.push_back(make_result(2, 3.0, 1, {0}));
  results.push_back(make_result(3, 2.0, 1, {0}));
  // Slot 2 is retained, then evicted by slot 3's earlier arrival.
  EXPECT_EQ(stream(results, 0.5, {2, 0, 3, 1}), (std::vector<std::size_t>{1, 3}));
  EXPECT_TRUE(freed(results[0]));
  EXPECT_TRUE(freed(results[2]));
  EXPECT_FALSE(freed(results[1]));
  EXPECT_FALSE(freed(results[3]));
}

TEST(StreamingQuorum, NinetyPercentQuota) {
  std::vector<fl::ClientRoundResult> results;
  for (std::size_t i = 0; i < 10; ++i) {
    results.push_back(make_result(i, static_cast<double>(i), 1, {0}));
  }
  // Latest first: the straggler fills the quorum and is evicted last.
  const auto sel = stream(results, 0.9, {9, 8, 7, 6, 5, 4, 3, 2, 1, 0});
  EXPECT_EQ(sel.size(), 9u);  // ceil(0.9 * 10) — drops exactly the straggler
  EXPECT_EQ(sel.back(), 8u);
  EXPECT_TRUE(freed(results[9]));
  // Bookkeeping survives the eviction; only the payload goes.
  EXPECT_EQ(results[9].arrival_time, 9.0);
}

TEST(StreamingQuorum, CeilingRounding) {
  std::vector<fl::ClientRoundResult> results;
  for (std::size_t i = 0; i < 7; ++i) {
    results.push_back(make_result(i, static_cast<double>(i), 1, {0}));
  }
  const std::vector<std::size_t> order = {3, 6, 0, 5, 1, 4, 2};
  EXPECT_EQ(stream(results, 0.9, order).size(), 7u);  // ceil(6.3) = 7
  EXPECT_EQ(stream(results, 0.5, order), (std::vector<std::size_t>{0, 1, 2, 3}));  // ceil(3.5)
}

TEST(StreamingQuorum, TieBreaksByClientId) {
  std::vector<fl::ClientRoundResult> results;
  results.push_back(make_result(5, 1.0, 1, {0}));
  results.push_back(make_result(2, 1.0, 1, {0}));
  results.push_back(make_result(9, 1.0, 1, {0}));
  const auto sel = stream(results, 0.3, {0, 1, 2});  // ceil(0.9) = 1
  ASSERT_EQ(sel.size(), 1u);
  EXPECT_EQ(results[sel[0]].client_id, 2u);
  EXPECT_TRUE(freed(results[0]));
  EXPECT_TRUE(freed(results[2]));
}

TEST(StreamingQuorum, EmptyAndFull) {
  std::vector<fl::ClientRoundResult> none;
  EXPECT_TRUE(stream(none, 0.9, {}).empty());
  std::vector<fl::ClientRoundResult> one;
  one.push_back(make_result(0, 1.0, 1, {0}));
  EXPECT_EQ(stream(one, 0.01, {0}).size(), 1u);  // at least one
}

TEST(StreamingQuorum, TimedOutAndFailedSlotsAreNeverCollected) {
  std::vector<fl::ClientRoundResult> results;
  results.push_back(make_result(0, 4.0, 1, {0}));  // past the 3.0 cut-off
  results.push_back(make_result(1, 1.0, 1, {0}));
  results.push_back(make_result(2, 0.5, 1, {0}));
  results[2].failed = true;
  results.push_back(make_result(3, 3.0, 1, {0}));  // exactly at the cut-off
  // The quota is 4, planned over every participant: the survivors do not
  // fill it, so the collection shrinks to them.
  EXPECT_EQ(stream(results, 1.0, {0, 1, 2, 3}, 3.0),
            (std::vector<std::size_t>{1, 3}));
  EXPECT_TRUE(freed(results[0]));
  EXPECT_TRUE(freed(results[2]));
}

TEST(Aggregate, WeightedMean) {
  std::vector<fl::ClientRoundResult> results;
  results.push_back(make_result(0, 1.0, 1.0, {1.0f, 0.0f}));
  results.push_back(make_result(1, 2.0, 3.0, {5.0f, 4.0f}));
  nn::ModelState global = zero_state(2);
  fl::apply_aggregated_update(global, results, {0, 1});
  EXPECT_FLOAT_EQ(global.tensors[0][0], 4.0f);  // (1*1 + 3*5) / 4
  EXPECT_FLOAT_EQ(global.tensors[0][1], 3.0f);  // (1*0 + 3*4) / 4
}

TEST(Aggregate, SubsetOnly) {
  std::vector<fl::ClientRoundResult> results;
  results.push_back(make_result(0, 1.0, 1.0, {2.0f}));
  results.push_back(make_result(1, 2.0, 1.0, {100.0f}));
  nn::ModelState global = zero_state(1);
  fl::apply_aggregated_update(global, results, {0});
  EXPECT_FLOAT_EQ(global.tensors[0][0], 2.0f);
}

TEST(Aggregate, PermutationInvariant) {
  std::vector<fl::ClientRoundResult> results;
  results.push_back(make_result(0, 1.0, 2.0, {1.0f}));
  results.push_back(make_result(1, 2.0, 5.0, {3.0f}));
  results.push_back(make_result(2, 3.0, 1.0, {-4.0f}));
  nn::ModelState a = zero_state(1);
  nn::ModelState b = zero_state(1);
  fl::apply_aggregated_update(a, results, {0, 1, 2});
  fl::apply_aggregated_update(b, results, {2, 0, 1});
  EXPECT_FLOAT_EQ(a.tensors[0][0], b.tensors[0][0]);
}

TEST(Aggregate, AddsOnTopOfExistingGlobal) {
  std::vector<fl::ClientRoundResult> results;
  results.push_back(make_result(0, 1.0, 1.0, {1.0f}));
  nn::ModelState global = zero_state(1);
  global.tensors[0][0] = 10.0f;
  fl::apply_aggregated_update(global, results, {0});
  EXPECT_FLOAT_EQ(global.tensors[0][0], 11.0f);
}

TEST(Aggregate, Validation) {
  std::vector<fl::ClientRoundResult> results;
  results.push_back(make_result(0, 1.0, 0.0, {1.0f}));
  nn::ModelState global = zero_state(1);
  EXPECT_THROW(fl::apply_aggregated_update(global, results, {}), std::invalid_argument);
  EXPECT_THROW(fl::apply_aggregated_update(global, results, {0}),
               std::invalid_argument);  // zero total weight
  results[0].weight = 1.0;
  nn::ModelState wrong = zero_state(2);
  EXPECT_THROW(fl::apply_aggregated_update(wrong, results, {0}), std::invalid_argument);
}

}  // namespace
}  // namespace fedca
