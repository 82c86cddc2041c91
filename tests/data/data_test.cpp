// Dataset containers, synthetic tasks, Dirichlet partitioning, loader.
#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <set>

#include "data/loader.hpp"
#include "data/partition.hpp"
#include "data/synthetic.hpp"

namespace fedca {
namespace {

data::Dataset tiny_dataset() {
  nn::Tensor inputs({6, 2});
  for (std::size_t i = 0; i < 12; ++i) inputs[i] = static_cast<float>(i);
  return data::Dataset(std::move(inputs), {0, 1, 0, 1, 2, 2});
}

TEST(Dataset, BasicAccessors) {
  const data::Dataset d = tiny_dataset();
  EXPECT_EQ(d.size(), 6u);
  EXPECT_FALSE(d.empty());
  EXPECT_EQ(d.example_shape(), (tensor::Shape{2}));
  EXPECT_EQ(d.example_numel(), 2u);
  EXPECT_EQ(d.label(4), 2);
}

TEST(Dataset, SizeMismatchThrows) {
  nn::Tensor inputs({3, 2});
  EXPECT_THROW(data::Dataset(std::move(inputs), {0, 1}), std::invalid_argument);
}

TEST(Dataset, GatherPreservesOrderAndContent) {
  const data::Dataset d = tiny_dataset();
  const data::Batch b = d.gather({4, 0});
  ASSERT_EQ(b.size(), 2u);
  EXPECT_EQ(b.labels, (std::vector<int>{2, 0}));
  EXPECT_EQ(b.inputs[0], 8.0f);  // example 4 starts at flat index 8
  EXPECT_EQ(b.inputs[2], 0.0f);  // example 0
  EXPECT_THROW(d.gather({6}), std::out_of_range);
}

TEST(Dataset, SubsetAndHistogram) {
  const data::Dataset d = tiny_dataset();
  const data::Dataset s = d.subset({1, 3, 5});
  EXPECT_EQ(s.size(), 3u);
  EXPECT_EQ(s.labels(), (std::vector<int>{1, 1, 2}));
  const auto hist = d.class_histogram(3);
  EXPECT_EQ(hist, (std::vector<std::size_t>{2, 2, 2}));
}

TEST(Dataset, AsBatchIsWholeSet) {
  const data::Dataset d = tiny_dataset();
  const data::Batch b = d.as_batch();
  EXPECT_EQ(b.size(), 6u);
  EXPECT_EQ(b.inputs.numel(), 12u);
}

class SyntheticTaskTest : public ::testing::TestWithParam<nn::ModelKind> {};

TEST_P(SyntheticTaskTest, ShapesAndLabelsValid) {
  data::SyntheticSpec spec;
  spec.num_classes = 7;
  util::Rng rng(1);
  data::SyntheticTask task(GetParam(), spec, rng);
  util::Rng srng(2);
  const data::Dataset d = task.sample(100, srng);
  EXPECT_EQ(d.size(), 100u);
  const nn::InputGeometry geo = task.geometry();
  if (GetParam() == nn::ModelKind::kLstm) {
    EXPECT_EQ(d.example_shape(), (tensor::Shape{geo.seq_len, geo.features}));
  } else {
    EXPECT_EQ(d.example_shape(), (tensor::Shape{geo.channels, geo.height, geo.width}));
  }
  for (std::size_t i = 0; i < d.size(); ++i) {
    ASSERT_GE(d.label(i), 0);
    ASSERT_LT(d.label(i), 7);
  }
}

TEST_P(SyntheticTaskTest, SamplesShareClassStructure) {
  // Two draws from the SAME task must be mutually predictive; two draws
  // from different tasks must not be. We check a proxy: per-class mean
  // inputs correlate across draws of one task.
  data::SyntheticSpec spec;
  spec.num_classes = 4;
  spec.noise_stddev = 0.3;
  util::Rng rng(3);
  data::SyntheticTask task(GetParam(), spec, rng);
  util::Rng r1(4);
  util::Rng r2(5);
  const data::Dataset a = task.sample(400, r1);
  const data::Dataset b = task.sample(400, r2);

  const std::size_t dim = a.example_numel();
  auto class_mean = [&](const data::Dataset& d, int cls) {
    std::vector<double> mean(dim, 0.0);
    std::size_t count = 0;
    for (std::size_t i = 0; i < d.size(); ++i) {
      if (d.label(i) != cls) continue;
      ++count;
      for (std::size_t j = 0; j < dim; ++j) {
        mean[j] += d.inputs()[i * dim + j];
      }
    }
    for (auto& v : mean) v /= std::max<std::size_t>(count, 1);
    return mean;
  };
  for (int cls = 0; cls < 4; ++cls) {
    const auto ma = class_mean(a, cls);
    const auto mb = class_mean(b, cls);
    double dot = 0.0, na = 0.0, nb = 0.0;
    for (std::size_t j = 0; j < dim; ++j) {
      dot += ma[j] * mb[j];
      na += ma[j] * ma[j];
      nb += mb[j] * mb[j];
    }
    const double cosine = dot / std::sqrt(na * nb + 1e-12);
    EXPECT_GT(cosine, 0.5) << "class " << cls << " structure not shared";
  }
}

TEST_P(SyntheticTaskTest, DeterministicInSeeds) {
  data::SyntheticSpec spec;
  util::Rng ra(9);
  util::Rng rb(9);
  data::SyntheticTask ta(GetParam(), spec, ra);
  data::SyntheticTask tb(GetParam(), spec, rb);
  util::Rng sa(10);
  util::Rng sb(10);
  const data::Dataset da = ta.sample(50, sa);
  const data::Dataset db = tb.sample(50, sb);
  EXPECT_EQ(da.labels(), db.labels());
  for (std::size_t i = 0; i < da.inputs().numel(); ++i) {
    ASSERT_EQ(da.inputs()[i], db.inputs()[i]);
  }
}

INSTANTIATE_TEST_SUITE_P(AllKinds, SyntheticTaskTest,
                         ::testing::Values(nn::ModelKind::kCnn, nn::ModelKind::kLstm,
                                           nn::ModelKind::kWrn));

TEST(Partition, CoversAllExamplesExactlyOnce) {
  data::SyntheticSpec spec;
  util::Rng rng(11);
  const data::Dataset d = data::make_synthetic_dataset(nn::ModelKind::kCnn, spec, rng);
  data::PartitionOptions opts;
  opts.num_clients = 16;
  opts.num_classes = spec.num_classes;
  opts.alpha = 0.1;
  util::Rng prng(12);
  const auto shards = data::dirichlet_partition_indices(d, opts, prng);
  ASSERT_EQ(shards.size(), 16u);
  std::vector<std::size_t> all;
  for (const auto& shard : shards) {
    all.insert(all.end(), shard.begin(), shard.end());
  }
  EXPECT_EQ(all.size(), d.size());
  std::sort(all.begin(), all.end());
  for (std::size_t i = 0; i < all.size(); ++i) ASSERT_EQ(all[i], i);
}

TEST(Partition, MinExamplesFloorHolds) {
  data::SyntheticSpec spec;
  spec.samples = 500;
  util::Rng rng(13);
  const data::Dataset d = data::make_synthetic_dataset(nn::ModelKind::kCnn, spec, rng);
  data::PartitionOptions opts;
  opts.num_clients = 20;
  opts.num_classes = spec.num_classes;
  opts.alpha = 0.05;  // extreme skew
  opts.min_examples_per_client = 8;
  util::Rng prng(14);
  const auto shards = data::dirichlet_partition_indices(d, opts, prng);
  for (const auto& shard : shards) {
    EXPECT_GE(shard.size(), 8u);
  }
}

class PartitionAlphaTest : public ::testing::TestWithParam<double> {};

TEST_P(PartitionAlphaTest, SkewDecreasesWithAlpha) {
  data::SyntheticSpec spec;
  spec.samples = 4000;
  util::Rng rng(15);
  const data::Dataset d = data::make_synthetic_dataset(nn::ModelKind::kCnn, spec, rng);
  data::PartitionOptions opts;
  opts.num_clients = 10;
  opts.num_classes = spec.num_classes;
  opts.alpha = GetParam();
  opts.min_examples_per_client = 0;
  util::Rng prng(16);
  const auto shards = data::dirichlet_partition(d, opts, prng);

  // Mean max-class share per client.
  double mean_max_share = 0.0;
  std::size_t counted = 0;
  for (const auto& shard : shards) {
    if (shard.empty()) continue;
    const auto hist = shard.class_histogram(spec.num_classes);
    const std::size_t top = *std::max_element(hist.begin(), hist.end());
    mean_max_share += static_cast<double>(top) / static_cast<double>(shard.size());
    ++counted;
  }
  mean_max_share /= static_cast<double>(counted);
  if (GetParam() <= 0.1) {
    EXPECT_GT(mean_max_share, 0.5);
  }
  if (GetParam() >= 100.0) {
    EXPECT_LT(mean_max_share, 0.25);
  }
}

INSTANTIATE_TEST_SUITE_P(AlphaSweep, PartitionAlphaTest,
                         ::testing::Values(0.05, 0.1, 1.0, 100.0));

TEST(Partition, Validation) {
  const data::Dataset d = tiny_dataset();
  util::Rng rng(17);
  data::PartitionOptions opts;
  opts.num_clients = 0;
  opts.num_classes = 3;
  EXPECT_THROW(data::dirichlet_partition_indices(d, opts, rng), std::invalid_argument);
  opts.num_clients = 2;
  opts.num_classes = 0;
  EXPECT_THROW(data::dirichlet_partition_indices(d, opts, rng), std::invalid_argument);
  opts.num_classes = 3;
  opts.alpha = 0.0;
  EXPECT_THROW(data::dirichlet_partition_indices(d, opts, rng), std::invalid_argument);
  opts.alpha = 0.1;
  opts.num_classes = 2;  // dataset has label 2 -> out of range
  EXPECT_THROW(data::dirichlet_partition_indices(d, opts, rng), std::invalid_argument);
}

TEST(BatchLoader, EveryEpochIsAPermutation) {
  const data::Dataset d = tiny_dataset();
  data::BatchLoader loader(&d, 2, util::Rng(18));
  EXPECT_EQ(loader.batches_per_epoch(), 3u);
  std::multiset<float> seen;
  for (int i = 0; i < 3; ++i) {
    const data::Batch b = loader.next();
    ASSERT_EQ(b.size(), 2u);
    seen.insert(b.inputs[0]);
    seen.insert(b.inputs[2]);
  }
  // First features of all six examples are 0,2,4,6,8,10 — each exactly once.
  EXPECT_EQ(seen, (std::multiset<float>{0, 2, 4, 6, 8, 10}));
}

TEST(BatchLoader, CyclesBeyondOneEpoch) {
  const data::Dataset d = tiny_dataset();
  data::BatchLoader loader(&d, 4, util::Rng(19));
  for (int i = 0; i < 20; ++i) {
    const data::Batch b = loader.next();
    ASSERT_EQ(b.size(), 4u);
  }
}

TEST(BatchLoader, BatchClampedToDatasetSize) {
  const data::Dataset d = tiny_dataset();
  data::BatchLoader loader(&d, 50, util::Rng(20));
  EXPECT_EQ(loader.batch_size(), 6u);
  EXPECT_EQ(loader.next().size(), 6u);
}

TEST(BatchLoader, Validation) {
  const data::Dataset d = tiny_dataset();
  EXPECT_THROW(data::BatchLoader(nullptr, 2, util::Rng(1)), std::invalid_argument);
  EXPECT_THROW(data::BatchLoader(&d, 0, util::Rng(1)), std::invalid_argument);
}

TEST(BatchLoader, CursorRestoreContinuesExactSequence) {
  // The registry keeps a 16-byte Cursor per client instead of a live
  // loader; a fresh loader restored to the cursor must continue the exact
  // batch stream, including across epoch boundaries.
  const data::Dataset d = tiny_dataset();
  data::BatchLoader original(&d, 2, util::Rng(77));
  for (int i = 0; i < 7; ++i) original.next();  // mid second epoch (3/epoch)
  const data::BatchLoader::Cursor cursor = original.cursor();
  EXPECT_GE(cursor.epochs, 2u);

  std::vector<data::Batch> expected;
  for (int i = 0; i < 10; ++i) expected.push_back(original.next());

  data::BatchLoader resumed(&d, 2, util::Rng(77));
  resumed.restore(cursor);
  for (int i = 0; i < 10; ++i) {
    const data::Batch got = resumed.next();
    const data::Batch& want = expected[static_cast<std::size_t>(i)];
    ASSERT_EQ(got.labels, want.labels) << "batch " << i;
    ASSERT_EQ(got.inputs.numel(), want.inputs.numel());
    for (std::size_t j = 0; j < got.inputs.numel(); ++j) {
      ASSERT_EQ(got.inputs[j], want.inputs[j]) << "batch " << i;
    }
  }
}

}  // namespace
}  // namespace fedca
