#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "alloc_counter.h"
#include "data/dataset.h"
#include "data/partition.h"
#include "data/synthetic.h"
#include "tensor/tensor_ops.h"

namespace fedclust::data {
namespace {

// ---------------------------------------------------------------- dataset

TEST(DatasetTest, AddAndAccess) {
  Dataset ds(1, 2, 3);
  EXPECT_EQ(ds.image_size(), 4u);
  ds.add({1, 2, 3, 4}, 0);
  ds.add({5, 6, 7, 8}, 2);
  EXPECT_EQ(ds.size(), 2u);
  EXPECT_EQ(ds.label(1), 2);
  EXPECT_FLOAT_EQ(ds.image(1)[0], 5.0f);
  EXPECT_THROW(ds.image(2), std::out_of_range);
}

TEST(DatasetTest, Validation) {
  Dataset ds(1, 2, 3);
  EXPECT_THROW(ds.add({1, 2, 3}, 0), std::invalid_argument);   // wrong size
  EXPECT_THROW(ds.add({1, 2, 3, 4}, 3), std::invalid_argument);  // bad label
  EXPECT_THROW(ds.add({1, 2, 3, 4}, -1), std::invalid_argument);
  EXPECT_THROW(Dataset(0, 2, 3), std::invalid_argument);
}

TEST(DatasetTest, BatchAssembly) {
  Dataset ds(2, 2, 2);
  ds.add(std::vector<float>(8, 1.0f), 0);
  ds.add(std::vector<float>(8, 2.0f), 1);
  ds.add(std::vector<float>(8, 3.0f), 0);
  const auto imgs = ds.batch_images({2, 0});
  EXPECT_EQ(imgs.shape(), (tensor::Shape{2, 2, 2, 2}));
  EXPECT_FLOAT_EQ(imgs[0], 3.0f);
  EXPECT_FLOAT_EQ(imgs[8], 1.0f);
  EXPECT_EQ(ds.batch_labels({2, 0}), (std::vector<std::int64_t>{0, 0}));
}

TEST(DatasetTest, LabelDistributionAndPresent) {
  Dataset ds(1, 1, 4);
  ds.add({0.0f}, 1);
  ds.add({0.0f}, 1);
  ds.add({0.0f}, 3);
  const auto dist = ds.label_distribution();
  EXPECT_DOUBLE_EQ(dist[1], 2.0 / 3.0);
  EXPECT_DOUBLE_EQ(dist[3], 1.0 / 3.0);
  EXPECT_DOUBLE_EQ(dist[0], 0.0);
  EXPECT_EQ(ds.present_labels(), (std::vector<std::int64_t>{1, 3}));
}

TEST(DatasetTest, ClassMatrix) {
  Dataset ds(1, 2, 2);
  ds.add({1, 2, 3, 4}, 0);
  ds.add({5, 6, 7, 8}, 1);
  ds.add({9, 10, 11, 12}, 0);
  const auto m = ds.class_matrix(0, 10);
  EXPECT_EQ(m.shape(), (tensor::Shape{4, 2}));
  EXPECT_FLOAT_EQ(m.at({0, 0}), 1.0f);
  EXPECT_FLOAT_EQ(m.at({0, 1}), 9.0f);
  EXPECT_FLOAT_EQ(m.at({3, 1}), 12.0f);
  // max_samples truncates, absent class gives 0 columns.
  EXPECT_EQ(ds.class_matrix(0, 1).dim(1), 1u);
  EXPECT_EQ(ds.class_matrix(1, 10).dim(1), 1u);
  Dataset empty(1, 2, 2);
  EXPECT_EQ(empty.class_matrix(0, 10).dim(1), 0u);
}

// -------------------------------------------------------------- synthetic

TEST(Synthetic, PresetsExist) {
  for (const auto& name : benchmark_dataset_names()) {
    const SyntheticSpec s = dataset_spec(name);
    EXPECT_EQ(s.name, name);
    EXPECT_GT(s.num_classes, 0u);
  }
  EXPECT_THROW(dataset_spec("imagenet"), std::invalid_argument);
  EXPECT_EQ(dataset_spec("fmnist").channels, 1u);
  EXPECT_EQ(dataset_spec("cifar100").num_classes, 20u);
}

TEST(Synthetic, DeterministicInSeed) {
  const SyntheticSpec spec = dataset_spec("cifar10");
  SyntheticGenerator g1(spec, 42);
  SyntheticGenerator g2(spec, 42);
  SyntheticGenerator g3(spec, 43);
  util::Rng r1(7);
  util::Rng r2(7);
  util::Rng r3(7);
  EXPECT_EQ(g1.sample(3, r1), g2.sample(3, r2));
  EXPECT_NE(g1.prototype(3, 0), g3.prototype(3, 0));
}

TEST(Synthetic, SampleValidation) {
  SyntheticGenerator gen(dataset_spec("fmnist"), 1);
  util::Rng rng(1);
  EXPECT_EQ(gen.sample(0, rng).size(), gen.image_size());
  EXPECT_THROW(gen.sample(-1, rng), std::invalid_argument);
  EXPECT_THROW(gen.sample(10, rng), std::invalid_argument);
}

// With a single prototype per class, same-class samples must be
// systematically closer than cross-class ones — the class-identity property
// every similarity-based method in the paper relies on. (With multiple
// prototypes the raw-pixel gap narrows by design: intra-class variation is
// a calibrated difficulty knob; see synthetic.h.)
TEST(Synthetic, IntraClassDistanceBelowInterClass) {
  SyntheticSpec spec = dataset_spec("cifar10");
  spec.prototypes_per_class = 1;
  SyntheticGenerator gen(spec, 5);
  util::Rng rng(9);
  double intra = 0.0;
  double inter = 0.0;
  const int trials = 40;
  for (int t = 0; t < trials; ++t) {
    const auto a = gen.sample(0, rng);
    const auto b = gen.sample(0, rng);
    const auto c = gen.sample(5, rng);
    intra += tensor::l2_distance(a, b);
    inter += tensor::l2_distance(a, c);
  }
  EXPECT_LT(intra, inter * 0.9);
}

TEST(Synthetic, NoiseKnobControlsDispersion) {
  SyntheticSpec low = dataset_spec("cifar10");
  low.noise = 0.1f;
  low.coeff_jitter = 0.0f;  // isolate the pixel-noise knob
  low.prototypes_per_class = 1;
  SyntheticSpec high = dataset_spec("cifar10");
  high.noise = 1.5f;
  high.coeff_jitter = 0.0f;
  high.prototypes_per_class = 1;
  SyntheticGenerator gl(low, 3);
  SyntheticGenerator gh(high, 3);
  util::Rng rng(11);
  double dl = 0.0;
  double dh = 0.0;
  for (int t = 0; t < 20; ++t) {
    dl += tensor::l2_distance(gl.sample(1, rng), gl.prototype(1, 0));
    dh += tensor::l2_distance(gh.sample(1, rng), gh.prototype(1, 0));
  }
  EXPECT_LT(dl, dh * 0.3);
}

// -------------------------------------------------------------- partition

TEST(Partition, SkewGivesExpectedLabelCount) {
  FederatedConfig cfg;
  cfg.n_clients = 20;
  cfg.train_per_client = 40;
  cfg.test_per_client = 10;
  cfg.partition = "skew";
  cfg.skew_fraction = 0.2;
  const auto clients =
      make_federated_data(dataset_spec("cifar10"), cfg, 123);
  ASSERT_EQ(clients.size(), 20u);
  for (const auto& c : clients) {
    EXPECT_EQ(c.train.size(), 40u);
    EXPECT_EQ(c.test.size(), 10u);
    // 20% of 10 classes = 2 owned labels.
    std::size_t owned = 0;
    for (const double w : c.label_weights) owned += w > 0.0;
    EXPECT_EQ(owned, 2u);
    // Every drawn label must be an owned one.
    for (const auto y : c.train.present_labels()) {
      EXPECT_GT(c.label_weights[static_cast<std::size_t>(y)], 0.0);
    }
  }
}

TEST(Partition, Skew30OwnsThreeLabels) {
  FederatedConfig cfg;
  cfg.n_clients = 5;
  cfg.partition = "skew";
  cfg.skew_fraction = 0.3;
  const auto clients = make_federated_data(dataset_spec("svhn"), cfg, 1);
  for (const auto& c : clients) {
    std::size_t owned = 0;
    for (const double w : c.label_weights) owned += w > 0.0;
    EXPECT_EQ(owned, 3u);
  }
}

TEST(Partition, DirichletIsConcentratedForSmallAlpha) {
  FederatedConfig cfg;
  cfg.n_clients = 30;
  cfg.partition = "dirichlet";
  cfg.dirichlet_alpha = 0.1;
  const auto clients =
      make_federated_data(dataset_spec("cifar10"), cfg, 7);
  double avg_max = 0.0;
  for (const auto& c : clients) {
    avg_max += *std::max_element(c.label_weights.begin(),
                                 c.label_weights.end());
  }
  EXPECT_GT(avg_max / 30.0, 0.5);  // dominated by one label on average
}

TEST(Partition, IidIsUniform) {
  FederatedConfig cfg;
  cfg.n_clients = 3;
  cfg.partition = "iid";
  const auto clients =
      make_federated_data(dataset_spec("fmnist"), cfg, 7);
  for (const auto& c : clients) {
    for (const double w : c.label_weights) EXPECT_DOUBLE_EQ(w, 0.1);
  }
}

TEST(Partition, PoolCreatesGroundTruthGroups) {
  FederatedConfig cfg;
  cfg.n_clients = 40;
  cfg.partition = "skew";
  cfg.skew_fraction = 0.2;
  cfg.label_set_pool = 4;
  const auto clients =
      make_federated_data(dataset_spec("cifar10"), cfg, 99);
  const auto groups = group_ids(clients);
  const std::set<std::size_t> distinct(groups.begin(), groups.end());
  EXPECT_LE(distinct.size(), 4u);
  EXPECT_GE(distinct.size(), 2u);
  // Clients in the same group share the exact same label weights.
  for (std::size_t i = 0; i < clients.size(); ++i) {
    for (std::size_t j = i + 1; j < clients.size(); ++j) {
      if (groups[i] == groups[j]) {
        EXPECT_EQ(clients[i].label_weights, clients[j].label_weights);
      }
    }
  }
}

TEST(Partition, WithoutPoolGroupIdIsClientIndex) {
  FederatedConfig cfg;
  cfg.n_clients = 5;
  const auto clients =
      make_federated_data(dataset_spec("fmnist"), cfg, 3);
  EXPECT_EQ(group_ids(clients), (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

TEST(Partition, QuantitySkewVariesTrainSizes) {
  FederatedConfig cfg;
  cfg.n_clients = 30;
  cfg.train_per_client = 40;
  cfg.test_per_client = 5;
  cfg.quantity_skew_factor = 4.0;
  const auto clients =
      make_federated_data(dataset_spec("fmnist"), cfg, 13);
  std::size_t lo = SIZE_MAX;
  std::size_t hi = 0;
  for (const auto& c : clients) {
    lo = std::min(lo, c.train.size());
    hi = std::max(hi, c.train.size());
    // Bounded by the skew factor (rounding slack of 1).
    EXPECT_GE(c.train.size() + 1, 40u / 4);
    EXPECT_LE(c.train.size(), 40u * 4 + 1);
    EXPECT_EQ(c.test.size(), 5u);  // test sets stay uniform
  }
  EXPECT_LT(lo * 2, hi);  // sizes genuinely differ
}

TEST(Partition, QuantitySkewValidation) {
  FederatedConfig cfg;
  cfg.n_clients = 2;
  cfg.quantity_skew_factor = 0.5;
  EXPECT_THROW(make_federated_data(dataset_spec("fmnist"), cfg, 1),
               std::invalid_argument);
}

TEST(Partition, DeterministicInSeed) {
  FederatedConfig cfg;
  cfg.n_clients = 4;
  cfg.train_per_client = 6;
  const auto a = make_federated_data(dataset_spec("svhn"), cfg, 5);
  const auto b = make_federated_data(dataset_spec("svhn"), cfg, 5);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].train.labels(), b[i].train.labels());
    for (std::size_t s = 0; s < a[i].train.size(); ++s) {
      EXPECT_EQ(a[i].train.image(s)[0], b[i].train.image(s)[0]);
    }
  }
}

// Replaying the clients between a checkpoint and the one asked for
// allocates nothing: sketch(i) makes the same allocations wherever i lies
// in its checkpoint stride, in every partition mode.
TEST(Partition, SketchAllocationsDoNotDependOnReplayDistance) {
  constexpr std::size_t kStride = PartitionPlan::kCheckpointStride;
  for (const std::string partition : {"skew", "dirichlet", "iid"}) {
    for (const std::size_t pool : {0, 3}) {
      for (const double qskew : {1.0, 3.0}) {
        SCOPED_TRACE(partition + " pool=" + std::to_string(pool) +
                     " qskew=" + std::to_string(qskew));
        FederatedConfig cfg;
        cfg.n_clients = 2 * kStride + 10;
        cfg.partition = partition;
        cfg.label_set_pool = pool;
        cfg.quantity_skew_factor = qskew;
        const PartitionPlan plan(dataset_spec("cifar10"), cfg, 17);
        const auto at_checkpoint =
            alloc_counter::count([&] { (void)plan.sketch(kStride); });
        for (const std::size_t i : {kStride + 1, kStride + 500,
                                    2 * kStride - 1}) {
          const auto far = alloc_counter::count([&] { (void)plan.sketch(i); });
          EXPECT_EQ(far.allocations, at_checkpoint.allocations) << i;
          EXPECT_EQ(far.bytes, at_checkpoint.bytes) << i;
        }
      }
    }
  }
}

TEST(Partition, Validation) {
  FederatedConfig cfg;
  cfg.n_clients = 0;
  EXPECT_THROW(make_federated_data(dataset_spec("svhn"), cfg, 1),
               std::invalid_argument);
  cfg.n_clients = 2;
  cfg.partition = "zipf";
  EXPECT_THROW(make_federated_data(dataset_spec("svhn"), cfg, 1),
               std::invalid_argument);
}

class PartitionSweep : public ::testing::TestWithParam<const char*> {};

TEST_P(PartitionSweep, EveryDatasetPartitions) {
  FederatedConfig cfg;
  cfg.n_clients = 6;
  cfg.train_per_client = 10;
  cfg.test_per_client = 4;
  for (const char* mode : {"skew", "dirichlet", "iid"}) {
    cfg.partition = mode;
    const auto clients =
        make_federated_data(dataset_spec(GetParam()), cfg, 11);
    EXPECT_EQ(clients.size(), 6u) << GetParam() << "/" << mode;
    for (const auto& c : clients) {
      EXPECT_EQ(c.train.size(), 10u);
      double sum = 0.0;
      for (const double w : c.label_weights) sum += w;
      EXPECT_NEAR(sum, 1.0, 1e-9);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Datasets, PartitionSweep,
                         ::testing::Values("cifar10", "cifar100", "fmnist",
                                           "svhn"));

}  // namespace
}  // namespace fedclust::data
