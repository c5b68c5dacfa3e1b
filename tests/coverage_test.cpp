// Additional cross-cutting coverage: Per-FedAvg and LG semantics, the
// shared-dictionary structure of the synthetic generators, and IID sanity
// runs of the whole pipeline.

#include <gtest/gtest.h>

#include <cmath>

#include "fl/lg_fedavg.h"
#include "fl/perfedavg.h"
#include "fl/fedavg.h"
#include "linalg/svd.h"
#include "nn/model_zoo.h"
#include "tensor/tensor_ops.h"

namespace fedclust {
namespace {

fl::ExperimentConfig tiny(std::size_t clients = 8) {
  fl::ExperimentConfig cfg;
  cfg.data_spec = data::dataset_spec("fmnist");
  cfg.data_spec.hw = 8;
  cfg.fed.n_clients = clients;
  cfg.fed.train_per_client = 12;
  cfg.fed.test_per_client = 8;
  cfg.fed.partition = "skew";
  cfg.fed.skew_fraction = 0.2;
  cfg.model.arch = "mlp";
  cfg.model.in_channels = 1;
  cfg.model.image_hw = 8;
  cfg.model.num_classes = 10;
  cfg.local.epochs = 1;
  cfg.local.batch_size = 6;
  cfg.local.lr = 0.05f;
  cfg.rounds = 3;
  cfg.sample_fraction = 0.5;
  cfg.seed = 41;
  return cfg;
}

// ----------------------------------------------------------- PerFedAvg

TEST(PerFedAvgTest, MetaParametersMoveAndEvalPersonalizes) {
  fl::Federation fed(tiny());
  fl::PerFedAvg algo(fed);
  const fl::Trace t = algo.run();
  EXPECT_NE(algo.meta_params(), fed.init_params());
  EXPECT_EQ(t.records.size(), 3u);
  // Meta params stay finite under the two-batch FO-MAML loop.
  for (const float v : algo.meta_params()) {
    ASSERT_TRUE(std::isfinite(v));
  }
}

TEST(PerFedAvgTest, CommEqualsFedAvgPattern) {
  const auto cfg = tiny();
  fl::Federation f1(cfg);
  fl::Federation f2(cfg);
  fl::PerFedAvg a(f1);
  fl::FedAvg b(f2);
  a.run();
  b.run();
  // Per-FedAvg ships the full model both ways, like FedAvg.
  EXPECT_EQ(f1.comm().bytes_total(), f2.comm().bytes_total());
}

// ------------------------------------------------------------------ LG

TEST(LgTest, LocalPrefixesStayPersonalGlobalSuffixIsShared) {
  fl::Federation fed(tiny());
  fl::LgFedAvg algo(fed);
  algo.run();
  const std::size_t off = algo.global_offset();
  ASSERT_GT(off, 0u);
  ASSERT_LT(off, fed.model_size());
  EXPECT_EQ(algo.global_suffix().size(), fed.model_size() - off);
}

TEST(LgTest, GlobalParamCountValidation) {
  auto cfg = tiny();
  cfg.algo.lg_global_params = 99;  // more tensors than the model has
  fl::Federation fed(cfg);
  fl::LgFedAvg algo(fed);
  EXPECT_THROW(algo.run(), std::invalid_argument);
}

// -------------------------------------------------- synthetic structure

// Prototypes are sparse combinations of a shared dictionary plus per-class
// gratings, so the matrix of all noiseless prototypes has numerical rank
// at most dict_size + grating degrees of freedom — far below the count of
// prototypes. This is the feature-transfer property DESIGN.md §1 relies on.
TEST(SyntheticStructure, PrototypesSpanLowDimensionalSubspace) {
  data::SyntheticSpec spec = data::dataset_spec("cifar10");
  spec.hw = 8;  // keep the SVD small
  const data::SyntheticGenerator gen(spec, 3);
  const std::size_t n_protos =
      spec.num_classes * spec.prototypes_per_class;  // 60
  const std::size_t d = gen.image_size();            // 192
  tensor::Tensor m({n_protos, d});
  std::size_t row = 0;
  for (std::size_t c = 0; c < spec.num_classes; ++c) {
    for (std::size_t p = 0; p < spec.prototypes_per_class; ++p, ++row) {
      const auto proto = gen.prototype(static_cast<std::int64_t>(c), p);
      for (std::size_t j = 0; j < d; ++j) m[row * d + j] = proto[j];
    }
  }
  const auto svd = linalg::jacobi_svd(m);
  // Count singular values above 1% of the largest.
  std::size_t rank = 0;
  for (const float s : svd.s) rank += s > 0.01f * svd.s[0];
  // Upper bound: dictionary atoms + one grating pattern pair per distinct
  // (angle, freq) class signature. Loose check: well below n_protos.
  EXPECT_LT(rank, spec.dict_size + 2 * spec.num_classes);
  EXPECT_LT(rank, n_protos);
}

// Same-class prototypes share their grating: the class-mean images of two
// different classes are farther apart than two prototype means within one
// class on average... covered by data_test; here check determinism of
// prototype() vs sample() with zero noise and jitter.
TEST(SyntheticStructure, ZeroNoiseSampleEqualsPrototype) {
  data::SyntheticSpec spec = data::dataset_spec("fmnist");
  spec.noise = 0.0f;
  spec.coeff_jitter = 0.0f;
  spec.prototypes_per_class = 1;
  const data::SyntheticGenerator gen(spec, 9);
  util::Rng rng(1);
  const auto sample = gen.sample(4, rng);
  const auto proto = gen.prototype(4, 0);
  ASSERT_EQ(sample.size(), proto.size());
  for (std::size_t i = 0; i < sample.size(); ++i) {
    EXPECT_FLOAT_EQ(sample[i], proto[i]);
  }
}

// ------------------------------------------------------------ IID sanity

// Under IID data every method should behave like standard training: FedAvg
// must do at least as well as any single client could — an end-to-end
// sanity check of the whole pipeline.
TEST(IidSanity, FedAvgLearnsWellOnIidData) {
  auto cfg = tiny(10);
  cfg.fed.partition = "iid";
  cfg.rounds = 10;
  cfg.local.epochs = 2;
  fl::Federation fed(cfg);
  fl::FedAvg algo(fed);
  const fl::Trace t = algo.run();
  EXPECT_GT(t.final_accuracy(), 0.5);
  // Accuracy improved materially over the start of training.
  EXPECT_GT(t.final_accuracy(),
            t.records.front().avg_local_test_acc + 0.1);
}

}  // namespace
}  // namespace fedclust
