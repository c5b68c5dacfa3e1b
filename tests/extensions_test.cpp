// Tests for the library's extension surface: SCAFFOLD and FedDyn
// baselines and the SGD gradient offset hook.

#include <gtest/gtest.h>

#include <cmath>

#include "core/registry.h"
#include "fl/fedavg.h"
#include "fl/fedopt.h"
#include "fl/ditto.h"
#include "fl/feddyn.h"
#include "fl/flis.h"
#include "fl/scaffold.h"
#include "nn/init.h"
#include "nn/optimizer.h"
#include "nn/model_zoo.h"
#include "util/rng.h"

namespace fedclust {
namespace {

fl::ExperimentConfig small_config() {
  fl::ExperimentConfig cfg;
  cfg.data_spec = data::dataset_spec("fmnist");
  cfg.data_spec.hw = 8;
  cfg.fed.n_clients = 8;
  cfg.fed.train_per_client = 12;
  cfg.fed.test_per_client = 6;
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
  cfg.seed = 31;
  return cfg;
}

// --------------------------------------------------- SCAFFOLD / FedDyn

TEST(Extensions, RegistryExposesExtraMethods) {
  EXPECT_EQ(core::extra_methods(),
            (std::vector<std::string>{"SCAFFOLD", "FedDyn", "Ditto", "FLIS",
                                      "FedAvgM", "FedAdam"}));
  fl::Federation fed(small_config());
  for (const auto& name : core::extra_methods()) {
    EXPECT_EQ(core::make_algorithm(name, fed)->name(), name);
  }
}

// Every extension method runs end-to-end on a small federation.
class ExtraMethodSweep : public ::testing::TestWithParam<std::string> {};

TEST_P(ExtraMethodSweep, RunsAndTraces) {
  fl::Federation fed(small_config());
  const auto algo = core::make_algorithm(GetParam(), fed);
  const fl::Trace t = algo->run();
  EXPECT_EQ(t.records.size(), 3u);
  for (const auto& r : t.records) {
    EXPECT_GE(r.avg_local_test_acc, 0.0);
    EXPECT_LE(r.avg_local_test_acc, 1.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Extras, ExtraMethodSweep,
                         ::testing::Values("SCAFFOLD", "FedDyn", "Ditto",
                                           "FLIS", "FedAvgM", "FedAdam"));

TEST(FedOptTest, MomentumWithZeroBetaAndUnitLrIsFedAvg) {
  auto cfg = small_config();
  cfg.rounds = 3;
  fl::Federation f1(cfg);
  fl::FedOptOptions opts;
  opts.server_opt = "momentum";
  opts.server_lr = 1.0f;
  opts.beta1 = 0.0f;  // no momentum memory: w += delta exactly
  fl::FedOpt fedopt(f1, opts);
  fedopt.run();
  fl::Federation f2(cfg);
  fl::FedAvg fedavg(f2);
  fedavg.run();
  const auto& a = fedopt.global_params();
  const auto& b = fedavg.global_params();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_NEAR(a[i], b[i], 1e-5) << i;
  }
}

TEST(FedOptTest, MomentumChangesTrajectory) {
  auto cfg = small_config();
  fl::Federation f1(cfg);
  fl::FedOpt fedavgm(f1, fl::FedOptOptions{});  // beta1 = 0.9 default
  fedavgm.run();
  fl::Federation f2(cfg);
  fl::FedAvg fedavg(f2);
  fedavg.run();
  EXPECT_NE(fedavgm.global_params(), fedavg.global_params());
}

TEST(FedOptTest, RejectsUnknownServerOptimizer) {
  auto cfg = small_config();
  fl::Federation fed(cfg);
  fl::FedOptOptions opts;
  opts.server_opt = "lamb";
  EXPECT_THROW(fl::FedOpt(fed, opts), std::invalid_argument);
}

TEST(DittoTest, PersonalModelsDivergeFromGlobal) {
  fl::Federation fed(small_config());
  fl::Ditto algo(fed, /*lambda=*/0.1f);
  algo.run();
  // Sampled clients' personal models must differ from both θ0 and the
  // global model (they trained with their own data).
  bool any_moved = false;
  for (std::size_t c = 0; c < fed.n_clients(); ++c) {
    if (algo.personal_params(c) != fed.init_params()) {
      any_moved = true;
      EXPECT_NE(algo.personal_params(c), algo.global_params());
    }
  }
  EXPECT_TRUE(any_moved);
}

TEST(FlisTest, ClustersViaProxyInference) {
  auto cfg = small_config();
  cfg.fed.label_set_pool = 2;
  fl::Federation fed(cfg);
  fl::Flis algo(fed, /*proxy_per_class=*/3, /*k=*/2);
  const fl::Trace t = algo.run();
  EXPECT_EQ(t.final_clusters(), 2u);
  EXPECT_EQ(algo.assignment().size(), fed.n_clients());
  // Proxy predictions were uploaded by every client before any model moved.
  EXPECT_GT(fed.comm().bytes_up(), 0u);
}

TEST(ScaffoldTest, RunsAndDoublesCommunication) {
  const auto cfg = small_config();
  fl::Federation f1(cfg);
  fl::Scaffold scaffold(f1);
  const fl::Trace t = scaffold.run();
  EXPECT_EQ(t.records.size(), cfg.rounds);

  fl::Federation f2(cfg);
  fl::FedAvg fedavg(f2);
  fedavg.run();
  // Control variates ride along with the model: exactly 2x FedAvg's bytes.
  EXPECT_EQ(f1.comm().bytes_total(), 2 * f2.comm().bytes_total());
}

TEST(ScaffoldTest, FirstRoundVariatesAreZeroSoModelMatchesFedAvg) {
  // With all c_i = c = 0, SCAFFOLD's first round is exactly FedAvg.
  auto cfg = small_config();
  cfg.rounds = 1;
  fl::Federation f1(cfg);
  fl::Scaffold scaffold(f1);
  scaffold.run();
  fl::Federation f2(cfg);
  fl::FedAvg fedavg(f2);
  fedavg.run();
  EXPECT_EQ(scaffold.global_params(), fedavg.global_params());
}

TEST(FedDynTest, RunsAndTracksState) {
  fl::Federation fed(small_config());
  fl::FedDyn algo(fed, /*alpha=*/0.1f);
  const fl::Trace t = algo.run();
  EXPECT_EQ(t.records.size(), 3u);
  EXPECT_EQ(algo.global_params().size(), fed.model_size());
  for (const float v : algo.global_params()) {
    EXPECT_TRUE(std::isfinite(v));
  }
}

TEST(SgdOffset, AddsConstantToEveryStep) {
  util::Rng rng(1);
  auto fc = nn::make_linear(1, 1, rng, "fc");
  fc->weight().value[0] = 0.0f;
  fc->bias().value[0] = 0.0f;
  fc->weight().grad[0] = 0.0f;
  fc->bias().grad[0] = 0.0f;
  nn::Sgd opt(fc->parameters(), {.lr = 1.0f});
  opt.set_grad_offset({2.0f, -3.0f});
  opt.step();
  EXPECT_FLOAT_EQ(fc->weight().value[0], -2.0f);
  EXPECT_FLOAT_EQ(fc->bias().value[0], 3.0f);
  EXPECT_THROW(opt.set_grad_offset({1.0f}), std::invalid_argument);
  // Clearing the offset restores plain SGD.
  opt.set_grad_offset({});
  opt.step();
  EXPECT_FLOAT_EQ(fc->weight().value[0], -2.0f);
}

}  // namespace
}  // namespace fedclust
