// Deeper behavioural tests for the clustered methods and aggregation
// helpers: per-cluster FedAvg mechanics, FedNova's equivalence to FedAvg in
// the homogeneous case, CFL's split trigger, IFCA/PACFL/FedClust newcomer
// selection, and optimizer gradient clipping.

#include <gtest/gtest.h>

#include "clustering/hierarchical.h"
#include "core/fedclust.h"
#include "fl/cfl.h"
#include "fl/cluster_common.h"
#include "fl/fedavg.h"
#include "fl/fednova.h"
#include "fl/ifca.h"
#include "fl/pacfl.h"
#include "nn/init.h"
#include "nn/optimizer.h"
#include "tensor/tensor_ops.h"

namespace fedclust::fl {
namespace {

ExperimentConfig base_config(std::size_t n_clients = 8) {
  ExperimentConfig cfg;
  cfg.data_spec = data::dataset_spec("fmnist");
  cfg.data_spec.hw = 8;
  cfg.fed.n_clients = n_clients;
  cfg.fed.train_per_client = 12;
  cfg.fed.test_per_client = 6;
  cfg.fed.partition = "skew";
  cfg.fed.skew_fraction = 0.2;
  cfg.fed.label_set_pool = 2;
  cfg.model.arch = "mlp";
  cfg.model.in_channels = 1;
  cfg.model.image_hw = 8;
  cfg.model.num_classes = 10;
  cfg.local.epochs = 1;
  cfg.local.batch_size = 6;
  cfg.local.lr = 0.05f;
  cfg.rounds = 2;
  cfg.sample_fraction = 0.5;
  cfg.seed = 77;
  return cfg;
}

// ------------------------------------------------------- cluster rounds

TEST(ClusterCommon, UnsampledClustersKeepTheirModel) {
  Federation fed(base_config());
  // Assign every client to cluster 0; cluster 1 exists but owns nobody.
  std::vector<std::size_t> assignment(fed.n_clients(), 0);
  std::vector<std::vector<float>> models = {fed.init_params(),
                                            fed.init_params()};
  const auto before = models[1];
  cluster_fedavg_round(fed, 0, assignment, models);
  EXPECT_EQ(models[1], before);   // untouched
  EXPECT_NE(models[0], before);   // trained
}

TEST(ClusterCommon, ValidatesAssignment) {
  Federation fed(base_config());
  std::vector<std::vector<float>> models = {fed.init_params()};
  std::vector<std::size_t> short_assignment(fed.n_clients() - 1, 0);
  EXPECT_THROW(cluster_fedavg_round(fed, 0, short_assignment, models),
               std::invalid_argument);
  std::vector<std::size_t> oob(fed.n_clients(), 3);
  EXPECT_THROW(cluster_fedavg_round(fed, 0, oob, models),
               std::invalid_argument);
}

TEST(ClusterCommon, CommAccountsFullModelBothWays) {
  Federation fed(base_config());
  std::vector<std::size_t> assignment(fed.n_clients(), 0);
  std::vector<std::vector<float>> models = {fed.init_params()};
  const std::size_t sampled = fed.sample_round(0).size();
  cluster_fedavg_round(fed, 0, assignment, models);
  EXPECT_EQ(fed.comm().bytes_down(), sampled * fed.model_size() * 4);
  EXPECT_EQ(fed.comm().bytes_up(), sampled * fed.model_size() * 4);
}

TEST(ClusterCommon, SingleClusterMatchesFedAvgRound) {
  // With one cluster holding everyone, a cluster round IS a FedAvg round.
  const ExperimentConfig cfg = base_config();
  Federation f1(cfg);
  Federation f2(cfg);

  std::vector<std::size_t> assignment(f1.n_clients(), 0);
  std::vector<std::vector<float>> models = {f1.init_params()};
  cluster_fedavg_round(f1, 0, assignment, models);

  FedAvg fedavg(f2);
  // Run exactly one round via the public API.
  auto cfg1 = cfg;
  cfg1.rounds = 1;
  Federation f3(cfg1);
  FedAvg one_round(f3);
  one_round.run();
  EXPECT_EQ(models[0], one_round.global_params());
}

// ------------------------------------------------------------- fednova

// When every client has the same data volume and step count, FedNova's
// normalized aggregation reduces exactly to FedAvg.
TEST(FedNovaTest, EqualsFedAvgUnderHomogeneousSteps) {
  ExperimentConfig cfg = base_config();
  cfg.rounds = 3;
  Federation f1(cfg);
  Federation f2(cfg);
  FedAvg avg(f1);
  FedNova nova(f2);
  const Trace t1 = avg.run();
  const Trace t2 = nova.run();
  const auto& a = avg.global_params();
  const auto& b = nova.global_params();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_NEAR(a[i], b[i], 1e-4) << "diverged at " << i;
  }
  EXPECT_NEAR(t1.final_accuracy(), t2.final_accuracy(), 1e-9);
}

// Under quantity skew clients take different step counts, which is exactly
// when FedNova's normalization departs from FedAvg.
TEST(FedNovaTest, DivergesFromFedAvgUnderQuantitySkew) {
  ExperimentConfig cfg = base_config();
  cfg.fed.quantity_skew_factor = 4.0;
  cfg.rounds = 2;
  Federation f1(cfg);
  Federation f2(cfg);
  FedAvg avg(f1);
  FedNova nova(f2);
  avg.run();
  nova.run();
  EXPECT_NE(avg.global_params(), nova.global_params());
}

// --------------------------------------------------------------- cfl

TEST(CflSplit, IncongruentClustersEventuallySplit) {
  // Two strongly conflicting groups, full participation, several rounds:
  // the congruence criterion must fire at least once.
  ExperimentConfig cfg = base_config(8);
  cfg.fed.label_set_pool = 2;
  cfg.sample_fraction = 1.0;  // everyone participates: clean norms
  cfg.rounds = 10;
  cfg.local.epochs = 2;
  cfg.algo.cfl_eps1 = 0.9f;   // permissive thresholds for the small setup
  cfg.algo.cfl_eps2 = 0.3f;
  Federation fed(cfg);
  Cfl algo(fed);
  const Trace t = algo.run();
  EXPECT_GT(t.final_clusters(), 1u) << "CFL never split";
  // All assignments reference live clusters.
  for (const auto a : algo.assignment()) {
    EXPECT_LT(a, t.final_clusters());
  }
}

TEST(CflSplit, NeverSplitsWithImpossibleThresholds) {
  ExperimentConfig cfg = base_config(8);
  cfg.rounds = 6;
  cfg.algo.cfl_eps1 = 0.0f;  // mean-norm can never be below 0
  Federation fed(cfg);
  Cfl algo(fed);
  EXPECT_EQ(algo.run().final_clusters(), 1u);
}

// -------------------------------------------------------------- ifca

TEST(IfcaTest, SelectionPicksLowestLossModel) {
  ExperimentConfig cfg = base_config();
  cfg.algo.ifca_k = 3;
  Federation fed(cfg);
  Ifca algo(fed);
  const Trace t = algo.run();
  ASSERT_EQ(algo.models().size(), 3u);
  // Verify the selector against a manual argmin for a few clients.
  nn::Model& ws = fed.workspace();
  for (std::size_t c = 0; c < 3; ++c) {
    float best = std::numeric_limits<float>::infinity();
    std::size_t best_k = 0;
    for (std::size_t k = 0; k < 3; ++k) {
      ws.set_flat_params(algo.models()[k]);
      const float loss = fed.client(c)->train_loss(ws);
      if (loss < best) {
        best = loss;
        best_k = k;
      }
    }
    EXPECT_EQ(algo.select_cluster_for(*fed.client(c)), best_k);
  }
  EXPECT_GE(t.final_accuracy(), 0.0);
}

// ------------------------------------------------------------- pacfl

TEST(PacflTest, NewcomerJoinsNearestSubspaceCluster) {
  ExperimentConfig cfg = base_config(10);
  cfg.fed.label_set_pool = 2;
  cfg.rounds = 1;
  cfg.algo.pacfl_k = 2;
  // Plan one extra client from the same pools as a newcomer. The plan is
  // prefix-stable, so its first 10 clients are the federation's own.
  auto ext_fed = cfg.fed;
  ext_fed.n_clients = 11;
  const data::PartitionPlan plan(cfg.data_spec, ext_fed, cfg.seed);
  data::ClientData ext = plan.materialize(10);
  const std::size_t newcomer_group = ext.group_id;
  SimClient newcomer(10, std::move(ext.train), std::move(ext.test));

  Federation fed(cfg);
  Pacfl algo(fed);
  algo.run();
  const std::size_t joined = algo.assign_newcomer(newcomer);
  ASSERT_LT(joined, clustering::num_clusters(algo.assignment()));

  // The cluster it joined should be dominated by its own ground-truth
  // group (subspaces of same-pool clients are near-identical).
  std::size_t same = 0;
  std::size_t total = 0;
  for (std::size_t c = 0; c < 10; ++c) {
    if (algo.assignment()[c] != joined) continue;
    ++total;
    same += plan.sketch(c).group_id == newcomer_group;
  }
  ASSERT_GT(total, 0u);
  EXPECT_GE(2 * same, total) << "newcomer joined a foreign cluster";
}

TEST(PacflTest, NewcomerBeforeSetupThrows) {
  ExperimentConfig cfg = base_config();
  Federation fed(cfg);
  Pacfl algo(fed);
  auto d = data::make_federated_data(cfg.data_spec, cfg.fed, 1);
  SimClient newcomer(0, std::move(d[0].train), std::move(d[0].test));
  EXPECT_THROW(algo.assign_newcomer(newcomer), std::logic_error);
}

// ----------------------------------------------------------- clipping

TEST(SgdClip, LargeGradientsAreRescaled) {
  util::Rng rng(3);
  auto fc = nn::make_linear(1, 1, rng, "fc");
  fc->weight().value[0] = 0.0f;
  fc->bias().value[0] = 0.0f;
  fc->weight().grad[0] = 30.0f;
  fc->bias().grad[0] = 40.0f;  // joint norm 50, clip at 5 -> scale 0.1
  nn::Sgd opt(fc->parameters(), {.lr = 1.0f, .clip_grad_norm = 5.0f});
  opt.step();
  EXPECT_NEAR(fc->weight().value[0], -3.0f, 1e-5);
  EXPECT_NEAR(fc->bias().value[0], -4.0f, 1e-5);
}

TEST(SgdClip, SmallGradientsUntouched) {
  util::Rng rng(3);
  auto fc = nn::make_linear(1, 1, rng, "fc");
  fc->weight().value[0] = 0.0f;
  fc->bias().value[0] = 0.0f;
  fc->weight().grad[0] = 0.3f;
  fc->bias().grad[0] = 0.4f;  // norm 0.5 < 5
  nn::Sgd opt(fc->parameters(), {.lr = 1.0f, .clip_grad_norm = 5.0f});
  opt.step();
  EXPECT_NEAR(fc->weight().value[0], -0.3f, 1e-6);
  EXPECT_NEAR(fc->bias().value[0], -0.4f, 1e-6);
}

// -------------------------------------------------- dropout & metrics

TEST(Dropout, ReducesParticipationButNeverToZero) {
  ExperimentConfig cfg = base_config(8);
  cfg.sample_fraction = 1.0;
  cfg.fault.pre_round_dropout = 0.5;
  Federation fed(cfg);
  std::size_t total = 0;
  for (std::size_t r = 0; r < 50; ++r) {
    const auto ids = fed.sample_round(r);
    ASSERT_GE(ids.size(), 1u);
    ASSERT_LE(ids.size(), 8u);
    total += ids.size();
  }
  // Expected survivors ~ 4/round; far below full participation.
  EXPECT_LT(total, 50u * 7u);
  EXPECT_GT(total, 50u * 1u);
}

TEST(Dropout, FederationStillTrainsEndToEnd) {
  ExperimentConfig cfg = base_config(8);
  cfg.fault.pre_round_dropout = 0.6;
  cfg.rounds = 4;
  Federation fed(cfg);
  FedAvg algo(fed);
  const Trace t = algo.run();
  EXPECT_EQ(t.records.size(), 4u);
  // Dropped clients ship nothing: comm below the no-dropout bill.
  ExperimentConfig full = cfg;
  full.fault.pre_round_dropout = 0.0;
  Federation fed2(full);
  FedAvg algo2(fed2);
  algo2.run();
  EXPECT_LT(fed.comm().bytes_total(), fed2.comm().bytes_total());
}

TEST(FedClustMetric, CosineDistanceOptionWorks) {
  ExperimentConfig cfg = base_config(8);
  cfg.rounds = 1;
  cfg.algo.fedclust_k = 2;
  cfg.algo.fedclust_distance = "cosine";
  Federation fed(cfg);
  core::FedClust algo(fed);
  algo.run();
  EXPECT_EQ(algo.report().n_clusters, 2u);
  // Cosine distances live in [0, 2].
  for (std::size_t i = 0; i < algo.report().proximity.size(); ++i) {
    EXPECT_GE(algo.report().proximity[i], 0.0f);
    EXPECT_LE(algo.report().proximity[i], 2.0f);
  }
  cfg.algo.fedclust_distance = "mahalanobis";
  Federation fed2(cfg);
  core::FedClust bad(fed2);
  EXPECT_THROW(bad.run(), std::invalid_argument);
}

// FedClust's fixed-k mode must produce exactly k clusters regardless of λ.
TEST(FedClustFixedK, ProducesExactlyK) {
  ExperimentConfig cfg = base_config(8);
  cfg.rounds = 1;
  for (const std::size_t k : {1u, 2u, 4u, 8u}) {
    auto c = cfg;
    c.algo.fedclust_k = k;
    Federation fed(c);
    core::FedClust algo(fed);
    algo.run();
    EXPECT_EQ(algo.report().n_clusters, k);
    EXPECT_FLOAT_EQ(algo.report().effective_lambda, -1.0f);
  }
}

}  // namespace
}  // namespace fedclust::fl
