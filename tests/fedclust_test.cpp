// Integration tests for the paper's contribution: one-shot weight-driven
// clustering (Algorithm 1), the λ dial, newcomer incorporation
// (Algorithm 2), and the headline comparison shape (FedClust beats the
// single-global-model baseline under label skew).

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>

#include "clustering/hierarchical.h"
#include "clustering/metrics.h"
#include "core/fedclust.h"
#include "fl/fedavg.h"
#include "fl/flis.h"
#include "util/stats.h"
#include "util/thread_pool.h"

namespace fedclust::core {
namespace {

using fl::ExperimentConfig;
using fl::Federation;

// 12 clients drawn from 3 distinct label sets -> 3 ground-truth groups.
ExperimentConfig grouped_config() {
  ExperimentConfig cfg;
  // CIFAR-10-like difficulty (strong noise) so a single global model cannot
  // trivially fit all classes — the regime where clustering pays off.
  cfg.data_spec = data::dataset_spec("cifar10");
  cfg.data_spec.hw = 8;
  cfg.data_spec.noise = 1.4f;
  cfg.fed.n_clients = 12;
  cfg.fed.train_per_client = 24;
  cfg.fed.test_per_client = 10;
  cfg.fed.partition = "skew";
  cfg.fed.skew_fraction = 0.2;
  cfg.fed.label_set_pool = 3;
  cfg.model.arch = "mlp";
  cfg.model.in_channels = 3;
  cfg.model.image_hw = 8;
  cfg.model.num_classes = 10;
  cfg.local.epochs = 2;
  cfg.local.batch_size = 8;
  cfg.local.lr = 0.05f;
  cfg.local.momentum = 0.5f;
  cfg.rounds = 6;
  cfg.sample_fraction = 0.5;
  cfg.seed = 21;
  cfg.algo.fedclust_init_epochs = 2;
  cfg.algo.fedclust_lambda = 1e9f;  // overridden per test
  return cfg;
}

// Pick λ from the proximity matrix: halfway between the tightest and the
// loosest pairwise distances. With clean group structure this lands in the
// intra/inter gap.
float midrange_lambda(const tensor::Tensor& proximity) {
  const std::size_t n = proximity.dim(0);
  float lo = std::numeric_limits<float>::infinity();
  float hi = 0.0f;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      lo = std::min(lo, proximity[i * n + j]);
      hi = std::max(hi, proximity[i * n + j]);
    }
  }
  return 0.5f * (lo + hi);
}

TEST(FedClustCore, ProximityMatrixSeparatesGroups) {
  ExperimentConfig cfg = grouped_config();
  cfg.rounds = 1;
  Federation fed(cfg);
  const auto data =
      data::make_federated_data(cfg.data_spec, cfg.fed, cfg.seed);
  const auto truth = data::group_ids(data);

  FedClust algo(fed);
  algo.run();
  const auto& prox = algo.report().proximity;
  ASSERT_EQ(prox.dim(0), 12u);

  // Intra-group distances must be systematically below inter-group ones.
  double intra = 0.0;
  double inter = 0.0;
  std::size_t n_intra = 0;
  std::size_t n_inter = 0;
  for (std::size_t i = 0; i < 12; ++i) {
    for (std::size_t j = i + 1; j < 12; ++j) {
      if (truth[i] == truth[j]) {
        intra += prox[i * 12 + j];
        ++n_intra;
      } else {
        inter += prox[i * 12 + j];
        ++n_inter;
      }
    }
  }
  ASSERT_GT(n_intra, 0u);
  ASSERT_GT(n_inter, 0u);
  EXPECT_LT(intra / n_intra, 0.8 * (inter / n_inter));
}

TEST(FedClustCore, OneShotClusteringRecoversGroups) {
  ExperimentConfig cfg = grouped_config();
  cfg.rounds = 1;
  // First pass only to get the proximity matrix.
  Federation probe_fed(cfg);
  FedClust probe(probe_fed);
  probe.run();
  cfg.algo.fedclust_lambda = midrange_lambda(probe.report().proximity);

  Federation fed(cfg);
  FedClust algo(fed);
  algo.run();
  const auto data =
      data::make_federated_data(cfg.data_spec, cfg.fed, cfg.seed);
  const double ari = clustering::adjusted_rand_index(
      algo.assignment(), data::group_ids(data));
  EXPECT_GT(ari, 0.8) << "one-shot clustering should recover label groups";
}

TEST(FedClustCore, LambdaDialSweepsClusterCount) {
  ExperimentConfig cfg = grouped_config();
  cfg.rounds = 1;
  // Tiny λ -> every client its own cluster (pure personalization).
  cfg.algo.fedclust_lambda = 1e-9f;
  Federation f1(cfg);
  FedClust personalized(f1);
  personalized.run();
  EXPECT_EQ(personalized.report().n_clusters, 12u);
  // Huge λ -> one cluster (pure globalization ~ FedAvg).
  cfg.algo.fedclust_lambda = 1e9f;
  Federation f2(cfg);
  FedClust global(f2);
  global.run();
  EXPECT_EQ(global.report().n_clusters, 1u);
}

TEST(FedClustCore, AutoLambdaRecoversGroups) {
  ExperimentConfig cfg = grouped_config();
  cfg.rounds = 1;
  cfg.algo.fedclust_lambda = -1.0f;  // data-driven λ (largest gap)
  Federation fed(cfg);
  FedClust algo(fed);
  algo.run();
  EXPECT_GT(algo.report().effective_lambda, 0.0f);
  const auto data =
      data::make_federated_data(cfg.data_spec, cfg.fed, cfg.seed);
  const double ari = clustering::adjusted_rand_index(
      algo.assignment(), data::group_ids(data));
  EXPECT_GT(ari, 0.8) << "auto-λ found " << algo.report().n_clusters
                      << " clusters";
}

TEST(FedClustCore, Round0CommIsBroadcastPlusPartialUploads) {
  ExperimentConfig cfg = grouped_config();
  cfg.rounds = 1;
  cfg.algo.fedclust_lambda = 1e9f;
  Federation fed(cfg);
  FedClust algo(fed);
  algo.run();
  const std::size_t p = fed.model_size();
  const auto [cls_off, cls_size] = fed.workspace().classifier_range();
  (void)cls_off;
  const std::size_t sampled = fed.sample_round(0).size();
  // Down: θ0 to all 12 clients + per-round downloads to sampled clients.
  EXPECT_EQ(fed.comm().bytes_down(), (12 * p + sampled * p) * 4);
  // Up: partial weights from all 12 + full models from sampled clients.
  EXPECT_EQ(fed.comm().bytes_up(), (12 * cls_size + sampled * p) * 4);
  // The clustering upload is much cheaper than a full-model upload.
  EXPECT_LT(cls_size * 10, p);
}

TEST(FedClustCore, BeatsFedAvgUnderLabelSkew) {
  ExperimentConfig cfg = grouped_config();
  cfg.rounds = 8;
  // λ chosen by probing (as a user of the library would tune Fig. 4).
  {
    ExperimentConfig probe_cfg = cfg;
    probe_cfg.rounds = 1;
    Federation probe_fed(probe_cfg);
    FedClust probe(probe_fed);
    probe.run();
    cfg.algo.fedclust_lambda = midrange_lambda(probe.report().proximity);
  }
  Federation f1(cfg);
  FedClust ours(f1);
  const double ours_acc = ours.run().final_accuracy();

  Federation f2(cfg);
  fl::FedAvg fedavg(f2);
  const double fedavg_acc = fedavg.run().final_accuracy();

  EXPECT_GT(ours_acc, fedavg_acc + 0.05)
      << "FedClust=" << ours_acc << " FedAvg=" << fedavg_acc;
}

TEST(FedClustCore, NewcomerJoinsMatchingCluster) {
  ExperimentConfig cfg = grouped_config();
  cfg.rounds = 2;
  {
    ExperimentConfig probe_cfg = cfg;
    probe_cfg.rounds = 1;
    Federation probe_fed(probe_cfg);
    FedClust probe(probe_fed);
    probe.run();
    cfg.algo.fedclust_lambda = midrange_lambda(probe.report().proximity);
  }
  Federation fed(cfg);
  FedClust algo(fed);
  algo.run();
  const auto data =
      data::make_federated_data(cfg.data_spec, cfg.fed, cfg.seed);
  const auto truth = data::group_ids(data);

  // Build newcomers whose data comes from the same generator pools: reuse
  // an existing client's label weights by regenerating the federation with
  // more clients and holding the extras out.
  auto ext_cfg = cfg;
  ext_cfg.fed.n_clients = 16;  // 4 extra clients
  auto ext_data =
      data::make_federated_data(ext_cfg.data_spec, ext_cfg.fed, cfg.seed);
  const auto ext_truth = data::group_ids(ext_data);

  // Map each existing cluster to its majority ground-truth group.
  std::map<std::size_t, std::map<std::size_t, int>> votes;
  for (std::size_t c = 0; c < 12; ++c) {
    ++votes[algo.assignment()[c]][truth[c]];
  }
  std::map<std::size_t, std::size_t> cluster_to_group;
  for (const auto& [cluster, counts] : votes) {
    std::size_t best_g = 0;
    int best_n = -1;
    for (const auto& [g, n] : counts) {
      if (n > best_n) {
        best_n = n;
        best_g = g;
      }
    }
    cluster_to_group[cluster] = best_g;
  }

  std::size_t correct = 0;
  std::size_t total = 0;
  for (std::size_t c = 12; c < 16; ++c) {
    fl::SimClient newcomer(c, std::move(ext_data[c].train),
                           std::move(ext_data[c].test));
    const std::size_t k =
        algo.assign_newcomer(newcomer, util::Rng(900 + c));
    ASSERT_LT(k, algo.report().n_clusters);
    // Only score newcomers whose group is represented among the originals.
    bool represented = false;
    for (std::size_t i = 0; i < 12; ++i) {
      represented |= truth[i] == ext_truth[c];
    }
    if (!represented) continue;
    ++total;
    correct += cluster_to_group[k] == ext_truth[c];
  }
  ASSERT_GE(total, 3u);
  // Allow a single miss: warm-up is one or two epochs on very noisy data.
  EXPECT_GE(correct + 1, total)
      << "newcomers must land in their data's cluster";
}

TEST(FedClustCore, AssignNewcomerBeforeSetupThrows) {
  ExperimentConfig cfg = grouped_config();
  Federation fed(cfg);
  FedClust algo(fed);
  auto data = data::make_federated_data(cfg.data_spec, cfg.fed, cfg.seed);
  fl::SimClient newcomer(99, std::move(data[0].train),
                         std::move(data[0].test));
  EXPECT_THROW(algo.assign_newcomer(newcomer, util::Rng(1)),
               std::logic_error);
}

// A warmup that diverges (lr = 1e9 drives the weights to Inf and NaN) stops
// set-up with an error naming the method, the client and its warmup upload
// before any distance is computed: in exact mode, under the landmark
// sketch, and for FLIS, whose warmup profiles arrive the same way. The
// client named is the first in id order at any thread count.
TEST(FedClustCore, DivergedWarmupNamesMethodAndClient) {
  ExperimentConfig cfg = grouped_config();
  cfg.local.lr = 1e9f;
  const auto setup_error = [&](const std::string& method,
                               std::size_t landmarks, std::size_t threads) {
    util::reset_global_pool(threads);
    ExperimentConfig c = cfg;
    c.landmarks = landmarks;
    Federation fed(c);
    std::unique_ptr<fl::FlAlgorithm> algo;
    if (method == "FLIS") {
      algo = std::make_unique<fl::Flis>(fed);
    } else {
      algo = std::make_unique<FedClust>(fed);
    }
    try {
      algo->run();
    } catch (const std::runtime_error& e) {
      return std::string(e.what());
    }
    return std::string("no error");
  };
  const std::size_t prev = util::global_pool().size() + 1;
  for (const auto& [method, landmarks] :
       {std::pair<std::string, std::size_t>{"FedClust", 0},
        {"FedClust", 8},
        {"FLIS", 0}}) {
    const std::string what = setup_error(method, landmarks, 1);
    EXPECT_EQ(what.rfind(method + ": the warmup upload of client ", 0), 0u)
        << method << " landmarks=" << landmarks << ": " << what;
    EXPECT_NE(what.find("is not finite"), std::string::npos) << what;
    EXPECT_EQ(setup_error(method, landmarks, 4), what)
        << method << " landmarks=" << landmarks;
  }
  util::reset_global_pool(prev);
}

}  // namespace
}  // namespace fedclust::core
