// Landmark-sketch clustering (fl/landmark.h + the FedClust/PACFL setups
// built on it): deterministic landmark sampling, exact clustering as the
// every-client-a-landmark case, batch-size and thread-count invariance of
// the streamed assignment, lowest-index tie-breaking, snapshot round trips
// (with corruption rejected), and cluster recovery vs exact clustering on
// a grouped population.

#include <gtest/gtest.h>

#include <numeric>

#include "clustering/distance.h"
#include "clustering/metrics.h"
#include "core/fedclust.h"
#include "fl/landmark.h"
#include "fl/pacfl.h"
#include "util/thread_pool.h"

namespace fedclust::fl {
namespace {

// 24 clients drawn from 4 disjoint label sets -> 4 ground-truth groups,
// the population both the exact and the landmark setup should recover.
ExperimentConfig grouped_config() {
  ExperimentConfig cfg;
  cfg.data_spec = data::dataset_spec("cifar10");
  cfg.data_spec.hw = 8;
  cfg.data_spec.noise = 1.0f;
  cfg.fed.n_clients = 24;
  cfg.fed.train_per_client = 32;
  cfg.fed.test_per_client = 6;
  cfg.fed.partition = "skew";
  cfg.fed.skew_fraction = 0.2;
  cfg.fed.label_set_pool = 4;
  cfg.model.arch = "mlp";
  cfg.model.in_channels = 3;
  cfg.model.image_hw = 8;
  cfg.model.num_classes = 10;
  cfg.local.epochs = 1;
  cfg.local.batch_size = 8;
  cfg.local.lr = 0.05f;
  cfg.rounds = 1;
  cfg.sample_fraction = 0.25;
  cfg.seed = 17;
  cfg.algo.fedclust_init_epochs = 3;
  cfg.algo.fedclust_k = 4;
  return cfg;
}

// Synthetic 1-D features in 3 well-separated bands.
std::vector<std::vector<float>> band_features(
    const std::vector<std::size_t>& ids) {
  std::vector<std::vector<float>> out;
  out.reserve(ids.size());
  for (const std::size_t id : ids) {
    out.push_back({static_cast<float>(id % 3) * 10.0f +
                   0.1f * static_cast<float>(id)});
  }
  return out;
}

float abs_dist(const std::vector<float>& a, const std::vector<float>& b) {
  return std::abs(a[0] - b[0]);
}

std::vector<std::size_t> every_id(std::size_t n) {
  std::vector<std::size_t> ids(n);
  std::iota(ids.begin(), ids.end(), std::size_t{0});
  return ids;
}

std::string state_bytes(const FlAlgorithm& algo) {
  util::BinaryWriter w;
  algo.save_state(w);
  return std::string(w.view());
}

TEST(LandmarkSampling, DeterministicSortedDistinctInRange) {
  const auto ids = sample_landmarks(/*seed=*/7, /*n_clients=*/1000, 64);
  ASSERT_EQ(ids.size(), 64u);
  for (std::size_t i = 0; i < ids.size(); ++i) {
    EXPECT_LT(ids[i], 1000u);
    if (i > 0) {
      EXPECT_LT(ids[i - 1], ids[i]) << "sorted + distinct";
    }
  }
  EXPECT_EQ(ids, sample_landmarks(7, 1000, 64)) << "pure in (seed, n, L)";
  EXPECT_NE(ids, sample_landmarks(8, 1000, 64)) << "seed-salted";
}

TEST(LandmarkSampling, EffectiveCountZeroMeansExact) {
  EXPECT_EQ(effective_landmarks(100, 0), 0u);
  EXPECT_EQ(effective_landmarks(100, 100), 0u);  // covers everyone = exact
  EXPECT_EQ(effective_landmarks(100, 250), 0u);
  EXPECT_EQ(effective_landmarks(100, 99), 99u);
  // Exact clustering runs the sketch with every client a landmark.
  EXPECT_EQ(cluster_landmarks(7, 100, 0), every_id(100));
  EXPECT_EQ(cluster_landmarks(7, 100, 250), every_id(100));
  EXPECT_EQ(cluster_landmarks(7, 100, 99), sample_landmarks(7, 100, 99));
}

TEST(LandmarkSampling, AssignBatchesPartitionTheNonLandmarks) {
  const std::vector<std::size_t> landmarks = {2, 5, 6};
  const auto batches = landmark_assign_batches(10, landmarks, 3);
  std::vector<std::size_t> flat;
  for (const auto& b : batches) {
    EXPECT_LE(b.size(), 3u);
    EXPECT_FALSE(b.empty());
    flat.insert(flat.end(), b.begin(), b.end());
  }
  EXPECT_EQ(flat, (std::vector<std::size_t>{0, 1, 3, 4, 7, 8, 9}));
}

TEST(LandmarkCluster, NearestLandmarkTieBreaksToLowestIndex) {
  // Landmarks 0 and 2 are equidistant from the query; strict < must keep
  // the first (lowest-index) minimum.
  const std::vector<std::vector<float>> feats = {{1.0f}, {5.0f}, {-1.0f}};
  EXPECT_EQ(nearest_landmark(std::vector<float>{0.0f}, feats, abs_dist), 0u);
  EXPECT_EQ(nearest_landmark(std::vector<float>{-1.0f}, feats, abs_dist), 2u);
}

// The assignment must be a pure function of (feature, landmark set):
// independent of how the non-landmarks are batched and of the worker
// count doing the per-batch fan-out.
TEST(LandmarkCluster, AssignmentInvariantUnderBatchSizeAndThreads) {
  const std::size_t n = 50;
  const auto ids = sample_landmarks(3, n, 9);
  LandmarkCutPolicy cut;
  cut.k = 3;
  const auto run_with = [&](std::size_t batch, std::size_t threads) {
    util::reset_global_pool(threads);
    LandmarkCluster<std::vector<float>> sketch(n, ids, batch, band_features,
                                               abs_dist);
    return sketch.run(cut);
  };
  const std::size_t prev = util::global_pool().size() + 1;
  const LandmarkResult base = run_with(7, 1);
  EXPECT_EQ(base.n_clusters, 3u);
  EXPECT_EQ(base.assignment.size(), n);
  for (const std::size_t batch : {1u, 3u, 50u}) {
    EXPECT_EQ(run_with(batch, 1).assignment, base.assignment);
  }
  EXPECT_EQ(run_with(7, 4).assignment, base.assignment);
  util::reset_global_pool(prev);
}

TEST(LandmarkCluster, RejectsDegenerateLandmarkCounts) {
  using Sketch = LandmarkCluster<std::vector<float>>;
  EXPECT_THROW(Sketch(10, {}, 4, band_features, abs_dist),
               std::invalid_argument);
  EXPECT_THROW(Sketch(10, every_id(11), 4, band_features, abs_dist),
               std::invalid_argument);
}

// Exact clustering is the sketch with every client a landmark: the full
// proximity matrix, the plain dendrogram cut, nothing left to stream.
TEST(LandmarkCluster, EveryClientALandmarkIsExactClustering) {
  const std::size_t n = 30;
  LandmarkCutPolicy cut;
  cut.k = 3;
  LandmarkCluster<std::vector<float>> sketch(n, every_id(n), 4,
                                             band_features, abs_dist);
  const LandmarkResult res = sketch.run(cut);

  const auto feats = band_features(every_id(n));
  const tensor::Tensor proximity = clustering::distance_matrix(
      n, [&](std::size_t i, std::size_t j) {
        return abs_dist(feats[i], feats[j]);
      });
  EXPECT_EQ(res.proximity.vec(), proximity.vec());
  EXPECT_EQ(res.assignment,
            clustering::cut_to_k(clustering::agglomerative(proximity), 3));
  EXPECT_EQ(res.n_clusters, 3u);
  EXPECT_EQ(res.effective_lambda, -1.0f);
  EXPECT_EQ(sketch.take_landmark_features(), feats);
}

// End to end on the grouped population: the sketch, clustering only half
// the clients, must land (nearly) the same partition as the exact path.
TEST(LandmarkFedClust, RecoversExactPartitionOnGroupedClients) {
  ExperimentConfig cfg = grouped_config();
  Federation exact_fed(cfg);
  core::FedClust exact(exact_fed);
  exact.run();
  EXPECT_TRUE(exact.landmark_ids().empty());
  EXPECT_EQ(exact.report().proximity.dim(0), 24u) << "N×N when exact";

  cfg.landmarks = 12;
  Federation lm_fed(cfg);
  core::FedClust sketch(lm_fed);
  sketch.run();
  EXPECT_EQ(sketch.landmark_ids().size(), 12u);
  EXPECT_EQ(sketch.report().proximity.dim(0), 12u) << "L×L, not N×N";
  ASSERT_EQ(sketch.assignment().size(), 24u);

  const double ari = clustering::adjusted_rand_index(sketch.assignment(),
                                                     exact.assignment());
  EXPECT_GT(ari, 0.8) << "landmark partition diverged from exact";
}

TEST(LandmarkFedClust, AssignmentPureAcrossThreadCounts) {
  ExperimentConfig cfg = grouped_config();
  cfg.landmarks = 12;
  const std::size_t prev = util::global_pool().size() + 1;
  const auto run_with = [&](std::size_t threads) {
    util::reset_global_pool(threads);
    Federation fed(cfg);
    core::FedClust algo(fed);
    algo.run();
    return std::make_pair(algo.assignment(), state_bytes(algo));
  };
  const auto [asg1, state1] = run_with(1);
  const auto [asg4, state4] = run_with(4);
  util::reset_global_pool(prev);
  EXPECT_EQ(asg1, asg4);
  EXPECT_EQ(state1, state4) << "full state must be bit-identical";
}

TEST(LandmarkFedClust, SnapshotRoundTripPreservesLandmarks) {
  ExperimentConfig cfg = grouped_config();
  cfg.landmarks = 12;
  Federation fed(cfg);
  core::FedClust algo(fed);
  algo.run();
  const std::string saved = state_bytes(algo);

  Federation fresh_fed(cfg);
  core::FedClust fresh(fresh_fed);
  util::BinaryReader rd(saved);
  fresh.load_state(rd);
  EXPECT_TRUE(rd.done());
  EXPECT_EQ(fresh.landmark_ids(), algo.landmark_ids());
  EXPECT_EQ(fresh.assignment(), algo.assignment());
  EXPECT_EQ(state_bytes(fresh), saved);
}

TEST(LandmarkFedClust, CorruptLandmarkSnapshotRejected) {
  ExperimentConfig cfg = grouped_config();
  cfg.landmarks = 12;
  Federation fed(cfg);
  core::FedClust algo(fed);
  algo.run();
  std::string saved = state_bytes(algo);

  // The landmark-id vector is the final state section; its last entry
  // occupies the trailing 8 bytes. An absurd id must be rejected as both
  // out of range and unsorted.
  ASSERT_GE(saved.size(), 8u);
  for (std::size_t i = saved.size() - 8; i < saved.size(); ++i) {
    saved[i] = static_cast<char>(0xFF);
  }
  Federation fresh_fed(cfg);
  core::FedClust fresh(fresh_fed);
  util::BinaryReader rd(saved);
  EXPECT_THROW(fresh.load_state(rd), std::runtime_error);
}

TEST(LandmarkPacfl, SketchAssignsEveryoneAndSnapshotsClean) {
  ExperimentConfig cfg = grouped_config();
  cfg.landmarks = 12;
  cfg.algo.pacfl_k = 4;
  Federation fed(cfg);
  Pacfl algo(fed);
  algo.run();
  EXPECT_EQ(algo.landmark_ids().size(), 12u);
  ASSERT_EQ(algo.assignment().size(), 24u);
  for (const std::size_t k : algo.assignment()) {
    EXPECT_LT(k, algo.cluster_models().size());
  }

  const std::string saved = state_bytes(algo);
  Federation fresh_fed(cfg);
  Pacfl fresh(fresh_fed);
  util::BinaryReader rd(saved);
  fresh.load_state(rd);
  EXPECT_TRUE(rd.done());
  EXPECT_EQ(fresh.landmark_ids(), algo.landmark_ids());
  EXPECT_EQ(state_bytes(fresh), saved);
}

}  // namespace
}  // namespace fedclust::fl
