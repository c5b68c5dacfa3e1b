#include <gtest/gtest.h>

#include <cmath>

#include "clustering/distance.h"
#include "clustering/hierarchical.h"
#include "clustering/metrics.h"
#include "util/rng.h"

namespace fedclust::clustering {
namespace {

using tensor::Tensor;

// --------------------------------------------------------------- distance

TEST(Distance, L2Matrix) {
  const std::vector<std::vector<float>> v = {{0, 0}, {3, 4}, {0, 1}};
  const Tensor d = l2_distance_matrix(v);
  EXPECT_FLOAT_EQ(d.at({0, 1}), 5.0f);
  EXPECT_FLOAT_EQ(d.at({1, 0}), 5.0f);
  EXPECT_FLOAT_EQ(d.at({0, 2}), 1.0f);
  EXPECT_FLOAT_EQ(d.at({0, 0}), 0.0f);
  validate_distance_matrix(d);
}

TEST(Distance, CosineMatrix) {
  const std::vector<std::vector<float>> v = {{1, 0}, {0, 1}, {2, 0}};
  const Tensor d = cosine_distance_matrix(v);
  EXPECT_NEAR(d.at({0, 1}), 1.0f, 1e-6);
  EXPECT_NEAR(d.at({0, 2}), 0.0f, 1e-6);
}

TEST(Distance, ValidationCatchesBadMatrices) {
  Tensor asym({2, 2}, {0, 1, 2, 0});
  EXPECT_THROW(validate_distance_matrix(asym), std::invalid_argument);
  Tensor diag({2, 2}, {1, 0, 0, 0});
  EXPECT_THROW(validate_distance_matrix(diag), std::invalid_argument);
  Tensor neg({2, 2}, {0, -1, -1, 0});
  EXPECT_THROW(validate_distance_matrix(neg), std::invalid_argument);
  EXPECT_THROW(validate_distance_matrix(Tensor({2, 3})),
               std::invalid_argument);
}

// ---------------------------------------------------------------- linkage

TEST(Linkage, FromString) {
  EXPECT_EQ(linkage_from_string("single"), Linkage::kSingle);
  EXPECT_EQ(linkage_from_string("ward"), Linkage::kWard);
  EXPECT_THROW(linkage_from_string("centroid"), std::invalid_argument);
}

// ----------------------------------------------------------- hierarchical

// Four 1-D points in two obvious pairs: {0, 0.1} and {10, 10.1}.
Tensor two_pair_matrix() {
  const std::vector<std::vector<float>> v = {{0.0f}, {0.1f}, {10.0f},
                                             {10.1f}};
  return l2_distance_matrix(v);
}

TEST(Hierarchical, MergeOrderOnTwoPairs) {
  const Dendrogram d = agglomerative(two_pair_matrix(), Linkage::kAverage);
  EXPECT_EQ(d.n_leaves, 4u);
  ASSERT_EQ(d.merges.size(), 3u);
  // The two cheap merges come first, the expensive bridge last.
  EXPECT_NEAR(d.merges[0].distance, 0.1f, 1e-5);
  EXPECT_NEAR(d.merges[1].distance, 0.1f, 1e-5);
  EXPECT_GT(d.merges[2].distance, 5.0f);
}

TEST(Hierarchical, ThresholdCutSeparatesPairs) {
  const Dendrogram d = agglomerative(two_pair_matrix(), Linkage::kAverage);
  const auto labels = cut_by_threshold(d, 1.0f);
  EXPECT_EQ(num_clusters(labels), 2u);
  EXPECT_EQ(labels[0], labels[1]);
  EXPECT_EQ(labels[2], labels[3]);
  EXPECT_NE(labels[0], labels[2]);
}

TEST(Hierarchical, ThresholdExtremes) {
  const Dendrogram d = agglomerative(two_pair_matrix(), Linkage::kAverage);
  // λ below every merge distance: all singletons (pure personalization).
  EXPECT_EQ(num_clusters(cut_by_threshold(d, 0.01f)), 4u);
  // λ above every merge distance: one cluster (pure globalization).
  EXPECT_EQ(num_clusters(cut_by_threshold(d, 100.0f)), 1u);
}

TEST(Hierarchical, CutToK) {
  const Dendrogram d = agglomerative(two_pair_matrix(), Linkage::kAverage);
  EXPECT_EQ(num_clusters(cut_to_k(d, 1)), 1u);
  EXPECT_EQ(num_clusters(cut_to_k(d, 2)), 2u);
  EXPECT_EQ(num_clusters(cut_to_k(d, 3)), 3u);
  EXPECT_EQ(num_clusters(cut_to_k(d, 4)), 4u);
  EXPECT_EQ(num_clusters(cut_to_k(d, 99)), 4u);  // clamped
  const auto two = cut_to_k(d, 2);
  EXPECT_EQ(two[0], two[1]);
  EXPECT_NE(two[0], two[2]);
}

TEST(Hierarchical, TrivialInputs) {
  const Dendrogram d0 = agglomerative(Tensor({0, 0}));
  EXPECT_TRUE(d0.merges.empty());
  const Dendrogram d1 = agglomerative(Tensor({1, 1}));
  EXPECT_TRUE(d1.merges.empty());
  EXPECT_EQ(cut_by_threshold(d1, 1.0f), (std::vector<std::size_t>{0}));
}

TEST(Hierarchical, SingleVsCompleteOnChain) {
  // A chain 0-1-2-3 with unit gaps: single linkage chains everything at
  // distance 1, complete linkage does not.
  const std::vector<std::vector<float>> v = {{0.0f}, {1.0f}, {2.0f}, {3.0f}};
  const Tensor d = l2_distance_matrix(v);
  const auto single =
      cut_by_threshold(agglomerative(d, Linkage::kSingle), 1.0f);
  EXPECT_EQ(num_clusters(single), 1u);
  const auto complete =
      cut_by_threshold(agglomerative(d, Linkage::kComplete), 1.0f);
  EXPECT_GT(num_clusters(complete), 1u);
}

class LinkageSweep : public ::testing::TestWithParam<Linkage> {};

// Property: whatever the linkage, well-separated Gaussian blobs must be
// recovered exactly at a threshold between blob diameter and separation.
TEST_P(LinkageSweep, RecoversSeparatedBlobs) {
  util::Rng rng(17);
  const std::size_t per_blob = 12;
  std::vector<std::vector<float>> points;
  std::vector<std::size_t> truth;
  const float centers[3][2] = {{0, 0}, {30, 0}, {0, 30}};
  for (std::size_t b = 0; b < 3; ++b) {
    for (std::size_t i = 0; i < per_blob; ++i) {
      points.push_back({centers[b][0] + rng.normalf(0, 0.5f),
                        centers[b][1] + rng.normalf(0, 0.5f)});
      truth.push_back(b);
    }
  }
  const Tensor d = l2_distance_matrix(points);
  const auto labels = cut_by_threshold(agglomerative(d, GetParam()), 10.0f);
  EXPECT_EQ(num_clusters(labels), 3u);
  EXPECT_DOUBLE_EQ(adjusted_rand_index(labels, truth), 1.0);
  // cut_to_k(3) must find the same partition.
  const auto by_k = cut_to_k(agglomerative(d, GetParam()), 3);
  EXPECT_DOUBLE_EQ(adjusted_rand_index(by_k, truth), 1.0);
}

INSTANTIATE_TEST_SUITE_P(AllLinkages, LinkageSweep,
                         ::testing::Values(Linkage::kSingle,
                                           Linkage::kComplete,
                                           Linkage::kAverage,
                                           Linkage::kWard));

// Monotonicity of merge distances for the reducible linkages.
class MonotoneSweep : public ::testing::TestWithParam<Linkage> {};

TEST_P(MonotoneSweep, MergeDistancesNondecreasing) {
  util::Rng rng(23);
  std::vector<std::vector<float>> points;
  for (int i = 0; i < 25; ++i) {
    points.push_back({rng.normalf(0, 5), rng.normalf(0, 5)});
  }
  const Dendrogram d =
      agglomerative(l2_distance_matrix(points), GetParam());
  for (std::size_t i = 1; i < d.merges.size(); ++i) {
    EXPECT_GE(d.merges[i].distance, d.merges[i - 1].distance - 1e-5f);
  }
}

INSTANTIATE_TEST_SUITE_P(ReducibleLinkages, MonotoneSweep,
                         ::testing::Values(Linkage::kSingle,
                                           Linkage::kComplete,
                                           Linkage::kAverage));

// ----------------------------------------------------------- gap threshold

TEST(GapThreshold, FindsTheNaturalCut) {
  // Two tight pairs far apart: merges at ~0.1, ~0.1, ~10 -> the widest gap
  // is between 0.1 and 10, so the threshold lands in (0.1, 10) and cuts the
  // data into the 2 natural clusters.
  const Dendrogram d = agglomerative(two_pair_matrix(), Linkage::kAverage);
  const float lambda = gap_threshold(d);
  EXPECT_GT(lambda, 0.2f);
  EXPECT_LT(lambda, 10.0f);
  EXPECT_EQ(num_clusters(cut_by_threshold(d, lambda)), 2u);
}

TEST(GapThreshold, RespectsClusterBounds) {
  const Dendrogram d = agglomerative(two_pair_matrix(), Linkage::kAverage);
  // Forcing at least 3 clusters must cut below the second cheap merge.
  const float lambda = gap_threshold(d, 3, 4);
  const auto k = num_clusters(cut_by_threshold(d, lambda));
  EXPECT_GE(k, 3u);
  EXPECT_LE(k, 4u);
}

TEST(GapThreshold, TrivialDendrograms) {
  EXPECT_EQ(gap_threshold(agglomerative(Tensor({1, 1}))), 0.0f);
  // Two points: a single merge, no gap to exploit -> threshold above it
  // (one cluster).
  const std::vector<std::vector<float>> v = {{0.0f}, {1.0f}};
  const Dendrogram d = agglomerative(l2_distance_matrix(v));
  const float lambda = gap_threshold(d);
  EXPECT_EQ(num_clusters(cut_by_threshold(d, lambda)), 1u);
}

TEST(GapThreshold, ThreeBlobsAutoRecovered) {
  util::Rng rng(31);
  std::vector<std::vector<float>> points;
  std::vector<std::size_t> truth;
  const float centers[3][2] = {{0, 0}, {50, 0}, {0, 50}};
  for (std::size_t b = 0; b < 3; ++b) {
    for (int i = 0; i < 10; ++i) {
      points.push_back({centers[b][0] + rng.normalf(0, 1.0f),
                        centers[b][1] + rng.normalf(0, 1.0f)});
      truth.push_back(b);
    }
  }
  const Dendrogram d =
      agglomerative(l2_distance_matrix(points), Linkage::kAverage);
  const auto labels = cut_by_threshold(d, gap_threshold(d));
  EXPECT_EQ(num_clusters(labels), 3u);
  EXPECT_DOUBLE_EQ(adjusted_rand_index(labels, truth), 1.0);
}

// ---------------------------------------------------------------- metrics

TEST(Metrics, AriPerfectAndLabelInvariant) {
  const std::vector<std::size_t> a = {0, 0, 1, 1, 2, 2};
  const std::vector<std::size_t> b = {5, 5, 9, 9, 7, 7};  // relabeled
  EXPECT_DOUBLE_EQ(adjusted_rand_index(a, b), 1.0);
}

TEST(Metrics, AriDisagreementIsLow) {
  const std::vector<std::size_t> a = {0, 0, 0, 1, 1, 1};
  const std::vector<std::size_t> b = {0, 1, 0, 1, 0, 1};
  EXPECT_LT(adjusted_rand_index(a, b), 0.2);
}

TEST(Metrics, AriHandlesTrivialPartitions) {
  const std::vector<std::size_t> all_same = {0, 0, 0};
  EXPECT_DOUBLE_EQ(adjusted_rand_index(all_same, all_same), 1.0);
  EXPECT_THROW(adjusted_rand_index({}, {}), std::invalid_argument);
  EXPECT_THROW(adjusted_rand_index({0}, {0, 1}), std::invalid_argument);
}

TEST(Metrics, Purity) {
  const std::vector<std::size_t> pred = {0, 0, 0, 1, 1};
  const std::vector<std::size_t> truth = {0, 0, 1, 1, 1};
  // Cluster 0 majority=0 (2/3 right), cluster 1 majority=1 (2/2 right).
  EXPECT_DOUBLE_EQ(purity(pred, truth), 4.0 / 5.0);
  EXPECT_DOUBLE_EQ(purity(truth, truth), 1.0);
  EXPECT_THROW(purity({}, {}), std::invalid_argument);
}

}  // namespace
}  // namespace fedclust::clustering
