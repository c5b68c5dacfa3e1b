// FL framework tests: communication accounting, the simulated client, the
// federation substrate, and the shared aggregation helpers.

#include <gtest/gtest.h>

#include <set>

#include "fl/client.h"
#include "fl/comm.h"
#include "fl/federation.h"
#include "nn/loss.h"

namespace fedclust::fl {
namespace {

// Small, fast experiment shape shared by these tests.
ExperimentConfig tiny_config() {
  ExperimentConfig cfg;
  cfg.data_spec = data::dataset_spec("fmnist");
  cfg.data_spec.hw = 8;
  cfg.fed.n_clients = 10;
  cfg.fed.train_per_client = 16;
  cfg.fed.test_per_client = 8;
  cfg.fed.partition = "skew";
  cfg.fed.skew_fraction = 0.2;
  cfg.model.arch = "mlp";
  cfg.model.in_channels = 1;
  cfg.model.image_hw = 8;
  cfg.model.num_classes = 10;
  cfg.local.epochs = 1;
  cfg.local.batch_size = 8;
  cfg.local.lr = 0.05f;
  cfg.rounds = 3;
  cfg.sample_fraction = 0.3;
  cfg.seed = 7;
  return cfg;
}

// ------------------------------------------------------------------ comm

TEST(Comm, TracksBytesAndMb) {
  CommTracker t;
  t.upload_envelope(100, wire::encoded_size(wire::CodecId::kRawF32, 100));
  t.download_envelope(50, wire::encoded_size(wire::CodecId::kRawF32, 50));
  EXPECT_EQ(t.bytes_up(), 400u);
  EXPECT_EQ(t.bytes_down(), 200u);
  EXPECT_EQ(t.bytes_total(), 600u);
  EXPECT_DOUBLE_EQ(t.total_mb(), 600.0 * 8.0 / 1e6);
  t.reset();
  EXPECT_EQ(t.bytes_total(), 0u);
}

// ---------------------------------------------------------------- client

data::Dataset blob_dataset(std::size_t n, std::uint64_t seed) {
  // 1x4x4 images; class = sign pattern, linearly separable.
  data::Dataset ds(1, 4, 2);
  util::Rng rng(seed);
  for (std::size_t i = 0; i < n; ++i) {
    const std::int64_t y = static_cast<std::int64_t>(i % 2);
    std::vector<float> img(16);
    for (auto& v : img) {
      v = rng.normalf(y == 0 ? 1.0f : -1.0f, 0.3f);
    }
    ds.add(std::move(img), y);
  }
  return ds;
}

TEST(SimClientTest, RejectsEmptyTraining) {
  EXPECT_THROW(SimClient(0, data::Dataset(1, 4, 2), blob_dataset(4, 1)),
               std::invalid_argument);
}

TEST(SimClientTest, LocalSteps) {
  SimClient c(0, blob_dataset(10, 1), blob_dataset(4, 2));
  LocalTrainOptions opts;
  opts.epochs = 3;
  opts.batch_size = 4;
  EXPECT_EQ(c.local_steps(opts), 9u);  // ceil(10/4)=3 batches * 3 epochs
  opts.batch_size = 10;
  EXPECT_EQ(c.local_steps(opts), 3u);
}

TEST(SimClientTest, TrainingReducesLossAndLiftsAccuracy) {
  SimClient c(0, blob_dataset(32, 3), blob_dataset(16, 4));
  nn::Model m = nn::mlp(16, {8}, 2, 5);
  const float loss_before = c.train_loss(m);
  const double acc_before = c.evaluate(m);
  LocalTrainOptions opts;
  opts.epochs = 10;
  opts.batch_size = 8;
  opts.lr = 0.1f;
  opts.momentum = 0.9f;
  c.train(m, opts, util::Rng(1));
  EXPECT_LT(c.train_loss(m), 0.5f * loss_before);
  EXPECT_GT(c.evaluate(m), std::max(acc_before, 0.9));
}

TEST(SimClientTest, TrainIsDeterministicInRng) {
  SimClient c(0, blob_dataset(16, 3), blob_dataset(8, 4));
  LocalTrainOptions opts;
  opts.epochs = 2;
  nn::Model a = nn::mlp(16, {8}, 2, 5);
  nn::Model b = nn::mlp(16, {8}, 2, 5);
  c.train(a, opts, util::Rng(42));
  c.train(b, opts, util::Rng(42));
  EXPECT_EQ(a.flat_params(), b.flat_params());
}

TEST(SimClientTest, ProxReferenceKeepsModelCloser) {
  SimClient c(0, blob_dataset(32, 3), blob_dataset(8, 4));
  LocalTrainOptions opts;
  opts.epochs = 5;
  opts.lr = 0.1f;
  opts.prox_mu = 1.0f;

  nn::Model free_model = nn::mlp(16, {8}, 2, 5);
  const std::vector<float> start = free_model.flat_params();
  c.train(free_model, opts, util::Rng(1));  // no prox ref passed: plain SGD
  nn::Model prox_model = nn::mlp(16, {8}, 2, 5);
  c.train(prox_model, opts, util::Rng(1), &start);

  const auto dist = [&start](const nn::Model& m) {
    double s = 0.0;
    const auto w = m.flat_params();
    for (std::size_t i = 0; i < w.size(); ++i) {
      s += (w[i] - start[i]) * (w[i] - start[i]);
    }
    return s;
  };
  EXPECT_LT(dist(prox_model), dist(free_model));
}

// ------------------------------------------------------ weighted average

TEST(WeightedAverage, Basic) {
  const std::vector<float> a = {0.0f, 2.0f};
  const std::vector<float> b = {4.0f, 6.0f};
  const auto avg = weighted_average({{&a, 1.0}, {&b, 3.0}});
  EXPECT_FLOAT_EQ(avg[0], 3.0f);
  EXPECT_FLOAT_EQ(avg[1], 5.0f);
}

TEST(WeightedAverage, SingleEntryIsIdentity) {
  const std::vector<float> a = {1.5f, -2.0f};
  EXPECT_EQ(weighted_average({{&a, 7.0}}), a);
}

TEST(WeightedAverage, Validation) {
  const std::vector<float> a = {1.0f};
  const std::vector<float> b = {1.0f, 2.0f};
  EXPECT_THROW(weighted_average({}), std::invalid_argument);
  EXPECT_THROW(weighted_average({{&a, 1.0}, {&b, 1.0}}),
               std::invalid_argument);
  EXPECT_THROW(weighted_average({{&a, -1.0}}), std::invalid_argument);
  EXPECT_THROW(weighted_average({{&a, 0.0}}), std::invalid_argument);
}

// ------------------------------------------------------------ federation

TEST(FederationTest, BuildsClientsFromConfig) {
  Federation fed(tiny_config());
  EXPECT_EQ(fed.n_clients(), 10u);
  EXPECT_EQ(fed.client(3)->id(), 3u);
  EXPECT_EQ(fed.client(3)->n_train(), 16u);
  EXPECT_GT(fed.model_size(), 0u);
  EXPECT_EQ(fed.init_params().size(), fed.model_size());
}

TEST(FederationTest, SamplingIsDeterministicAndSized) {
  Federation fed(tiny_config());
  const auto s1 = fed.sample_round(5);
  const auto s2 = fed.sample_round(5);
  EXPECT_EQ(s1, s2);
  EXPECT_EQ(s1.size(), 3u);  // 30% of 10
  const std::set<std::size_t> uniq(s1.begin(), s1.end());
  EXPECT_EQ(uniq.size(), s1.size());
  EXPECT_NE(fed.sample_round(6), s1);  // overwhelmingly likely
}

TEST(FederationTest, SampleAtLeastOne) {
  ExperimentConfig cfg = tiny_config();
  cfg.sample_fraction = 0.001;
  Federation fed(cfg);
  EXPECT_EQ(fed.sample_round(0).size(), 1u);
}

TEST(FederationTest, InitParamsSharedAcrossConstructions) {
  const ExperimentConfig cfg = tiny_config();
  Federation a(cfg);
  Federation b(cfg);
  EXPECT_EQ(a.init_params(), b.init_params());
}

TEST(FederationTest, MakeModelSaltsDiffer) {
  Federation fed(tiny_config());
  EXPECT_NE(fed.make_model(1).flat_params(), fed.make_model(2).flat_params());
  EXPECT_EQ(fed.make_model(1).flat_params(), fed.make_model(1).flat_params());
}

TEST(FederationTest, AverageLocalAccuracyBounds) {
  Federation fed(tiny_config());
  const std::vector<float> params = fed.init_params();
  const double acc = fed.average_local_accuracy(
      [&params](std::size_t) -> const std::vector<float>& { return params; });
  EXPECT_GE(acc, 0.0);
  EXPECT_LE(acc, 1.0);
}

TEST(FederationTest, AccuracyDistributionMatchesMean) {
  Federation fed(tiny_config());
  const std::vector<float> params = fed.init_params();
  const auto get = [&params](std::size_t) -> const std::vector<float>& {
    return params;
  };
  const auto dist = fed.local_accuracy_distribution(get);
  ASSERT_EQ(dist.size(), fed.n_clients());
  double sum = 0.0;
  for (const double a : dist) {
    EXPECT_GE(a, 0.0);
    EXPECT_LE(a, 1.0);
    sum += a;
  }
  EXPECT_NEAR(sum / static_cast<double>(dist.size()),
              fed.average_local_accuracy(get), 1e-12);
}

TEST(FederationTest, TrainRngStreamsDiffer) {
  Federation fed(tiny_config());
  EXPECT_NE(fed.train_rng(1, 2).next_u64(), fed.train_rng(2, 1).next_u64());
  EXPECT_EQ(fed.train_rng(1, 2).next_u64(), fed.train_rng(1, 2).next_u64());
}

}  // namespace
}  // namespace fedclust::fl
