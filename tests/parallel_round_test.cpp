// ParallelRoundRunner: index-ordered collection, sequential/parallel
// equivalence, workspace-pool leasing, and concurrent comm accounting.

#include "fl/parallel_round.h"

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <thread>
#include <vector>

#include "fl/federation.h"
#include "util/thread_pool.h"

namespace fedclust {
namespace {

fl::ExperimentConfig small_cfg(std::uint64_t seed) {
  fl::ExperimentConfig cfg;
  cfg.data_spec = data::dataset_spec("svhn");
  cfg.data_spec.hw = 8;
  cfg.fed.n_clients = 8;
  cfg.fed.train_per_client = 10;
  cfg.fed.test_per_client = 4;
  cfg.fed.partition = "dirichlet";
  cfg.fed.dirichlet_alpha = 0.3;
  cfg.model.arch = "mlp";
  cfg.model.in_channels = 3;
  cfg.model.image_hw = 8;
  cfg.model.num_classes = 10;
  cfg.local.epochs = 1;
  cfg.local.batch_size = 5;
  cfg.local.lr = 0.05f;
  cfg.rounds = 2;
  cfg.sample_fraction = 0.5;
  cfg.seed = seed;
  return cfg;
}

// Restores the previous global pool size around each test.
class ParallelRoundTest : public ::testing::Test {
 protected:
  void SetUp() override { prev_threads_ = util::global_pool().size() + 1; }
  void TearDown() override { util::reset_global_pool(prev_threads_); }

  std::vector<fl::RoundTrainResult> train_round(fl::Federation& fed,
                                                std::size_t round) {
    fl::ParallelRoundRunner runner(fed);
    const auto sampled = fed.sample_round(round);
    return runner.train_clients(
        sampled, [&](std::size_t, std::size_t c) {
          fl::RoundTrainJob job;
          job.start = &fed.init_params();
          job.opts = fed.cfg().local;
          job.rng = fed.train_rng(c, round);
          job.download_floats = fed.model_size();
          job.upload_floats = fed.model_size();
          return job;
        });
  }

 private:
  std::size_t prev_threads_ = 1;
};

TEST_F(ParallelRoundTest, ResultsComeBackInClientIndexOrder) {
  util::reset_global_pool(4);
  fl::Federation fed(small_cfg(3));
  const auto sampled = fed.sample_round(0);
  const auto results = train_round(fed, 0);
  ASSERT_EQ(results.size(), sampled.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i].client, sampled[i]);
    EXPECT_EQ(results[i].params.size(), fed.model_size());
    EXPECT_DOUBLE_EQ(results[i].weight,
                     static_cast<double>(fed.client(sampled[i])->n_train()));
  }
}

TEST_F(ParallelRoundTest, ParallelTrainingMatchesSequentialBitwise) {
  const auto run_with = [&](std::size_t threads) {
    util::reset_global_pool(threads);
    fl::Federation fed(small_cfg(7));
    return train_round(fed, 1);
  };
  const auto seq = run_with(1);
  const auto par = run_with(4);
  ASSERT_EQ(seq.size(), par.size());
  for (std::size_t i = 0; i < seq.size(); ++i) {
    EXPECT_EQ(seq[i].client, par[i].client);
    EXPECT_EQ(seq[i].loss, par[i].loss);
    ASSERT_EQ(seq[i].params.size(), par[i].params.size());
    for (std::size_t j = 0; j < seq[i].params.size(); ++j) {
      ASSERT_EQ(seq[i].params[j], par[i].params[j])
          << "client " << i << " param " << j;
    }
  }
}

TEST_F(ParallelRoundTest, CommBytesAreExactUnderConcurrency) {
  const auto bytes_with = [&](std::size_t threads) {
    util::reset_global_pool(threads);
    fl::Federation fed(small_cfg(5));
    const auto results = train_round(fed, 0);
    EXPECT_FALSE(results.empty());
    return std::make_pair(fed.comm().bytes_up(), fed.comm().bytes_down());
  };
  EXPECT_EQ(bytes_with(1), bytes_with(4));
}

TEST_F(ParallelRoundTest, ForEachIndexCoversEveryIndexOnce) {
  util::reset_global_pool(4);
  fl::Federation fed(small_cfg(11));
  fl::ParallelRoundRunner runner(fed);
  const std::size_t n = fed.n_clients();
  std::vector<std::atomic<int>> hits(n);
  runner.for_each_index(n, [&](std::size_t i, nn::Model& ws) {
    EXPECT_EQ(ws.flat_params().size(), fed.model_size());
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST_F(ParallelRoundTest, SequentialPathUsesSharedWorkspace) {
  util::reset_global_pool(1);
  fl::Federation fed(small_cfg(13));
  fl::ParallelRoundRunner runner(fed);
  nn::Model* shared = &fed.workspace();
  runner.for_each_index(fed.n_clients(), [&](std::size_t, nn::Model& ws) {
    EXPECT_EQ(&ws, shared);  // FEDCLUST_THREADS=1 takes the seed's path
  });
}

TEST(WorkspacePool, LeasesAreDistinctAndRecycled) {
  fl::Federation fed(small_cfg(17));
  nn::Model* a = fed.acquire_workspace();
  nn::Model* b = fed.acquire_workspace();
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_NE(a, b);
  EXPECT_NE(a, &fed.workspace());
  EXPECT_EQ(a->flat_params().size(), fed.model_size());
  fed.release_workspace(a);
  nn::Model* c = fed.acquire_workspace();
  EXPECT_EQ(c, a);  // free list is reused before new replicas are built
  fed.release_workspace(b);
  fed.release_workspace(c);
}

TEST(CommTracker, ConcurrentIncrementsAreExact) {
  fl::CommTracker comm;
  const std::size_t n_threads = 4, per_thread = 10000;
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < n_threads; ++t) {
    threads.emplace_back([&comm] {
      for (std::size_t i = 0; i < per_thread; ++i) {
        comm.upload_envelope(
            1, fl::wire::encoded_size(fl::wire::CodecId::kRawF32, 1));
        comm.download_envelope(
            2, fl::wire::encoded_size(fl::wire::CodecId::kRawF32, 2));
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(comm.bytes_up(), n_threads * per_thread * sizeof(float));
  EXPECT_EQ(comm.bytes_down(), n_threads * per_thread * 2 * sizeof(float));
}

}  // namespace
}  // namespace fedclust
