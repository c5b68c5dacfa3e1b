// ParallelRoundRunner: index-ordered collection, sequential/parallel
// equivalence, one replica per chunk, and concurrent comm accounting.

#include "fl/parallel_round.h"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <set>
#include <string_view>
#include <thread>
#include <vector>

#include "fl/federation.h"
#include "fl/wire.h"
#include "obs/trace.h"
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

// Within one call each distinct start model goes through the codec once,
// however many clients train from it, and every client's download is
// still billed as a pull_model per client bills it.
TEST_F(ParallelRoundTest, EachStartModelRoundTripsOncePerCall) {
  for (const std::size_t threads : {1, 4}) {
    SCOPED_TRACE(threads);
    util::reset_global_pool(threads);
    fl::ExperimentConfig cfg = small_cfg(9);
    cfg.codec = fl::wire::CodecId::kQInt8;
    fl::Federation fed(cfg);
    const std::vector<float> a = fed.init_params();
    std::vector<float> b = a;
    for (float& x : b) x *= 0.5f;
    std::vector<std::size_t> clients(fed.n_clients());
    std::iota(clients.begin(), clients.end(), 0);
    const auto start_of = [&](std::size_t idx) {
      return idx % 3 == 0 ? &b : &a;
    };

    obs::SpanTracer& tracer = obs::SpanTracer::instance();
    tracer.clear();
    tracer.set_enabled(true);
    fl::ParallelRoundRunner runner(fed);
    const auto results = runner.train_clients(
        clients, [&](std::size_t idx, std::size_t c) {
          fl::RoundTrainJob job;
          job.start = start_of(idx);
          job.opts = fed.cfg().local;
          job.rng = fed.train_rng(c, 0);
          job.download_floats = fed.model_size();
          job.upload_floats = fed.model_size();
          return job;
        });
    tracer.set_enabled(false);
    std::size_t pulls = 0;
    for (const auto& thread : tracer.collect()) {
      for (const obs::SpanEvent& e : thread.events) {
        if (std::string_view(e.name).starts_with("wire.encode/") &&
            e.arg2 == fl::wire::kServerSender) {
          ++pulls;
        }
      }
    }
    tracer.clear();
    EXPECT_EQ(pulls, 2u);
    EXPECT_EQ(results.size(), clients.size());

    fl::Federation ref(cfg);
    for (std::size_t idx = 0; idx < clients.size(); ++idx) {
      (void)ref.pull_model(*start_of(idx), 0, ref.model_size());
    }
    EXPECT_EQ(fed.comm().bytes_down(), ref.comm().bytes_down());
    // Plus one fault-free upload per client.
    EXPECT_EQ(fed.comm().messages(), ref.comm().messages() + clients.size());
  }
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

// Chunk c of a fan-out runs on replica c, replica 0 being the workspace,
// and every later fan-out reuses the same replicas.
TEST_F(ParallelRoundTest, ChunksKeepTheirReplicas) {
  util::reset_global_pool(4);
  fl::Federation fed(small_cfg(17));
  fl::ParallelRoundRunner runner(fed);
  const std::size_t n = fed.n_clients();
  ASSERT_GE(n, 4u);
  const auto models_of_one_call = [&] {
    std::vector<nn::Model*> used(n, nullptr);
    runner.for_each_index(n, [&](std::size_t i, nn::Model& ws) {
      EXPECT_EQ(ws.flat_params().size(), fed.model_size());
      used[i] = &ws;
    });
    return std::set<nn::Model*>(used.begin(), used.end());
  };
  const std::set<nn::Model*> first = models_of_one_call();
  EXPECT_EQ(first.size(), 4u);
  EXPECT_EQ(first.count(&fed.workspace()), 1u);
  EXPECT_EQ(models_of_one_call(), first);
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
