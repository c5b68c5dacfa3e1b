// End-to-end determinism: the simulator's contract is that a (config, seed)
// pair fully determines every trace, model, clustering, and byte count —
// run-to-run, and regardless of evaluation order.

#include <gtest/gtest.h>

#include "core/fedclust.h"
#include "core/registry.h"
#include "fl/fedavg.h"
#include "fl/federation.h"
#include "util/thread_pool.h"

namespace fedclust {
namespace {

fl::ExperimentConfig cfg_for(std::uint64_t seed) {
  fl::ExperimentConfig cfg;
  cfg.data_spec = data::dataset_spec("svhn");
  cfg.data_spec.hw = 8;
  cfg.fed.n_clients = 10;
  cfg.fed.train_per_client = 12;
  cfg.fed.test_per_client = 6;
  cfg.fed.partition = "dirichlet";
  cfg.fed.dirichlet_alpha = 0.3;
  cfg.model.arch = "mlp";
  cfg.model.in_channels = 3;
  cfg.model.image_hw = 8;
  cfg.model.num_classes = 10;
  cfg.local.epochs = 1;
  cfg.local.batch_size = 6;
  cfg.local.lr = 0.05f;
  cfg.rounds = 3;
  cfg.sample_fraction = 0.4;
  cfg.seed = seed;
  return cfg;
}

void expect_identical(const fl::Trace& a, const fl::Trace& b) {
  ASSERT_EQ(a.records.size(), b.records.size());
  for (std::size_t i = 0; i < a.records.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.records[i].avg_local_test_acc,
                     b.records[i].avg_local_test_acc);
    EXPECT_EQ(a.records[i].bytes_up, b.records[i].bytes_up);
    EXPECT_EQ(a.records[i].bytes_down, b.records[i].bytes_down);
    EXPECT_EQ(a.records[i].n_clusters, b.records[i].n_clusters);
  }
}

class DeterminismSweep : public ::testing::TestWithParam<std::string> {};

TEST_P(DeterminismSweep, IdenticalTracesAcrossRuns) {
  const auto run_once = [&] {
    fl::Federation fed(cfg_for(99));
    return core::make_algorithm(GetParam(), fed)->run();
  };
  expect_identical(run_once(), run_once());
}

INSTANTIATE_TEST_SUITE_P(Methods, DeterminismSweep,
                         ::testing::Values("Local", "FedAvg", "LG",
                                           "PerFedAvg", "IFCA", "PACFL",
                                           "FedClust", "SCAFFOLD", "Ditto"));

TEST(Determinism, DifferentSeedsDiverge) {
  fl::Federation f1(cfg_for(1));
  fl::Federation f2(cfg_for(2));
  const auto t1 = core::make_algorithm("FedAvg", f1)->run();
  const auto t2 = core::make_algorithm("FedAvg", f2)->run();
  EXPECT_NE(t1.final_accuracy(), t2.final_accuracy());
}

TEST(Determinism, FedClustClusteringIsStable) {
  const auto run_once = [&] {
    fl::Federation fed(cfg_for(7));
    core::FedClust algo(fed);
    algo.run();
    return algo.assignment();
  };
  EXPECT_EQ(run_once(), run_once());
}

// sample_round edge cases: full participation, heavy dropout, and
// determinism of the cohort itself.
TEST(SampleRound, FullFractionSamplesEveryClientSorted) {
  auto cfg = cfg_for(11);
  cfg.sample_fraction = 1.0;
  fl::Federation fed(cfg);
  for (std::size_t r = 0; r < 5; ++r) {
    const auto ids = fed.sample_round(r);
    ASSERT_EQ(ids.size(), fed.n_clients());
    for (std::size_t i = 0; i < ids.size(); ++i) EXPECT_EQ(ids[i], i);
  }
}

TEST(SampleRound, NearCertainDropoutNeverYieldsAnEmptyRound) {
  auto cfg = cfg_for(12);
  cfg.fault.pre_round_dropout = 0.999;
  fl::Federation fed(cfg);
  for (std::size_t r = 0; r < 50; ++r) {
    EXPECT_FALSE(fed.sample_round(r).empty()) << "round " << r;
  }
}

TEST(SampleRound, CohortIsDeterministicPerRound) {
  auto cfg = cfg_for(13);
  cfg.fault.pre_round_dropout = 0.4;
  fl::Federation a(cfg);
  fl::Federation b(cfg);
  for (std::size_t r = 0; r < 10; ++r) {
    EXPECT_EQ(a.sample_round(r), b.sample_round(r));
  }
}

// Interleaving another federation's work must not perturb a run (no hidden
// global state): run A, then run B, then run A again.
TEST(Determinism, NoCrossFederationLeakage) {
  const auto run_a = [&] {
    fl::Federation fed(cfg_for(5));
    return core::make_algorithm("FedClust", fed)->run();
  };
  const fl::Trace first = run_a();
  {
    fl::Federation other(cfg_for(123));
    core::make_algorithm("IFCA", other)->run();
  }
  expect_identical(first, run_a());
}

// Thread-count invariance: the parallel round executor must yield
// bit-identical results at any worker count, because RNG streams are split
// ahead of fan-out and all floating-point reductions fold through a fixed
// reduction tree whose shape depends only on the cohort size, never on
// delivery order (src/fl/stream_agg.h). Worker counts are swept in-process
// via reset_global_pool; the fixture restores the previous pool afterwards.
class ThreadCountInvariance : public ::testing::Test {
 protected:
  void SetUp() override { prev_threads_ = util::global_pool().size() + 1; }
  void TearDown() override { util::reset_global_pool(prev_threads_); }

 private:
  std::size_t prev_threads_ = 1;
};

void expect_bit_identical(const std::vector<float>& a,
                          const std::vector<float>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i], b[i]) << "params differ at " << i;
  }
}

TEST_F(ThreadCountInvariance, FedAvgMatchesSequentialAtFourThreads) {
  const auto run_with = [&](std::size_t threads) {
    util::reset_global_pool(threads);
    fl::Federation fed(cfg_for(42));
    fl::FedAvg algo(fed);
    fl::Trace trace = algo.run();
    return std::make_pair(std::move(trace), algo.global_params());
  };
  const auto [trace1, params1] = run_with(1);  // exact sequential path
  const auto [trace4, params4] = run_with(4);
  expect_identical(trace1, trace4);  // accuracy + byte counts + clusters
  expect_bit_identical(params1, params4);
}

TEST_F(ThreadCountInvariance, FedClustMatchesSequentialAtFourThreads) {
  struct Result {
    fl::Trace trace;
    std::vector<std::size_t> assignment;
    std::vector<std::vector<float>> models;
  };
  const auto run_with = [&](std::size_t threads) {
    util::reset_global_pool(threads);
    fl::Federation fed(cfg_for(42));
    core::FedClust algo(fed);
    Result res;
    res.trace = algo.run();
    res.assignment = algo.assignment();
    for (std::size_t k = 0; k < algo.report().n_clusters; ++k) {
      res.models.push_back(algo.cluster_model(k));
    }
    return res;
  };
  const Result r1 = run_with(1);
  const Result r4 = run_with(4);
  expect_identical(r1.trace, r4.trace);
  EXPECT_EQ(r1.assignment, r4.assignment);
  ASSERT_EQ(r1.models.size(), r4.models.size());
  for (std::size_t k = 0; k < r1.models.size(); ++k) {
    expect_bit_identical(r1.models[k], r4.models[k]);
  }
}

// Virtual client store equivalence (docs/INVARIANTS.md §Scale): clients
// regenerated on demand behind a small LRU cache — small enough that
// eviction churns constantly — must reproduce the never-evicting store
// exactly: traces, comm byte counts, and the CRC of the algorithm's full
// serialized state (every model parameter), at any thread count.
TEST_F(ThreadCountInvariance, VirtualStoreMatchesMaterialized) {
  struct Result {
    fl::Trace trace;
    std::uint64_t wire_bytes = 0;
    std::uint32_t state_crc = 0;
  };
  const auto run_with = [&](const std::string& method, bool virtual_clients,
                            std::size_t threads) {
    util::reset_global_pool(threads);
    auto cfg = cfg_for(42);
    cfg.virtual_clients = virtual_clients;
    cfg.client_cache = 3;  // far below n_clients=10: eviction is active
    fl::Federation fed(cfg);
    const auto algo = core::make_algorithm(method, fed);
    Result res;
    res.trace = algo->run();
    res.wire_bytes = fed.comm().wire_bytes();
    res.state_crc = algo->state_crc32c();
    return res;
  };
  for (const std::string method : {"FedAvg", "FedClust"}) {
    SCOPED_TRACE(method);
    const Result materialized = run_with(method, false, 1);
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      SCOPED_TRACE(threads);
      const Result virt = run_with(method, true, threads);
      expect_identical(materialized.trace, virt.trace);
      EXPECT_EQ(materialized.wire_bytes, virt.wire_bytes);
      EXPECT_EQ(materialized.state_crc, virt.state_crc);
    }
  }
}

}  // namespace
}  // namespace fedclust
