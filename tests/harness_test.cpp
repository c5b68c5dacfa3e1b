// Tests for the bench harness: scale/env handling, config synthesis,
// deterministic campaign runs, and the embedded paper reference tables.

#include <gtest/gtest.h>

#include <cstdlib>

#include "harness.h"
#include "table_common.h"

namespace fedclust::bench {
namespace {

struct EnvGuard {
  explicit EnvGuard(std::vector<const char*> names)
      : names_(std::move(names)) {
    for (const char* n : names_) ::unsetenv(n);
  }
  ~EnvGuard() {
    for (const char* n : names_) ::unsetenv(n);
  }
  std::vector<const char*> names_;
};

TEST(Harness, ScaleDefaultsAndOverrides) {
  EnvGuard guard({"FEDCLUST_BENCH_SCALE", "FEDCLUST_BENCH_ROUNDS",
                  "FEDCLUST_BENCH_SEEDS", "FEDCLUST_BENCH_CLIENTS",
                  "FEDCLUST_BENCH_TRAIN"});
  Scale q = get_scale();
  EXPECT_EQ(q.name, "quick");
  EXPECT_EQ(q.n_clients, 40u);

  ::setenv("FEDCLUST_BENCH_SCALE", "full", 1);
  Scale f = get_scale();
  EXPECT_EQ(f.n_clients, 100u);
  EXPECT_GT(f.rounds, q.rounds);

  ::setenv("FEDCLUST_BENCH_ROUNDS", "7", 1);
  ::setenv("FEDCLUST_BENCH_CLIENTS", "12", 1);
  Scale o = get_scale();
  EXPECT_EQ(o.rounds, 7u);
  EXPECT_EQ(o.n_clients, 12u);

  ::setenv("FEDCLUST_BENCH_SCALE", "huge", 1);
  EXPECT_THROW(get_scale(), std::runtime_error);
}

TEST(Harness, MakeConfigSettings) {
  EnvGuard guard({"FEDCLUST_BENCH_SCALE"});
  const Scale scale = get_scale();
  const auto skew20 = make_config("cifar10", "skew20", scale, 1);
  EXPECT_EQ(skew20.fed.partition, "skew");
  EXPECT_DOUBLE_EQ(skew20.fed.skew_fraction, 0.2);
  EXPECT_EQ(skew20.model.arch, "lenet5");

  const auto skew30 = make_config("svhn", "skew30", scale, 1);
  EXPECT_DOUBLE_EQ(skew30.fed.skew_fraction, 0.3);

  const auto dir = make_config("cifar100", "dir01", scale, 1);
  EXPECT_EQ(dir.fed.partition, "dirichlet");
  EXPECT_DOUBLE_EQ(dir.fed.dirichlet_alpha, 0.1);
  EXPECT_EQ(dir.model.arch, "resnet9");  // paper: ResNet-9 for CIFAR-100

  EXPECT_THROW(make_config("cifar10", "skew99", scale, 1),
               std::invalid_argument);
  // Clustered baselines all get a tuned cluster count.
  EXPECT_GT(skew20.algo.fedclust_k, 1u);
  EXPECT_GT(skew20.algo.pacfl_k, 1u);
}

TEST(Harness, PaperTablesMatchSpotChecks) {
  // Values transcribed from the paper; spot-check each table.
  EXPECT_DOUBLE_EQ(paper_accuracy("skew20", "FedClust", "cifar10"), 95.82);
  EXPECT_DOUBLE_EQ(paper_accuracy("skew20", "Local", "fmnist"), 95.68);
  EXPECT_DOUBLE_EQ(paper_accuracy("skew30", "IFCA", "cifar100"), 66.21);
  EXPECT_DOUBLE_EQ(paper_accuracy("dir01", "FedClust", "fmnist"), 95.51);
  EXPECT_THROW(paper_accuracy("skew99", "FedAvg", "cifar10"),
               std::invalid_argument);
  EXPECT_LT(paper_accuracy("skew20", "SCAFFOLD", "cifar10"), 0.0);

  EXPECT_DOUBLE_EQ(paper_rounds_to_target("FedClust", "cifar10"), 13.0);
  EXPECT_LT(paper_rounds_to_target("FedAvg", "cifar10"), 0.0);  // "--"
  EXPECT_DOUBLE_EQ(paper_mb_to_target("FedClust", "cifar100"), 1889.17);
  EXPECT_LT(paper_mb_to_target("CFL", "svhn"), 0.0);
  EXPECT_DOUBLE_EQ(paper_newcomer_accuracy("FedClust", "svhn"), 95.19);
  EXPECT_LT(paper_newcomer_accuracy("CFL", "svhn"), 0.0);  // no CFL row

  EXPECT_DOUBLE_EQ(paper_target_table4("cifar10"), 80.0);
  EXPECT_DOUBLE_EQ(paper_target_table5("fmnist"), 80.0);
  EXPECT_THROW(paper_target_table4("mnist"), std::invalid_argument);
}

TEST(Harness, SplitCsvList) {
  EXPECT_EQ(split_csv_list("a,b,c"),
            (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(split_csv_list("single"), (std::vector<std::string>{"single"}));
  EXPECT_TRUE(split_csv_list("").empty());
  EXPECT_EQ(split_csv_list("a,,b"), (std::vector<std::string>{"a", "b"}));
}

TEST(Harness, RunMethodIsDeterministic) {
  EnvGuard guard({"FEDCLUST_BENCH_SCALE"});
  Scale tiny = get_scale();
  tiny.n_clients = 6;
  tiny.train_per_client = 8;
  tiny.test_per_client = 4;
  tiny.rounds = 2;
  tiny.seeds = 1;
  const auto t1 = run_method("FedAvg", "skew20", "fmnist", tiny, 1);
  const auto t2 = run_method("FedAvg", "skew20", "fmnist", tiny, 1);
  ASSERT_EQ(t1.records.size(), tiny.rounds);
  ASSERT_EQ(t2.records.size(), t1.records.size());
  for (std::size_t i = 0; i < t1.records.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(t2.records[i].round, t1.records[i].round);
    EXPECT_EQ(t2.records[i].avg_local_test_acc,
              t1.records[i].avg_local_test_acc);
    EXPECT_EQ(t2.records[i].bytes_up, t1.records[i].bytes_up);
    EXPECT_EQ(t2.records[i].bytes_down, t1.records[i].bytes_down);
    EXPECT_EQ(t2.records[i].n_clusters, t1.records[i].n_clusters);
  }
}

}  // namespace
}  // namespace fedclust::bench
