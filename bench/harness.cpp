#include "harness.h"

#include <map>
#include <stdexcept>

#include "core/registry.h"
#include "obs/metrics.h"
#include "util/config.h"
#include "util/logging.h"
#include "util/stats.h"
#include "util/table.h"
#include "util/timer.h"

namespace fedclust::bench {

namespace {

// Seconds spent in one fl.*_seconds phase between two registry snapshots
// (histograms are cumulative across the runs sharing this process).
double phase_seconds(const obs::MetricsRegistry::Snapshot& before,
                     const obs::MetricsRegistry::Snapshot& after,
                     const std::string& name) {
  return after.histogram_snapshot(name).sum -
         before.histogram_snapshot(name).sum;
}

}  // namespace

Scale get_scale() {
  Scale s;
  s.name = util::env_string("FEDCLUST_BENCH_SCALE", "quick");
  if (s.name == "full") {
    s.n_clients = 100;
    s.train_per_client = 15;
    s.test_per_client = 20;
    s.rounds = 80;
    s.seeds = 3;
  } else if (s.name != "quick") {
    throw std::runtime_error("FEDCLUST_BENCH_SCALE must be quick or full");
  }
  s.rounds = static_cast<std::size_t>(
      util::env_int("FEDCLUST_BENCH_ROUNDS",
                    static_cast<std::int64_t>(s.rounds)));
  s.seeds = static_cast<std::size_t>(util::env_int(
      "FEDCLUST_BENCH_SEEDS", static_cast<std::int64_t>(s.seeds)));
  s.n_clients = static_cast<std::size_t>(util::env_int(
      "FEDCLUST_BENCH_CLIENTS", static_cast<std::int64_t>(s.n_clients)));
  s.train_per_client = static_cast<std::size_t>(util::env_int(
      "FEDCLUST_BENCH_TRAIN", static_cast<std::int64_t>(s.train_per_client)));
  return s;
}

fl::ExperimentConfig make_config(const std::string& dataset,
                                 const std::string& setting,
                                 const Scale& scale, std::uint64_t seed) {
  fl::ExperimentConfig cfg;
  cfg.data_spec = data::dataset_spec(dataset);
  cfg.data_spec.hw = scale.image_hw;

  cfg.fed.n_clients = scale.n_clients;
  cfg.fed.train_per_client = scale.train_per_client;
  cfg.fed.test_per_client = scale.test_per_client;
  if (setting == "skew20") {
    cfg.fed.partition = "skew";
    cfg.fed.skew_fraction = 0.2;
  } else if (setting == "skew30") {
    cfg.fed.partition = "skew";
    cfg.fed.skew_fraction = 0.3;
  } else if (setting == "dir01") {
    cfg.fed.partition = "dirichlet";
    cfg.fed.dirichlet_alpha = 0.1;
  } else {
    throw std::invalid_argument("make_config: unknown setting " + setting);
  }

  // Paper: LeNet-5 for CIFAR-10 / FMNIST / SVHN, ResNet-9 for CIFAR-100.
  cfg.model.arch = dataset == "cifar100" ? "resnet9" : "lenet5";
  cfg.model.in_channels = cfg.data_spec.channels;
  cfg.model.image_hw = cfg.data_spec.hw;
  cfg.model.num_classes = cfg.data_spec.num_classes;
  cfg.model.width = 8;

  cfg.local.epochs = scale.local_epochs;
  cfg.local.batch_size = scale.batch_size;
  cfg.local.lr = 0.02f;
  cfg.local.momentum = 0.5f;


  cfg.rounds = scale.rounds;
  cfg.sample_fraction = scale.sample_fraction;
  cfg.algo.fedclust_init_epochs = 3;
  cfg.eval_every = 1;
  cfg.seed = seed;

  // Cluster-count tuning. The paper tunes λ (and each baseline's knobs) per
  // dataset for the best outcome; we do the same at reduced scale by fixing
  // the dendrogram cut to a per-dataset-tuned fraction of the population
  // (equivalent to a tuned λ; the λ dial itself is exercised by the Fig. 4
  // bench and the unit tests). The same tuned count is granted to the other
  // clustered baselines (PACFL, IFCA) for a fair comparison.
  double k_frac = 0.5;  // svhn / cifar100
  if (dataset == "cifar10") k_frac = 0.3;
  if (dataset == "fmnist") k_frac = 0.6;
  const auto tuned_k = static_cast<std::size_t>(
      std::max(2.0, k_frac * static_cast<double>(scale.n_clients)));
  cfg.algo.fedclust_k = tuned_k;
  cfg.algo.pacfl_k = tuned_k;
  // IFCA keeps the cluster count of its original paper (the FedClust paper
  // does the same: "for IFCA and CFL we used the same number of clusters as
  // mentioned in the original papers").
  cfg.algo.ifca_k = 4;
  return cfg;
}

fl::Trace run_method(const std::string& method, const std::string& setting,
                     const std::string& dataset, const Scale& scale,
                     std::uint64_t seed) {
  // Per-phase timings ride on the metrics registry (zero perturbation, so
  // enabling it for every bench run is free accuracy-wise).
  auto& registry = obs::MetricsRegistry::instance();
  registry.set_enabled(true);
  const auto before = registry.snapshot();

  util::Stopwatch sw;
  fl::Federation fed(make_config(dataset, setting, scale, seed));
  const auto algo = core::make_algorithm(method, fed);
  fl::Trace trace = algo->run();

  const auto after = registry.snapshot();
  FC_LOG_INFO << method << "/" << dataset << "/" << setting << " seed "
              << seed << ": acc=" << trace.final_accuracy() << " in "
              << util::fmt_float(sw.seconds(), 1) << "s (setup="
              << util::fmt_float(phase_seconds(before, after,
                                               "fl.setup_seconds"), 1)
              << "s train="
              << util::fmt_float(phase_seconds(before, after,
                                               "fl.round_seconds"), 1)
              << "s eval="
              << util::fmt_float(phase_seconds(before, after,
                                               "fl.eval_seconds"), 1)
              << "s)";
  return trace;
}

CellResult run_cell(const std::string& method, const std::string& setting,
                    const std::string& dataset, const Scale& scale) {
  CellResult cell;
  std::vector<double> accs;
  for (std::size_t s = 0; s < scale.seeds; ++s) {
    cell.traces.push_back(
        run_method(method, setting, dataset, scale, 1000 + s));
    accs.push_back(cell.traces.back().final_accuracy() * 100.0);
  }
  cell.mean_acc = util::mean(accs);
  cell.std_acc = util::stddev(accs);
  return cell;
}

// ------------------------------------------------------------ paper data

namespace {

using Row = std::map<std::string, double>;  // dataset -> value
using Table = std::map<std::string, Row>;   // method -> row

const Table& table1() {
  static const Table t = {
      {"Local", {{"cifar10", 79.68}, {"cifar100", 33.18}, {"fmnist", 95.68}, {"svhn", 80.29}}},
      {"FedAvg", {{"cifar10", 50.27}, {"cifar100", 53.67}, {"fmnist", 77.10}, {"svhn", 81.36}}},
      {"FedProx", {{"cifar10", 51.60}, {"cifar100", 54.28}, {"fmnist", 74.53}, {"svhn", 79.64}}},
      {"FedNova", {{"cifar10", 47.38}, {"cifar100", 53.90}, {"fmnist", 71.33}, {"svhn", 75.56}}},
      {"LG", {{"cifar10", 85.49}, {"cifar100", 54.15}, {"fmnist", 95.49}, {"svhn", 91.59}}},
      {"PerFedAvg", {{"cifar10", 85.80}, {"cifar100", 61.29}, {"fmnist", 95.78}, {"svhn", 92.87}}},
      {"CFL", {{"cifar10", 51.86}, {"cifar100", 41.28}, {"fmnist", 78.44}, {"svhn", 73.59}}},
      {"IFCA", {{"cifar10", 87.19}, {"cifar100", 70.35}, {"fmnist", 96.83}, {"svhn", 94.76}}},
      {"PACFL", {{"cifar10", 88.40}, {"cifar100", 71.06}, {"fmnist", 97.46}, {"svhn", 95.48}}},
      {"FedClust", {{"cifar10", 95.82}, {"cifar100", 73.38}, {"fmnist", 97.92}, {"svhn", 95.86}}},
  };
  return t;
}

const Table& table2() {
  static const Table t = {
      {"Local", {{"cifar10", 66.51}, {"cifar100", 23.76}, {"fmnist", 92.51}, {"svhn", 68.84}}},
      {"FedAvg", {{"cifar10", 57.79}, {"cifar100", 54.79}, {"fmnist", 79.90}, {"svhn", 82.58}}},
      {"FedProx", {{"cifar10", 56.92}, {"cifar100", 53.65}, {"fmnist", 81.53}, {"svhn", 82.91}}},
      {"FedNova", {{"cifar10", 54.15}, {"cifar100", 54.11}, {"fmnist", 78.02}, {"svhn", 80.26}}},
      {"LG", {{"cifar10", 75.42}, {"cifar100", 36.78}, {"fmnist", 94.54}, {"svhn", 88.07}}},
      {"PerFedAvg", {{"cifar10", 78.67}, {"cifar100", 57.02}, {"fmnist", 92.35}, {"svhn", 92.10}}},
      {"CFL", {{"cifar10", 52.03}, {"cifar100", 35.73}, {"fmnist", 78.38}, {"svhn", 74.02}}},
      {"IFCA", {{"cifar10", 80.21}, {"cifar100", 66.21}, {"fmnist", 95.29}, {"svhn", 92.87}}},
      {"PACFL", {{"cifar10", 82.35}, {"cifar100", 65.91}, {"fmnist", 95.43}, {"svhn", 93.05}}},
      {"FedClust", {{"cifar10", 83.21}, {"cifar100", 68.33}, {"fmnist", 95.70}, {"svhn", 93.17}}},
  };
  return t;
}

const Table& table3() {
  static const Table t = {
      {"Local", {{"cifar10", 41.80}, {"cifar100", 17.56}, {"fmnist", 70.40}, {"svhn", 59.06}}},
      {"FedAvg", {{"cifar10", 38.25}, {"cifar100", 45.26}, {"fmnist", 81.93}, {"svhn", 61.26}}},
      {"FedProx", {{"cifar10", 42.69}, {"cifar100", 46.17}, {"fmnist", 83.32}, {"svhn", 62.31}}},
      {"FedNova", {{"cifar10", 39.52}, {"cifar100", 46.55}, {"fmnist", 83.68}, {"svhn", 60.53}}},
      {"LG", {{"cifar10", 48.63}, {"cifar100", 24.27}, {"fmnist", 74.39}, {"svhn", 73.12}}},
      {"PerFedAvg", {{"cifar10", 52.83}, {"cifar100", 34.20}, {"fmnist", 81.18}, {"svhn", 75.07}}},
      {"CFL", {{"cifar10", 41.50}, {"cifar100", 31.62}, {"fmnist", 74.01}, {"svhn", 61.96}}},
      {"IFCA", {{"cifar10", 50.51}, {"cifar100", 46.28}, {"fmnist", 84.57}, {"svhn", 74.57}}},
      {"PACFL", {{"cifar10", 51.02}, {"cifar100", 47.58}, {"fmnist", 85.30}, {"svhn", 76.35}}},
      {"FedClust", {{"cifar10", 60.25}, {"cifar100", 49.65}, {"fmnist", 95.51}, {"svhn", 78.23}}},
  };
  return t;
}

const Table& table4() {
  // -1 encodes the paper's "--" (target never reached in 200 rounds).
  static const Table t = {
      {"FedAvg", {{"cifar10", -1}, {"cifar100", 135}, {"fmnist", 200}, {"svhn", 150}}},
      {"FedProx", {{"cifar10", -1}, {"cifar100", 120}, {"fmnist", 200}, {"svhn", 200}}},
      {"FedNova", {{"cifar10", -1}, {"cifar100", 125}, {"fmnist", -1}, {"svhn", 150}}},
      {"LG", {{"cifar10", 27}, {"cifar100", -1}, {"fmnist", 14}, {"svhn", 17}}},
      {"PerFedAvg", {{"cifar10", 54}, {"cifar100", 110}, {"fmnist", 15}, {"svhn", 37}}},
      {"CFL", {{"cifar10", -1}, {"cifar100", -1}, {"fmnist", 47}, {"svhn", -1}}},
      {"IFCA", {{"cifar10", 28}, {"cifar100", 43}, {"fmnist", 13}, {"svhn", 19}}},
      {"PACFL", {{"cifar10", 25}, {"cifar100", 40}, {"fmnist", 13}, {"svhn", 15}}},
      {"FedClust", {{"cifar10", 13}, {"cifar100", 32}, {"fmnist", 7}, {"svhn", 9}}},
  };
  return t;
}

const Table& table5() {
  static const Table t = {
      {"FedAvg", {{"cifar10", -1}, {"cifar100", 4237.37}, {"fmnist", 79.36}, {"svhn", 71.43}}},
      {"FedProx", {{"cifar10", -1}, {"cifar100", 4237.37}, {"fmnist", 71.43}, {"svhn", 71.43}}},
      {"FedNova", {{"cifar10", -1}, {"cifar100", 3601.98}, {"fmnist", -1}, {"svhn", 79.36}}},
      {"LG", {{"cifar10", 2.11}, {"cifar100", -1}, {"fmnist", 1.26}, {"svhn", 1.76}}},
      {"PerFedAvg", {{"cifar10", 23.81}, {"cifar100", 6356.06}, {"fmnist", 7.54}, {"svhn", 18.65}}},
      {"CFL", {{"cifar10", -1}, {"cifar100", -1}, {"fmnist", -1}, {"svhn", -1}}},
      {"IFCA", {{"cifar10", 16.66}, {"cifar100", 3495.19}, {"fmnist", 11.30}, {"svhn", 10.71}}},
      {"PACFL", {{"cifar10", 10.31}, {"cifar100", 1991.60}, {"fmnist", 7.53}, {"svhn", 8.73}}},
      {"FedClust", {{"cifar10", 8.66}, {"cifar100", 1889.17}, {"fmnist", 4.60}, {"svhn", 7.11}}},
  };
  return t;
}

const Table& table6() {
  static const Table t = {
      {"Local", {{"cifar10", 83.39}, {"cifar100", 27.91}, {"fmnist", 94.45}, {"svhn", 90.62}}},
      {"FedAvg", {{"cifar10", 31.72}, {"cifar100", 32.26}, {"fmnist", 78.70}, {"svhn", 71.18}}},
      {"FedProx", {{"cifar10", 27.74}, {"cifar100", 32.74}, {"fmnist", 74.19}, {"svhn", 73.44}}},
      {"FedNova", {{"cifar10", 31.12}, {"cifar100", 33.53}, {"fmnist", 73.76}, {"svhn", 72.43}}},
      {"LG", {{"cifar10", 81.58}, {"cifar100", 11.08}, {"fmnist", 95.66}, {"svhn", 89.59}}},
      {"PerFedAvg", {{"cifar10", 74.65}, {"cifar100", 31.40}, {"fmnist", 92.33}, {"svhn", 64.16}}},
      {"IFCA", {{"cifar10", 85.64}, {"cifar100", 94.45}, {"fmnist", 96.63}, {"svhn", 94.20}}},
      {"PACFL", {{"cifar10", 85.80}, {"cifar100", 94.45}, {"fmnist", 97.04}, {"svhn", 94.75}}},
      {"FedClust", {{"cifar10", 86.78}, {"cifar100", 97.63}, {"fmnist", 97.63}, {"svhn", 95.19}}},
  };
  return t;
}

double lookup(const Table& t, const std::string& method,
              const std::string& dataset) {
  const auto mi = t.find(method);
  if (mi == t.end()) return -1.0;
  const auto di = mi->second.find(dataset);
  return di == mi->second.end() ? -1.0 : di->second;
}

}  // namespace

double paper_accuracy(const std::string& setting, const std::string& method,
                      const std::string& dataset) {
  if (setting == "skew20") return lookup(table1(), method, dataset);
  if (setting == "skew30") return lookup(table2(), method, dataset);
  if (setting == "dir01") return lookup(table3(), method, dataset);
  throw std::invalid_argument("paper_accuracy: unknown setting " + setting);
}

double paper_rounds_to_target(const std::string& method,
                              const std::string& dataset) {
  return lookup(table4(), method, dataset);
}

double paper_mb_to_target(const std::string& method,
                          const std::string& dataset) {
  return lookup(table5(), method, dataset);
}

double paper_newcomer_accuracy(const std::string& method,
                               const std::string& dataset) {
  return lookup(table6(), method, dataset);
}

double paper_target_table4(const std::string& dataset) {
  if (dataset == "cifar10") return 80.0;
  if (dataset == "cifar100") return 50.0;
  if (dataset == "fmnist") return 75.0;
  if (dataset == "svhn") return 75.0;
  throw std::invalid_argument("paper_target_table4: " + dataset);
}

double paper_target_table5(const std::string& dataset) {
  if (dataset == "cifar10") return 70.0;
  if (dataset == "cifar100") return 50.0;
  if (dataset == "fmnist") return 80.0;
  if (dataset == "svhn") return 80.0;
  throw std::invalid_argument("paper_target_table5: " + dataset);
}

}  // namespace fedclust::bench
