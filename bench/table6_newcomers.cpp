// Reproduces paper Table 6: average local test accuracy of *newcomer*
// clients that join after federation ends. 80% of the population federates;
// the held-out 20% then receive a starting model according to each method's
// own mechanism and personalize it for 5 local epochs:
//
//   Local      — θ0, 5 epochs on own data (no federation)
//   FedAvg/... — the final global model
//   LG         — fresh local layers + the shared global layers
//   PerFedAvg  — the meta-initialization
//   IFCA       — the cluster model with the lowest loss on the newcomer's data
//   PACFL      — the cluster of the nearest client by principal angles
//   FedClust   — Algorithm 2 (partial-weight matching, Eq. 4)
//
// The paper's Table 6 omits CFL; so do we.

#include <iostream>

#include "core/fedclust.h"
#include "fl/fedavg.h"
#include "fl/fednova.h"
#include "fl/ifca.h"
#include "fl/lg_fedavg.h"
#include "fl/pacfl.h"
#include "fl/perfedavg.h"
#include "harness.h"
#include "table_common.h"
#include "util/config.h"
#include "util/logging.h"
#include "util/stats.h"
#include "util/table.h"

namespace fedclust::bench {
namespace {

struct NewcomerSetup {
  fl::ExperimentConfig cfg;             // federates the first 80% of the plan
  std::vector<fl::SimClient> newcomers;  // the held-out 20%
};

// The newcomers are the plan ids past the federated prefix. The plan is
// prefix-stable, so the federated clients are exactly those of an
// n_fed-client federation.
NewcomerSetup make_setup(const std::string& dataset, const Scale& scale,
                         std::uint64_t seed) {
  NewcomerSetup s;
  s.cfg = make_config(dataset, "skew20", scale, seed);
  // Evaluating every round is wasted work here; only the final state
  // matters for the newcomer experiment.
  s.cfg.eval_every = s.cfg.rounds;
  const data::PartitionPlan plan(s.cfg.data_spec, s.cfg.fed, seed);
  const std::size_t n_fed = plan.n_clients() * 8 / 10;
  for (std::size_t i = n_fed; i < plan.n_clients(); ++i) {
    data::ClientData d = plan.materialize(i);
    s.newcomers.emplace_back(1000 + i - n_fed, std::move(d.train),
                             std::move(d.test));
  }
  s.cfg.fed.n_clients = n_fed;
  return s;
}

// Personalize `start` on the newcomer's data for 5 epochs and return test
// accuracy.
double personalize_and_eval(fl::Federation& fed, const fl::SimClient& nc,
                            const std::vector<float>& start,
                            std::uint64_t rng_salt) {
  nn::Model& ws = fed.workspace();
  ws.set_flat_params(start);
  fl::LocalTrainOptions fine = fed.cfg().local;
  fine.epochs = 5;
  nc.train(ws, fine, util::Rng(fed.cfg().seed).split(0xEC0 + rng_salt));
  return nc.evaluate(ws);
}

// Runs `method` on the federated 80% and returns the mean newcomer accuracy.
double newcomer_accuracy(const std::string& method, const std::string& dataset,
                         const Scale& scale, std::uint64_t seed) {
  NewcomerSetup s = make_setup(dataset, scale, seed);
  const std::vector<fl::SimClient>& newcomers = s.newcomers;
  fl::Federation fed(s.cfg);

  const auto eval_all = [&](const auto& start_for) {
    double sum = 0.0;
    for (std::size_t i = 0; i < newcomers.size(); ++i) {
      sum += personalize_and_eval(fed, newcomers[i], start_for(newcomers[i]),
                                  i);
    }
    return sum / static_cast<double>(newcomers.size());
  };

  if (method == "Local") {
    return eval_all([&](const fl::SimClient&) -> const std::vector<float>& {
      return fed.init_params();
    });
  }
  if (method == "FedAvg" || method == "FedProx") {
    fl::FedAvg algo(fed, method == "FedProx" ? fed.cfg().algo.prox_mu : 0.0f);
    algo.run();
    return eval_all([&](const fl::SimClient&) -> const std::vector<float>& {
      return algo.global_params();
    });
  }
  if (method == "FedNova") {
    fl::FedNova algo(fed);
    algo.run();
    return eval_all([&](const fl::SimClient&) -> const std::vector<float>& {
      return algo.global_params();
    });
  }
  if (method == "LG") {
    fl::LgFedAvg algo(fed);
    algo.run();
    std::vector<float> start;
    return eval_all([&](const fl::SimClient& nc) -> const std::vector<float>& {
      // Fresh random local layers + shared global suffix.
      start = fed.make_model(5000 + nc.id()).flat_params();
      std::copy(algo.global_suffix().begin(), algo.global_suffix().end(),
                start.begin() +
                    static_cast<std::ptrdiff_t>(algo.global_offset()));
      return start;
    });
  }
  if (method == "PerFedAvg") {
    fl::PerFedAvg algo(fed);
    algo.run();
    return eval_all([&](const fl::SimClient&) -> const std::vector<float>& {
      return algo.meta_params();
    });
  }
  if (method == "IFCA") {
    fl::Ifca algo(fed);
    algo.run();
    return eval_all([&](const fl::SimClient& nc) -> const std::vector<float>& {
      return algo.models()[algo.select_cluster_for(nc)];
    });
  }
  if (method == "PACFL") {
    fl::Pacfl algo(fed);
    algo.run();
    return eval_all([&](const fl::SimClient& nc) -> const std::vector<float>& {
      return algo.cluster_models()[algo.assign_newcomer(nc)];
    });
  }
  if (method == "FedClust") {
    core::FedClust algo(fed);
    algo.run();
    return eval_all([&](const fl::SimClient& nc) -> const std::vector<float>& {
      return algo.cluster_model(algo.assign_newcomer(
          nc, util::Rng(fed.cfg().seed).split(0xAC + nc.id())));
    });
  }
  throw std::invalid_argument("table6: unsupported method " + method);
}

int run(int argc, const char* const* argv) {
  util::ArgParser args("table6_newcomers",
                       "newcomer client accuracy, skew 20% (paper Table 6)");
  args.add_option("datasets", "comma-separated dataset list",
                  "cifar10,cifar100,fmnist,svhn");
  args.add_option("methods", "comma-separated method list (default: Table 6)",
                  "Local,FedAvg,FedProx,FedNova,LG,PerFedAvg,IFCA,PACFL,"
                  "FedClust");
  if (!args.parse(argc, argv)) return 0;

  const Scale scale = get_scale();
  const auto datasets = split_csv_list(args.str("datasets"));
  const auto methods = split_csv_list(args.str("methods"));

  std::cout << "Table 6 — newcomer accuracy after 5 personalization epochs "
            << "(skew 20%, scale '" << scale.name << "')\n"
            << "cells: measured mean ± std  [paper]\n";
  util::TablePrinter table;
  std::vector<std::string> headers = {"Method"};
  for (const auto& d : datasets) headers.push_back(d);
  table.set_headers(headers);

  std::vector<double> best(datasets.size(), -1.0);
  std::vector<std::string> best_method(datasets.size());
  for (const auto& method : methods) {
    std::vector<std::string> row = {method};
    for (std::size_t d = 0; d < datasets.size(); ++d) {
      std::vector<double> accs;
      for (std::size_t s = 0; s < scale.seeds; ++s) {
        accs.push_back(
            newcomer_accuracy(method, datasets[d], scale, 1000 + s) * 100.0);
      }
      const double mean = util::mean(accs);
      const double std = util::stddev(accs);
      const double paper = paper_newcomer_accuracy(method, datasets[d]);
      std::string cell = util::fmt_pm(mean, std);
      cell += paper < 0 ? "  [--]" : "  [" + util::fmt_float(paper, 2) + "]";
      row.push_back(cell);
      if (mean > best[d]) {
        best[d] = mean;
        best_method[d] = method;
      }
    }
    table.add_row(row);
    FC_LOG_INFO << "table6 finished method " << method;
  }
  table.print();
  for (std::size_t d = 0; d < datasets.size(); ++d) {
    std::cout << datasets[d] << ": best newcomer accuracy = "
              << best_method[d] << " (" << util::fmt_float(best[d], 2)
              << "%)\n";
  }
  return 0;
}

}  // namespace
}  // namespace fedclust::bench

int main(int argc, char** argv) { return fedclust::bench::run(argc, argv); }
