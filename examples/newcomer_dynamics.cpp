// Client dynamics (paper §4.2 / Algorithm 2): clients joining after the
// federation ended are matched to an existing cluster from nothing but
// their briefly-trained final-layer weights, then personalize the cluster
// model with a few local epochs.
//
//   $ ./newcomer_dynamics

#include <iostream>

#include "core/fedclust.h"
#include "util/table.h"

int main() {
  using namespace fedclust;

  fl::ExperimentConfig cfg;
  cfg.data_spec = data::dataset_spec("svhn");
  cfg.fed.n_clients = 30;  // 24 federate, 6 join later
  cfg.fed.train_per_client = 10;
  cfg.fed.test_per_client = 10;
  cfg.fed.partition = "skew";
  cfg.fed.skew_fraction = 0.2;
  cfg.fed.label_set_pool = 4;  // four ground-truth client groups
  cfg.model.arch = "lenet5";
  cfg.model.in_channels = cfg.data_spec.channels;
  cfg.model.image_hw = cfg.data_spec.hw;
  cfg.model.num_classes = cfg.data_spec.num_classes;
  cfg.local.epochs = 2;
  cfg.local.lr = 0.02f;
  cfg.local.momentum = 0.5f;
  cfg.rounds = 15;
  cfg.sample_fraction = 0.25;
  cfg.eval_every = cfg.rounds;  // only the final model matters here
  cfg.seed = 9;
  cfg.algo.fedclust_k = 4;
  cfg.algo.fedclust_init_epochs = 3;

  // Plan the full population, hold the last 6 clients out as newcomers:
  // the plan is prefix-stable, so the first 24 are exactly the clients of a
  // 24-client federation.
  const data::PartitionPlan plan(cfg.data_spec, cfg.fed, cfg.seed);
  std::vector<fl::SimClient> newcomers;
  std::vector<std::size_t> newcomer_groups;
  for (std::size_t i = 24; i < plan.n_clients(); ++i) {
    data::ClientData d = plan.materialize(i);
    newcomers.emplace_back(i, std::move(d.train), std::move(d.test));
    newcomer_groups.push_back(d.group_id);
  }

  cfg.fed.n_clients = 24;
  fl::Federation fed(cfg);
  core::FedClust algo(fed);
  algo.run();
  std::cout << "federation trained; " << algo.report().n_clusters
            << " clusters formed\n\n";

  util::TablePrinter table("newcomers joining after federation");
  table.set_headers({"newcomer", "true group", "assigned cluster",
                     "acc before fine-tune %", "acc after 5 epochs %"});

  nn::Model& ws = fed.workspace();
  for (std::size_t i = 0; i < newcomers.size(); ++i) {
    const std::size_t k =
        algo.assign_newcomer(newcomers[i], util::Rng(100 + i));
    ws.set_flat_params(algo.cluster_model(k));
    const double before = newcomers[i].evaluate(ws) * 100.0;
    fl::LocalTrainOptions fine = cfg.local;
    fine.epochs = 5;
    newcomers[i].train(ws, fine, util::Rng(200 + i));
    const double after = newcomers[i].evaluate(ws) * 100.0;
    table.add_row({std::to_string(newcomers[i].id()),
                   std::to_string(newcomer_groups[i]), std::to_string(k),
                   util::fmt_float(before, 1), util::fmt_float(after, 1)});
  }
  table.print();
  std::cout << "\nnewcomers never shipped their data — only "
            << "their locally-trained final-layer weights (Eq. 4).\n";
  return 0;
}
