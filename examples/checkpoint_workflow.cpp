// Checkpoint workflow: train a federation with a checkpoint policy, restore
// the final run snapshot into a fresh federation, check that the restored
// state is bit-exact, and personalize a restored cluster model for one
// client.
//
//   $ ./checkpoint_workflow

#include <filesystem>
#include <iostream>

#include "core/fedclust.h"
#include "util/table.h"

int main() {
  using namespace fedclust;

  fl::ExperimentConfig cfg;
  cfg.data_spec = data::dataset_spec("fmnist");
  cfg.fed.n_clients = 16;
  cfg.fed.train_per_client = 10;
  cfg.fed.test_per_client = 10;
  cfg.fed.partition = "skew";
  cfg.fed.skew_fraction = 0.2;
  cfg.model.arch = "lenet5";
  cfg.model.in_channels = cfg.data_spec.channels;
  cfg.model.image_hw = cfg.data_spec.hw;
  cfg.model.num_classes = cfg.data_spec.num_classes;
  cfg.local.epochs = 2;
  cfg.local.lr = 0.02f;
  cfg.rounds = 10;
  cfg.sample_fraction = 0.25;
  cfg.eval_every = cfg.rounds;
  cfg.seed = 23;
  cfg.algo.fedclust_k = 4;
  cfg.algo.fedclust_init_epochs = 3;

  // Train, writing a run snapshot at the last round boundary.
  const auto dir = std::filesystem::temp_directory_path() / "fedclust_ckpt";
  std::filesystem::create_directories(dir);
  fl::Federation fed(cfg);
  core::FedClust algo(fed);
  algo.set_checkpoint_policy({dir.string(), /*every=*/cfg.rounds, 0});
  algo.run();
  const auto path = dir / fl::snapshot_filename(cfg.rounds);
  std::cout << "saved " << path << " (" << algo.report().n_clusters
            << " cluster models)\n";

  // Restore into a brand-new federation. The snapshot is at the last
  // boundary, so run() has no rounds left and only loads the state.
  fl::Federation fresh(cfg);
  core::FedClust restored(fresh);
  restored.resume_from(fl::load_snapshot(path.string()));
  restored.run();
  bool exact = restored.state_crc32c() == algo.state_crc32c() &&
               restored.report().n_clusters == algo.report().n_clusters;
  for (std::size_t k = 0; exact && k < algo.report().n_clusters; ++k) {
    exact = restored.cluster_model(k) == algo.cluster_model(k);
  }
  std::cout << "\nrestored state and cluster models "
            << (exact ? "bit-exact" : "MISMATCH") << "\n";

  // Personalize the restored cluster-0 model for the first client of
  // cluster 0.
  std::size_t client = 0;
  while (restored.assignment()[client] != 0) ++client;
  nn::Model& model = fresh.workspace();
  model.set_flat_params(restored.cluster_model(0));
  const double before = fresh.client(client)->evaluate(model) * 100.0;
  fl::LocalTrainOptions fine = cfg.local;
  fine.epochs = 5;
  fresh.client(client)->train(model, fine, util::Rng(99));
  const double after = fresh.client(client)->evaluate(model) * 100.0;

  util::TablePrinter t("personalizing the restored cluster model");
  t.set_headers({"client", "cluster", "acc before %", "acc after %"});
  t.add_row({std::to_string(client), "0", util::fmt_float(before, 1),
             util::fmt_float(after, 1)});
  t.print();
  return exact ? 0 : 1;
}
