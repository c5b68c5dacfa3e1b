// Ablation benches for FedClust's two design choices (DESIGN.md §4):
//
//  1. *Which weights to ship* — final-layer (the paper's choice) vs the
//     full weight vector. Measures clustering quality (label-coherence of
//     the resulting clusters) and the upload cost per client, quantifying
//     §4.1's claim that partial weights are both cheaper and better.
//  2. *Linkage criterion* — single / complete / average / ward on the same
//     proximity matrices.
//
// Quality metric: mean intra-cluster Jaccard similarity of client label
// sets, against the population baseline (what a random grouping scores).

#include <iostream>
#include <set>

#include "clustering/distance.h"
#include "clustering/hierarchical.h"
#include "data/partition.h"
#include "core/fedclust.h"
#include "fl/client.h"
#include "fl/fedavg.h"
#include "harness.h"
#include "nn/model_zoo.h"
#include "table_common.h"
#include "util/config.h"
#include "util/table.h"

namespace fedclust::bench {
namespace {

double intra_jaccard(const std::vector<std::size_t>& assignment,
                     const std::vector<std::set<std::int64_t>>& sets,
                     bool intra_only) {
  double sum = 0.0;
  std::size_t count = 0;
  for (std::size_t i = 0; i < assignment.size(); ++i) {
    for (std::size_t j = i + 1; j < assignment.size(); ++j) {
      if (intra_only && assignment[i] != assignment[j]) continue;
      std::size_t inter = 0;
      for (const auto l : sets[i]) inter += sets[j].count(l);
      const std::size_t uni = sets[i].size() + sets[j].size() - inter;
      sum += uni > 0 ? static_cast<double>(inter) / static_cast<double>(uni)
                     : 1.0;
      ++count;
    }
  }
  return count > 0 ? sum / static_cast<double>(count) : 0.0;
}

int run(int argc, const char* const* argv) {
  util::ArgParser args("ablation_weights_linkage",
                       "final-layer vs all-weights proximity, and linkage "
                       "choice (DESIGN.md ablations)");
  args.add_option("dataset", "dataset preset", "cifar10");
  args.add_option("k", "cluster count for the cut", "8");
  if (!args.parse(argc, argv)) return 0;

  const Scale scale = get_scale();
  const std::string dataset = args.str("dataset");
  const auto k = static_cast<std::size_t>(args.integer("k"));

  fl::ExperimentConfig cfg = make_config(dataset, "skew20", scale, 1000);
  const auto cdata =
      data::make_federated_data(cfg.data_spec, cfg.fed, cfg.seed);
  std::vector<std::set<std::int64_t>> label_sets;
  for (const auto& c : cdata) {
    const auto labels = c.train.present_labels();
    label_sets.emplace_back(labels.begin(), labels.end());
  }

  // Warm up every client exactly as FedClust round 0 does, but keep both
  // the full weight vector and the classifier slice.
  fl::Federation fed(cfg);
  nn::Model& ws = fed.workspace();
  std::vector<std::vector<float>> full;
  std::vector<std::vector<float>> partial;
  fl::LocalTrainOptions warm = cfg.local;
  warm.epochs = cfg.algo.fedclust_init_epochs;
  for (std::size_t c = 0; c < fed.n_clients(); ++c) {
    ws.set_flat_params(fed.init_params());
    fed.client(c)->train(ws, warm, fed.train_rng(c, 0xAB1A));
    full.push_back(ws.flat_params());
    partial.push_back(ws.classifier_params());
  }

  const double baseline = intra_jaccard(
      std::vector<std::size_t>(fed.n_clients(), 0), label_sets, false);

  std::cout << "Ablation — " << dataset << ", " << fed.n_clients()
            << " clients, cut to k=" << k << " (random-grouping baseline "
            << util::fmt_float(baseline, 3) << ")\n\n";

  // ---- weight-selection ablation --------------------------------------
  util::TablePrinter t1("(1) which weights drive the proximity matrix");
  t1.set_headers({"weights", "floats/client", "intra-cluster jaccard"});
  for (const bool use_partial : {true, false}) {
    const auto& vecs = use_partial ? partial : full;
    const auto dist = clustering::l2_distance_matrix(vecs);
    const auto labels = clustering::cut_to_k(
        clustering::agglomerative(dist, clustering::Linkage::kAverage), k);
    t1.add_row({use_partial ? "final layer (paper)" : "all weights",
                std::to_string(vecs.front().size()),
                util::fmt_float(intra_jaccard(labels, label_sets, true), 3)});
  }
  t1.print();

  // ---- distance-metric ablation -----------------------------------------
  util::TablePrinter tm("\n(1b) proximity metric (final-layer weights)");
  tm.set_headers({"metric", "intra-cluster jaccard"});
  for (const bool cosine : {false, true}) {
    const auto dm = cosine ? clustering::cosine_distance_matrix(partial)
                           : clustering::l2_distance_matrix(partial);
    const auto labels = clustering::cut_to_k(
        clustering::agglomerative(dm, clustering::Linkage::kAverage), k);
    tm.add_row({cosine ? "cosine" : "l2 (paper, Eq. 3)",
                util::fmt_float(intra_jaccard(labels, label_sets, true), 3)});
  }
  tm.print();

  // ---- linkage ablation -------------------------------------------------
  util::TablePrinter t2("\n(2) linkage criterion (on final-layer proximity)");
  t2.set_headers({"linkage", "intra-cluster jaccard"});
  const auto dist = clustering::l2_distance_matrix(partial);
  for (const auto* name : {"single", "complete", "average", "ward"}) {
    const auto labels = clustering::cut_to_k(
        clustering::agglomerative(dist,
                                  clustering::linkage_from_string(name)),
        k);
    t2.add_row({name,
                util::fmt_float(intra_jaccard(labels, label_sets, true), 3)});
  }
  t2.print();

  // ---- dropout robustness (extension; paper §4.2 claims it, we measure) --
  util::TablePrinter t3("\n(3) robustness to client dropout (FedClust vs "
                        "FedAvg, final accuracy %)");
  t3.set_headers({"dropout", "FedClust", "FedAvg"});
  for (const double p : {0.0, 0.3, 0.6}) {
    fl::ExperimentConfig dcfg = cfg;
    dcfg.fault.pre_round_dropout = p;
    dcfg.eval_every = dcfg.rounds;
    fl::Federation f1(dcfg);
    core::FedClust ours(f1);
    const double a1 = ours.run().final_accuracy() * 100.0;
    fl::Federation f2(dcfg);
    fl::FedAvg theirs(f2);
    const double a2 = theirs.run().final_accuracy() * 100.0;
    t3.add_row({util::fmt_float(p, 1), util::fmt_float(a1, 1),
                util::fmt_float(a2, 1)});
  }
  t3.print();
  return 0;
}

}  // namespace
}  // namespace fedclust::bench

int main(int argc, char** argv) { return fedclust::bench::run(argc, argv); }
