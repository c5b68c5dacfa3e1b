#pragma once

// FedClust — the paper's contribution (Algorithm 1 + Algorithm 2).
//
// Round 0 (setup): the server broadcasts θ0 to *all* clients; each performs
// a few local epochs and uploads only the final-layer (classifier) weights.
// The server builds the m x m L2 proximity matrix over those partial
// weights (Eq. 3) and runs one-shot agglomerative hierarchical clustering
// cut at threshold λ. Every later round is per-cluster FedAvg over a
// sampled client subset.
//
// λ is the generalization/personalization dial (paper Fig. 4): a large λ
// collapses everything into one cluster (≈ FedAvg), a tiny λ makes every
// client its own cluster (≈ Local).
//
// Newcomers (Algorithm 2): a client joining after federation trains θ0
// briefly, uploads its partial weights, and is assigned to the cluster
// whose stored partial-weight centroid is nearest (Eq. 4).

#include "fl/algorithm.h"
#include "tensor/packed_rows.h"
#include "tensor/tensor.h"

namespace fedclust::core {

// What the one-shot clustering produced; exposed for benches and tests.
struct ClusteringReport {
  tensor::Tensor proximity;             // (m, m) L2 distances, Eq. 3
  std::vector<std::size_t> assignment;  // client -> cluster
  std::size_t n_clusters = 0;
  // λ actually used: the configured value, or the largest-gap choice when
  // algo.fedclust_lambda < 0 (auto mode — our implementation of the
  // data-driven selection the paper leaves as future work).
  float effective_lambda = 0.0f;
};

class FedClust : public fl::FlAlgorithm {
 public:
  explicit FedClust(fl::Federation& fed);

  std::string name() const override { return "FedClust"; }

  const ClusteringReport& report() const { return report_; }
  const std::vector<std::size_t>& assignment() const {
    return report_.assignment;
  }
  // Landmark clients the sketch clustered on (sorted ascending); empty in
  // exact mode. In landmark mode report().proximity is (L, L) over these
  // ids instead of the full (m, m) matrix.
  const std::vector<std::size_t>& landmark_ids() const {
    return landmark_ids_;
  }
  const std::vector<float>& cluster_model(std::size_t k) const {
    return cluster_models_.at(k);
  }

  // Algorithm 2: returns the cluster the newcomer joins. The newcomer
  // receives θ0, trains algo.fedclust_init_epochs epochs, and uploads its
  // classifier weights; communication is accounted on the federation's
  // tracker. Must be called after run() (or at least after setup).
  std::size_t assign_newcomer(const fl::SimClient& newcomer, util::Rng rng);

  void save_state(util::BinaryWriter& w) const override;
  void load_state(util::BinaryReader& r) override;

 protected:
  void setup() override;
  void round(std::size_t r) override;
  double evaluate_all() override;
  std::size_t current_clusters() const override {
    return cluster_models_.size();
  }

 private:
  // Trains from `start` (the wire-decoded broadcast of θ0) on the given
  // client data for the init epochs through the given workspace and returns
  // the classifier slice of the result.
  std::vector<float> partial_weights_after_warmup(
      nn::Model& ws, const std::vector<float>& start,
      const fl::SimClient& client, util::Rng rng);

  ClusteringReport report_;
  std::vector<std::size_t> landmark_ids_;  // empty = exact clustering
  std::vector<std::vector<float>> cluster_models_;
  // Per-cluster centroid of the round-0 partial uploads — the "copy of each
  // cluster's partial model weights" Algorithm 2 matches newcomers against.
  std::vector<std::vector<float>> cluster_partials_;
  // cluster_partials_ packed for the L2 kernel; rebuilt wherever
  // cluster_partials_ is assigned.
  tensor::PackedRows packed_partials_;
};

}  // namespace fedclust::core
