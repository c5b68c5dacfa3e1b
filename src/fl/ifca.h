#pragma once

// IFCA (Ghosh et al., 2020): a fixed number K of cluster models. Every
// sampled client downloads all K models each round (the communication cost
// the paper calls out), picks the one with the lowest loss on its own data,
// trains it, and the server averages per cluster. Cluster models start from
// different random initializations, which is why IFCA's early rounds are
// noisy.

#include "fl/algorithm.h"

namespace fedclust::fl {

class Ifca : public FlAlgorithm {
 public:
  explicit Ifca(Federation& fed);

  std::string name() const override { return "IFCA"; }

  const std::vector<std::vector<float>>& models() const { return models_; }
  // Cluster a (possibly new) client would select: argmin train loss across
  // the K models, as in the training rounds.
  std::size_t select_cluster_for(const SimClient& client);

  void save_state(util::BinaryWriter& w) const override;
  void load_state(util::BinaryReader& r) override;

 protected:
  void setup() override;
  void round(std::size_t r) override;
  double evaluate_all() override;
  std::size_t current_clusters() const override { return models_.size(); }

 private:
  // argmin_k train_loss(model_k) evaluated through an explicit workspace —
  // the form worker threads use with their leased replicas.
  std::size_t select_cluster_with(nn::Model& ws, const SimClient& client);
  // Same, over an explicit model set (the wire-decoded copies clients
  // actually receive during a round).
  std::size_t select_cluster_from(
      const std::vector<std::vector<float>>& models, nn::Model& ws,
      const SimClient& client);

  std::vector<std::vector<float>> models_;
};

}  // namespace fedclust::fl
