#pragma once

// A simulated FL client: local train/test data plus local-SGD training and
// evaluation routines that operate on a caller-provided workspace model.
//
// Clients never own model parameters — algorithms decide what weights a
// client trains (global model, cluster model, personal model) by loading
// them into the workspace before calling train()/evaluate().

#include <cstdint>
#include <optional>

#include "data/dataset.h"
#include "nn/model.h"
#include "util/fields.h"
#include "util/rng.h"

namespace fedclust::fl {

struct LocalTrainOptions {
  std::size_t epochs = 2;
  std::size_t batch_size = 10;
  float lr = 0.01f;
  float momentum = 0.5f;
  float weight_decay = 0.0f;
  // Global gradient-norm clip per SGD step (0 = off). Stabilizes training
  // under heavy label skew, where batch losses occasionally spike.
  float clip_grad_norm = 0.0f;
  // FedProx proximal coefficient; the reference point is passed to train().
  float prox_mu = 0.0f;
};

// LocalTrainOptions' fields in canonical order (util/fields.h). Also the
// TrainReq wire layout of the options (net/message.cpp).
template <util::ConfigRef<LocalTrainOptions> O, class V>
constexpr void for_each_field(O& o, V&& v) {
  v({"epochs"}, o.epochs);
  v({"batch_size"}, o.batch_size);
  v({"lr"}, o.lr);
  v({"momentum"}, o.momentum);
  v({"weight_decay"}, o.weight_decay);
  v({"clip_grad_norm"}, o.clip_grad_norm);
  v({"prox_mu"}, o.prox_mu);
}
static_assert(util::field_list_complete<LocalTrainOptions>);

class SimClient {
 public:
  SimClient(std::size_t id, data::Dataset train, data::Dataset test);

  std::size_t id() const { return id_; }
  std::size_t n_train() const { return train_.size(); }
  std::size_t n_test() const { return test_.size(); }
  const data::Dataset& train_data() const { return train_; }
  const data::Dataset& test_data() const { return test_; }

  // Runs opts.epochs of mini-batch SGD on this client's training data,
  // mutating `model` in place. `rng` drives the shuffle (pass a split,
  // per-(client, round) stream for determinism). prox_ref, when non-null,
  // activates the FedProx proximal pull toward that parameter vector.
  // Returns the mean training loss of the final epoch.
  float train(nn::Model& model, const LocalTrainOptions& opts, util::Rng rng,
              const std::vector<float>* prox_ref = nullptr,
              const std::vector<float>* grad_offset = nullptr) const;

  // Number of SGD steps train() will take — FedNova's tau_i.
  std::size_t local_steps(const LocalTrainOptions& opts) const;

  // Top-1 accuracy on the local test set.
  double evaluate(nn::Model& model) const;

  // Mean loss over the local training data (no updates) — IFCA's cluster
  // selection criterion.
  float train_loss(nn::Model& model) const;

 private:
  std::size_t id_;
  data::Dataset train_;
  data::Dataset test_;
};

}  // namespace fedclust::fl
