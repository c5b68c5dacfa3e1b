#include "fl/ifca.h"

#include <limits>

#include "fl/parallel_round.h"
#include "obs/metrics.h"

namespace fedclust::fl {

Ifca::Ifca(Federation& fed) : FlAlgorithm(fed) {}

void Ifca::setup() {
  const std::size_t k = std::max<std::size_t>(1, fed_.cfg().algo.ifca_k);
  models_.clear();
  for (std::size_t i = 0; i < k; ++i) {
    // Distinct random inits (i == 0 reuses θ0 so one arm matches the other
    // methods' start).
    models_.push_back(i == 0 ? fed_.init_params()
                             : fed_.make_model(0x1FCA00 + i).flat_params());
  }
}

std::size_t Ifca::select_cluster_from(
    const std::vector<std::vector<float>>& models, nn::Model& ws,
    const SimClient& client) {
  float best = std::numeric_limits<float>::infinity();
  std::size_t best_k = 0;
  for (std::size_t k = 0; k < models.size(); ++k) {
    ws.set_flat_params(models[k]);
    const float loss = client.train_loss(ws);
    if (loss < best) {
      best = loss;
      best_k = k;
    }
  }
  return best_k;
}

std::size_t Ifca::select_cluster_with(nn::Model& ws,
                                      const SimClient& client) {
  return select_cluster_from(models_, ws, client);
}

std::size_t Ifca::select_cluster_for(const SimClient& client) {
  return select_cluster_with(fed_.workspace(), client);
}

void Ifca::round(std::size_t r) {
  const auto sampled = fed_.sample_round(r);
  const std::size_t p = fed_.model_size();

  // The K cluster models are serialized once per round; every client
  // selects from (and trains on) the wire-decoded copies — bit-exact for
  // raw_f32, quantized for lossy codecs.
  std::vector<std::vector<float>> rx_models;
  rx_models.reserve(models_.size());
  for (const auto& m : models_) {
    rx_models.push_back(fed_.through_wire(wire::MessageKind::kModelPull, m,
                                          wire::kServerSender, r));
  }

  // Selection + training per client; the chosen cluster ids come back in
  // client-index order so per-cluster grouping matches the sequential run.
  std::vector<std::size_t> chosen(sampled.size());
  std::vector<std::vector<float>> locals(sampled.size());
  std::vector<double> weights(sampled.size());
  std::vector<char> delivered(sampled.size(), 1);
  ParallelRoundRunner runner(fed_);
  runner.for_each_client(sampled, [&](std::size_t idx, std::size_t c,
                                      nn::Model& ws) {
    // The client needs every cluster model to choose: K model downloads.
    runner.bill_download(r, c, p, models_.size());
    runner.journal_train(r, c, [&] {
      const auto client = fed_.client(c);
      chosen[idx] = select_cluster_from(rx_models, ws, *client);
      ws.set_flat_params(rx_models[chosen[idx]]);
      client->train(ws, fed_.cfg().local, fed_.train_rng(c, r));
      weights[idx] = static_cast<double>(client->n_train());
    });
    locals[idx] = ws.flat_params();
    // Upload (trained model + cluster id) runs the fault/validation
    // gauntlet; lost updates are excluded from their cluster's average.
    delivered[idx] = fed_.deliver_update(c, r, locals[idx], p) ? 1 : 0;
  });

  std::vector<std::vector<std::pair<const std::vector<float>*, double>>>
      per_cluster(models_.size());
  std::vector<std::size_t> chose_cluster(models_.size(), 0);
  for (std::size_t i = 0; i < sampled.size(); ++i) {
    ++chose_cluster[chosen[i]];
    if (delivered[i]) {
      per_cluster[chosen[i]].emplace_back(&locals[i], weights[i]);
    }
  }
  for (std::size_t k = 0; k < models_.size(); ++k) {
    if (per_cluster[k].empty()) {
      // Carried forward unchanged; clients that selected this arm keep
      // using its last model. Count only fault-induced hollowing.
      if (chose_cluster[k] > 0) {
        OBS_COUNTER_ADD("fault.empty_cluster_rounds", 1);
      }
      continue;
    }
    models_[k] = weighted_average(per_cluster[k]);
  }
}

double Ifca::evaluate_all() {
  // Each client evaluates with the cluster model it would select.
  const auto ids = fed_.eval_ids();
  std::vector<double> accs(ids.size());
  ParallelRoundRunner runner(fed_);
  runner.for_each_index(ids.size(), [&](std::size_t idx, nn::Model& ws) {
    const auto client = fed_.client(ids[idx]);
    const std::size_t k = select_cluster_with(ws, *client);
    ws.set_flat_params(models_[k]);
    accs[idx] = client->evaluate(ws);
    runner.journal_eval(ids[idx], accs[idx]);
  });
  double sum = 0.0;
  for (const double a : accs) sum += a;
  return sum / static_cast<double>(accs.size());
}

void Ifca::save_state(util::BinaryWriter& w) const {
  write_nested_f32(w, models_);
}

void Ifca::load_state(util::BinaryReader& r) {
  models_ = read_nested_f32(r);
}

}  // namespace fedclust::fl
