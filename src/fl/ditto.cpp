#include "fl/ditto.h"

#include "fl/parallel_round.h"
#include "obs/metrics.h"

namespace fedclust::fl {

Ditto::Ditto(Federation& fed, float lambda)
    : FlAlgorithm(fed), lambda_(lambda) {}

void Ditto::setup() {
  global_ = fed_.init_params();
  personal_.reset(fed_.n_clients(), fed_.init_params());
}

void Ditto::round(std::size_t r) {
  const auto sampled = fed_.sample_round(r);
  const std::size_t p = fed_.model_size();

  LocalTrainOptions prox_opts = fed_.cfg().local;
  prox_opts.prox_mu = lambda_;

  // Serialize the global model once per round; every client trains from
  // (and regularizes toward) the wire-decoded copy it downloads.
  const std::vector<float> rx_global = fed_.through_wire(
      wire::MessageKind::kModelPull, global_, wire::kServerSender, r);

  // Materialize the cohort's personal slots sequentially so the parallel
  // fan-out only writes through stable references.
  for (const std::size_t c : sampled) personal_.touch(c);

  std::vector<std::vector<float>> updates(sampled.size());
  std::vector<double> weights(sampled.size());
  std::vector<char> delivered(sampled.size(), 1);
  ParallelRoundRunner runner(fed_);
  runner.for_each_client(sampled, [&](std::size_t idx, std::size_t c,
                                      nn::Model& ws) {
    runner.bill_download(r, c, p);
    std::vector<float>& vi = personal_.touch(c);
    runner.journal_train(r, c, [&] {
      const auto client = fed_.client(c);
      // (1) Global-objective step: plain FedAvg local training.
      ws.set_flat_params(rx_global);
      client->train(ws, fed_.cfg().local, fed_.train_rng(c, r));
      updates[idx] = ws.flat_params();
      weights[idx] = static_cast<double>(client->n_train());

      // (2) Personal-objective step: prox-regularized training of v_i
      // toward the global model it just downloaded. Stays on-device: no
      // extra comm, and it counts even when the global-step upload is lost.
      ws.set_flat_params(vi);
      client->train(ws, prox_opts, fed_.train_rng(c, 0xD177000 + r),
                    &rx_global);
      vi = ws.flat_params();
    });
    delivered[idx] = fed_.deliver_update(c, r, updates[idx], p) ? 1 : 0;
  });

  std::vector<std::pair<const std::vector<float>*, double>> entries;
  for (std::size_t i = 0; i < updates.size(); ++i) {
    if (delivered[i]) entries.emplace_back(&updates[i], weights[i]);
  }
  if (entries.empty()) {
    OBS_COUNTER_ADD("fault.empty_rounds", 1);
    return;  // global model carries forward; personal models kept training
  }
  global_ = weighted_average(entries);
}

double Ditto::evaluate_all() {
  return fed_.average_local_accuracy(
      [this](std::size_t i) -> const std::vector<float>& {
        return personal_.get(i);
      });
}

void Ditto::save_state(util::BinaryWriter& w) const {
  w.write_f32_vec(global_);
  personal_.save(w);
}

void Ditto::load_state(util::BinaryReader& r) {
  global_ = r.read_f32_vec();
  // Resume skips setup(): rebuild the θ0 default before loading slots.
  personal_.reset(fed_.n_clients(), fed_.init_params());
  personal_.load(r);
}

}  // namespace fedclust::fl
