#include "fl/local_only.h"

#include "fl/parallel_round.h"

namespace fedclust::fl {

LocalOnly::LocalOnly(Federation& fed) : FlAlgorithm(fed) {}

void LocalOnly::setup() {
  // All clients start from θ0, like every other method — the sparse
  // default, so only clients that actually train ever own a slot.
  params_.reset(fed_.n_clients(), fed_.init_params());
}

void LocalOnly::round(std::size_t r) {
  // Sampled clients run their local epochs on their own weights; the
  // sampling keeps the total training effort per client comparable to the
  // federated baselines. No bytes move, and each task touches only its own
  // client's params_ slot — materialized sequentially here so the parallel
  // fan-out never mutates the map.
  const auto sampled = fed_.sample_round(r);
  for (const std::size_t c : sampled) params_.touch(c);
  ParallelRoundRunner runner(fed_);
  runner.for_each_client(
      sampled, [&](std::size_t, std::size_t c, nn::Model& ws) {
        std::vector<float>& slot = params_.touch(c);
        ws.set_flat_params(slot);
        runner.journal_train(r, c, [&] {
          fed_.client(c)->train(ws, fed_.cfg().local, fed_.train_rng(c, r));
        });
        slot = ws.flat_params();
      });
}

double LocalOnly::evaluate_all() {
  return fed_.average_local_accuracy(
      [this](std::size_t i) -> const std::vector<float>& {
        return params_.get(i);
      });
}

void LocalOnly::save_state(util::BinaryWriter& w) const { params_.save(w); }

void LocalOnly::load_state(util::BinaryReader& r) {
  // Resume skips setup(): rebuild the θ0 default before loading slots.
  params_.reset(fed_.n_clients(), fed_.init_params());
  params_.load(r);
}

}  // namespace fedclust::fl
