#include "fl/lg_fedavg.h"

#include <algorithm>
#include <stdexcept>

#include "fl/parallel_round.h"
#include "obs/metrics.h"

namespace fedclust::fl {

LgFedAvg::LgFedAvg(Federation& fed) : FlAlgorithm(fed) {}

void LgFedAvg::setup() {
  const auto& layout = fed_.workspace().param_layout();
  const std::size_t n_global = fed_.cfg().algo.lg_global_params;
  if (n_global == 0 || n_global > layout.size()) {
    throw std::invalid_argument("LG: lg_global_params out of range");
  }
  global_offset_ = layout[layout.size() - n_global].offset;

  // Paper §5.1: models are initialized randomly (per client) in LG for a
  // fair comparison; only the shared suffix starts in sync.
  params_.clear();
  params_.reserve(fed_.n_clients());
  const auto& init = fed_.init_params();
  global_suffix_.assign(init.begin() +
                            static_cast<std::ptrdiff_t>(global_offset_),
                        init.end());
  for (std::size_t c = 0; c < fed_.n_clients(); ++c) {
    params_.push_back(fed_.make_model(1000 + c).flat_params());
    std::copy(global_suffix_.begin(), global_suffix_.end(),
              params_[c].begin() +
                  static_cast<std::ptrdiff_t>(global_offset_));
  }
}

void LgFedAvg::round(std::size_t r) {
  const auto sampled = fed_.sample_round(r);
  const std::size_t g = fed_.model_size() - global_offset_;

  // Serialize the shared suffix once per round; clients splice in the
  // wire-decoded copy they download.
  const std::vector<float> rx_suffix = fed_.through_wire(
      wire::MessageKind::kModelPull, global_suffix_, wire::kServerSender, r);

  std::vector<std::vector<float>> suffixes(sampled.size());
  std::vector<double> weights(sampled.size());
  std::vector<char> delivered(sampled.size(), 1);

  // Each task touches only its own client's params_[c] slot.
  ParallelRoundRunner runner(fed_);
  runner.for_each_client(sampled, [&](std::size_t idx, std::size_t c,
                                      nn::Model& ws) {
    runner.bill_download(r, c, g);  // only the global layers move
    std::copy(rx_suffix.begin(), rx_suffix.end(),
              params_[c].begin() +
                  static_cast<std::ptrdiff_t>(global_offset_));
    ws.set_flat_params(params_[c]);
    runner.journal_train(r, c, [&] {
      const auto client = fed_.client(c);
      client->train(ws, fed_.cfg().local, fed_.train_rng(c, r));
      weights[idx] = static_cast<double>(client->n_train());
    });
    params_[c] = ws.flat_params();
    suffixes[idx].assign(
        params_[c].begin() + static_cast<std::ptrdiff_t>(global_offset_),
        params_[c].end());
    // Only the shared suffix travels; the local prefix stays on-device, so
    // a lost upload still keeps the client's personal layers trained.
    delivered[idx] = fed_.deliver_update(c, r, suffixes[idx], g) ? 1 : 0;
  });

  std::vector<std::pair<const std::vector<float>*, double>> entries;
  for (std::size_t i = 0; i < suffixes.size(); ++i) {
    if (delivered[i]) entries.emplace_back(&suffixes[i], weights[i]);
  }
  if (entries.empty()) {
    OBS_COUNTER_ADD("fault.empty_rounds", 1);
    return;  // global suffix carries forward unchanged
  }
  global_suffix_ = weighted_average(entries);
}

double LgFedAvg::evaluate_all() {
  // Each client evaluates with its local prefix + current global suffix,
  // matching what it would download next round. Materialized per client up
  // front so the parallel evaluation sweep reads disjoint storage.
  std::vector<std::vector<float>> eval_params(params_);
  for (auto& v : eval_params) {
    std::copy(global_suffix_.begin(), global_suffix_.end(),
              v.begin() + static_cast<std::ptrdiff_t>(global_offset_));
  }
  return fed_.average_local_accuracy(
      [&](std::size_t i) -> const std::vector<float>& {
        return eval_params[i];
      });
}

void LgFedAvg::save_state(util::BinaryWriter& w) const {
  w.write_u64(global_offset_);
  w.write_f32_vec(global_suffix_);
  write_nested_f32(w, params_);
}

void LgFedAvg::load_state(util::BinaryReader& r) {
  global_offset_ = static_cast<std::size_t>(r.read_u64());
  global_suffix_ = r.read_f32_vec();
  params_ = read_nested_f32(r);
}

}  // namespace fedclust::fl
