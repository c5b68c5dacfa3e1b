#include "data/partition.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

namespace fedclust::data {

namespace {

// δ-fraction of the label space, at least 1 label.
std::size_t labels_per_client(double skew_fraction, std::size_t num_classes) {
  const auto l = static_cast<std::size_t>(
      std::lround(skew_fraction * static_cast<double>(num_classes)));
  return std::max<std::size_t>(1, std::min(l, num_classes));
}

void weights_from_label_set(std::span<const std::size_t> label_set,
                            std::span<double> w) {
  std::ranges::fill(w, 0.0);
  for (const std::size_t l : label_set) {
    w[l] = 1.0 / static_cast<double>(label_set.size());
  }
}

void fill_dataset(Dataset& ds, std::size_t n,
                  const std::vector<double>& label_weights,
                  const SyntheticGenerator& gen, util::Rng& rng) {
  ds.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto cls = static_cast<std::int64_t>(rng.categorical(label_weights));
    ds.add(gen.sample(cls, rng), cls);
  }
}

}  // namespace

PartitionPlan::PartitionPlan(SyntheticSpec spec, FederatedConfig cfg,
                             std::uint64_t seed)
    : spec_(std::move(spec)),
      cfg_(std::move(cfg)),
      seed_(seed),
      gen_(spec_, seed) {
  if (cfg_.n_clients == 0) {
    throw std::invalid_argument("make_federated_data: zero clients");
  }
  if (cfg_.partition != "skew" && cfg_.partition != "dirichlet" &&
      cfg_.partition != "iid") {
    throw std::invalid_argument("make_federated_data: unknown partition " +
                                cfg_.partition);
  }
  if (cfg_.quantity_skew_factor < 1.0) {
    throw std::invalid_argument(
        "make_federated_data: quantity_skew_factor must be >= 1");
  }

  const util::Rng root(seed_ ^ 0x5eedf00dULL);
  util::Rng assign_rng = root.split(0);

  // Pre-draw the label-set pool when ground-truth groups are requested.
  if (cfg_.label_set_pool > 0) {
    for (std::size_t g = 0; g < cfg_.label_set_pool; ++g) {
      if (cfg_.partition == "dirichlet") {
        pool_weights_.push_back(
            assign_rng.dirichlet(cfg_.dirichlet_alpha, spec_.num_classes));
      } else if (cfg_.partition == "skew") {
        const auto set = assign_rng.sample_without_replacement(
            spec_.num_classes,
            labels_per_client(cfg_.skew_fraction, spec_.num_classes));
        std::vector<double> w(spec_.num_classes);
        weights_from_label_set(set, w);
        pool_weights_.push_back(std::move(w));
      } else {  // iid pool degenerates to uniform
        pool_weights_.emplace_back(
            spec_.num_classes, 1.0 / static_cast<double>(spec_.num_classes));
      }
    }
  }

  // One assignment-stream sweep: draws only, no sample synthesis. Costs
  // O(n) RNG draws once; each later sketch(i) replays at most one stride.
  ClientSketch scratch = blank_sketch();
  std::vector<std::size_t> labels = label_scratch();
  checkpoints_.reserve(cfg_.n_clients / kCheckpointStride + 1);
  for (std::size_t i = 0; i < cfg_.n_clients; ++i) {
    if (i % kCheckpointStride == 0) checkpoints_.push_back(assign_rng);
    draw(assign_rng, i, /*keep=*/false, labels, scratch);
  }
}

ClientSketch PartitionPlan::blank_sketch() const {
  ClientSketch sk;
  sk.label_weights.resize(spec_.num_classes);
  return sk;
}

std::vector<std::size_t> PartitionPlan::label_scratch() const {
  if (cfg_.label_set_pool > 0 || cfg_.partition != "skew") return {};
  return std::vector<std::size_t>(
      labels_per_client(cfg_.skew_fraction, spec_.num_classes));
}

void PartitionPlan::draw(util::Rng& rng, std::size_t i, bool keep,
                         std::span<std::size_t> labels,
                         ClientSketch& sk) const {
  const std::span<double> weights(sk.label_weights);
  if (keep) {
    sk.group_id = i;
    sk.n_train = cfg_.train_per_client;
    sk.n_test = cfg_.test_per_client;
  }
  if (cfg_.label_set_pool > 0) {
    const auto g = static_cast<std::size_t>(
        rng.randint(0, static_cast<std::int64_t>(cfg_.label_set_pool)));
    if (keep) {
      sk.group_id = g;
      std::ranges::copy(pool_weights_[g], weights.begin());
    }
  } else if (cfg_.partition == "skew") {
    rng.sample_without_replacement(spec_.num_classes, labels);
    if (keep) weights_from_label_set(labels, weights);
  } else if (cfg_.partition == "dirichlet") {
    // The gammas are drawn into sk either way; a kept client's are its
    // weights.
    rng.dirichlet(cfg_.dirichlet_alpha, weights);
  } else if (keep) {  // iid
    std::ranges::fill(weights, 1.0 / static_cast<double>(spec_.num_classes));
  }

  if (cfg_.quantity_skew_factor > 1.0) {
    // Log-uniform draw keeps the geometric mean at train_per_client.
    const double lo = std::log(1.0 / cfg_.quantity_skew_factor);
    const double hi = std::log(cfg_.quantity_skew_factor);
    const double log_scale = rng.uniform(lo, hi);
    if (keep) {
      sk.n_train = std::max<std::size_t>(
          1, static_cast<std::size_t>(
                 std::lround(static_cast<double>(cfg_.train_per_client) *
                             std::exp(log_scale))));
    }
  }
}

ClientSketch PartitionPlan::sketch(std::size_t i) const {
  if (i >= cfg_.n_clients) {
    throw std::out_of_range("PartitionPlan::sketch: client out of range");
  }
  ClientSketch sk = blank_sketch();
  std::vector<std::size_t> labels = label_scratch();
  util::Rng rng = checkpoints_[i / kCheckpointStride];
  for (std::size_t j = (i / kCheckpointStride) * kCheckpointStride; j < i;
       ++j) {
    draw(rng, j, /*keep=*/false, labels, sk);
  }
  draw(rng, i, /*keep=*/true, labels, sk);
  return sk;
}

ClientData PartitionPlan::materialize_from(ClientSketch sketch,
                                           std::size_t i) const {
  ClientData cd{Dataset(spec_.channels, spec_.hw, spec_.num_classes),
                Dataset(spec_.channels, spec_.hw, spec_.num_classes),
                std::move(sketch.label_weights), sketch.group_id};
  // Per-client stream: client data never depends on other clients.
  util::Rng data_rng = util::Rng(seed_ ^ 0x5eedf00dULL).split(1000 + i);
  fill_dataset(cd.train, sketch.n_train, cd.label_weights, gen_, data_rng);
  fill_dataset(cd.test, sketch.n_test, cd.label_weights, gen_, data_rng);
  return cd;
}

ClientData PartitionPlan::materialize(std::size_t i) const {
  return materialize_from(sketch(i), i);
}

std::vector<ClientData> make_federated_data(const SyntheticSpec& spec,
                                            const FederatedConfig& cfg,
                                            std::uint64_t seed) {
  const PartitionPlan plan(spec, cfg, seed);
  util::Rng assign_rng = plan.checkpoints_.front();
  std::vector<std::size_t> labels = plan.label_scratch();
  std::vector<ClientData> clients;
  clients.reserve(cfg.n_clients);
  for (std::size_t i = 0; i < cfg.n_clients; ++i) {
    ClientSketch sk = plan.blank_sketch();
    plan.draw(assign_rng, i, /*keep=*/true, labels, sk);
    clients.push_back(plan.materialize_from(std::move(sk), i));
  }
  return clients;
}

std::vector<std::size_t> group_ids(const std::vector<ClientData>& clients) {
  std::vector<std::size_t> ids;
  ids.reserve(clients.size());
  for (const auto& c : clients) ids.push_back(c.group_id);
  return ids;
}

}  // namespace fedclust::data
