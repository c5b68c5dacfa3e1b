#pragma once

// Non-IID federated partitioning in the two regimes the paper evaluates
// (following Li et al. [19]):
//
//  * label skew (δ%): each client owns a random δ-fraction of the label
//    space and draws its samples uniformly from those labels;
//  * Dirichlet(α): each client's label distribution is a Dir(α) draw, so
//    small α concentrates each client on one or two labels.
//
// Because data is synthesized per client (DESIGN.md §1), "partitioning"
// here decides per-client label distributions and sample counts, then asks
// the generator for exactly those samples.

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "data/dataset.h"
#include "data/synthetic.h"
#include "util/fields.h"

namespace fedclust::data {

struct FederatedConfig {
  std::size_t n_clients = 100;
  std::size_t train_per_client = 50;
  std::size_t test_per_client = 20;
  // Quantity skew (Li et al.'s third non-IID axis): per-client train sizes
  // are drawn log-uniformly from [train_per_client / f, train_per_client
  // * f] with f = quantity_skew_factor. 1.0 (default) = uniform sizes.
  double quantity_skew_factor = 1.0;

  std::string partition = "skew";  // "skew" | "dirichlet" | "iid"
  double skew_fraction = 0.2;      // δ for label skew
  double dirichlet_alpha = 0.1;    // α for Dirichlet

  // 0 = each client draws its own label set / distribution independently
  // (paper-faithful). g > 0 = label sets are drawn from a pool of g distinct
  // sets, giving g ground-truth client groups — used by clustering-quality
  // tests and ablations where ARI against a known partition is needed.
  std::size_t label_set_pool = 0;
};

// FederatedConfig's fields in canonical order (util/fields.h).
template <util::ConfigRef<FederatedConfig> F, class V>
constexpr void for_each_field(F& f, V&& v) {
  v({"n_clients"}, f.n_clients);
  v({"train_per_client"}, f.train_per_client);
  v({"test_per_client"}, f.test_per_client);
  v({"quantity_skew_factor"}, f.quantity_skew_factor);
  v({"partition"}, f.partition);
  v({"skew_fraction"}, f.skew_fraction);
  v({"dirichlet_alpha"}, f.dirichlet_alpha);
  v({"label_set_pool"}, f.label_set_pool);
}
static_assert(util::field_list_complete<FederatedConfig>);

struct ClientData {
  Dataset train;
  Dataset test;
  // Label sampling distribution this client was assigned.
  std::vector<double> label_weights;
  // Ground-truth group if label_set_pool > 0, else the client's own index.
  std::size_t group_id = 0;
};

// Assignment-only view of one client: everything the partitioner decided
// about client i before any sample was synthesized.
struct ClientSketch {
  std::vector<double> label_weights;
  std::size_t n_train = 0;
  std::size_t n_test = 0;
  std::size_t group_id = 0;
};

// The partition as a pure function of (spec, cfg, seed): client i's data can
// be regenerated on demand, bit-identical to the eager path, without holding
// any other client in memory.
//
// The assignment stream (label sets / Dirichlet draws / quantity skew) is
// inherently sequential — client i's draws follow client i-1's — so the
// constructor replays it once (RNG draws only, no sample synthesis) and
// checkpoints the generator every kCheckpointStride clients. sketch(i) then
// replays at most kCheckpointStride clients from the nearest checkpoint;
// materialize(i) additionally synthesizes the samples from the per-client
// data stream, which was independent per client all along.
class PartitionPlan {
 public:
  PartitionPlan(SyntheticSpec spec, FederatedConfig cfg, std::uint64_t seed);

  std::size_t n_clients() const { return cfg_.n_clients; }
  const SyntheticSpec& spec() const { return spec_; }
  const FederatedConfig& cfg() const { return cfg_; }

  // Assignment decisions for client i (cheap: no sample synthesis).
  ClientSketch sketch(std::size_t i) const;
  // Full client data, bit-identical to make_federated_data(...)[i].
  ClientData materialize(std::size_t i) const;

  static constexpr std::size_t kCheckpointStride = 1024;

 private:
  // The eager path iterates the assignment stream sequentially through the
  // same draw/materialize_from pair, so eager and on-demand clients are
  // bit-identical by construction.
  friend std::vector<ClientData> make_federated_data(const SyntheticSpec& spec,
                                                     const FederatedConfig& cfg,
                                                     std::uint64_t seed);

  ClientData materialize_from(ClientSketch sketch, std::size_t i) const;

  // Client i's assignment draws from `rng` (positioned at the start of
  // client i's draws), advancing it past them: the same draws whether the
  // client is kept or only replayed past on the way to a later one. Only
  // a kept client's decisions are written to `sk`; the label weights are
  // built for it alone. `sk` and `labels` come from blank_sketch() and
  // label_scratch(), so a draw allocates nothing.
  void draw(util::Rng& rng, std::size_t i, bool keep,
            std::span<std::size_t> labels, ClientSketch& sk) const;
  // A sketch with room for num_classes label weights, and the skew label
  // set's scratch (empty in the other modes).
  ClientSketch blank_sketch() const;
  std::vector<std::size_t> label_scratch() const;

  SyntheticSpec spec_;
  FederatedConfig cfg_;
  std::uint64_t seed_;
  SyntheticGenerator gen_;
  std::vector<std::vector<double>> pool_weights_;
  // checkpoints_[k] = assignment stream positioned at client k*stride.
  std::vector<util::Rng> checkpoints_;
};

// Deterministic in (spec, cfg, seed).
std::vector<ClientData> make_federated_data(const SyntheticSpec& spec,
                                            const FederatedConfig& cfg,
                                            std::uint64_t seed);

// Ground-truth group ids (client -> group), for clustering-quality metrics.
std::vector<std::size_t> group_ids(const std::vector<ClientData>& clients);

}  // namespace fedclust::data
