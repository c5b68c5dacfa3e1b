#include "fl/pacfl.h"

#include <stdexcept>

#include "clustering/hierarchical.h"
#include "fl/cluster_common.h"
#include "fl/landmark.h"
#include "linalg/principal_angles.h"
#include "linalg/svd.h"
#include "obs/journal.h"
#include "obs/trace.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace fedclust::fl {

Pacfl::Pacfl(Federation& fed) : FlAlgorithm(fed) {}

tensor::Tensor Pacfl::subspace_of(const data::Dataset& ds) const {
  const std::size_t p = fed_.cfg().algo.pacfl_p;
  const std::size_t d = ds.image_size();

  // Concatenate top-p principal vectors of each present class, then
  // orthonormalize the union into one basis.
  std::vector<tensor::Tensor> pieces;
  std::size_t total_cols = 0;
  for (const auto cls : ds.present_labels()) {
    const auto x = ds.class_matrix(cls, /*max_samples=*/64);
    if (x.dim(1) == 0) continue;
    auto u = linalg::truncated_left_singular(x, p);
    total_cols += u.dim(1);
    pieces.push_back(std::move(u));
  }
  tensor::Tensor basis({d, total_cols});
  std::size_t col = 0;
  for (const auto& u : pieces) {
    for (std::size_t j = 0; j < u.dim(1); ++j, ++col) {
      for (std::size_t i = 0; i < d; ++i) {
        basis[i * total_cols + col] = u[i * u.dim(1) + j];
      }
    }
  }
  return linalg::orthonormalize_columns(basis);
}

void Pacfl::setup() {
  const std::size_t n = fed_.n_clients();

  // One-shot subspace exchange. The per-client SVDs are independent (no
  // shared workspace involved), so they fan out directly; uploads are
  // accounted afterwards in id order. Each basis travels as a subspace
  // envelope; the server clusters on the wire-decoded copies (bit-exact
  // for raw_f32). Setup stays fault-free in both modes (round key 0).
  const auto subspace_batch = [&](const std::vector<std::size_t>& ids) {
    std::vector<tensor::Tensor> out(ids.size());
    util::parallel_for(0, ids.size(), [&](std::size_t i) {
      OBS_SPAN_ARG("client.subspace", ids[i]);
      out[i] = subspace_of(fed_.client(ids[i])->train_data());
    });
    for (std::size_t i = 0; i < ids.size(); ++i) {
      out[i].vec() = fed_.upload_payload(wire::MessageKind::kSubspace,
                                         out[i].vec(), ids[i], 0);
    }
    return out;
  };

  // Principal-angle dendrogram through the landmark sketch (fl/landmark.h):
  // every client is a landmark in exact mode; with --landmarks=L only L
  // sampled bases are clustered and everyone else streams through
  // nearest-landmark assignment per cache-sized batch. The landmark bases
  // stay resident as the newcomer-matching set.
  const std::vector<std::size_t> ids =
      cluster_landmarks(fed_.cfg().seed, n, fed_.cfg().landmarks);
  landmark_ids_ = ids.size() < n ? ids : std::vector<std::size_t>{};
  const std::size_t batch = fed_.cfg().client_cache > 0
                                ? fed_.cfg().client_cache
                                : 256;  // the client store's default
  LandmarkCutPolicy cut;
  cut.k = fed_.cfg().algo.pacfl_k;
  cut.threshold = fed_.cfg().algo.pacfl_threshold_deg;
  LandmarkCluster<tensor::Tensor> sketch(
      n, ids, batch, subspace_batch, linalg::principal_angle_distance_deg);
  assignment_ = sketch.run(cut).assignment;
  bases_ = sketch.take_landmark_features();

  const std::size_t k = clustering::num_clusters(assignment_);
  cluster_models_.assign(k, fed_.init_params());

  // Journal the one-shot verdict for the whole population (round 0) so
  // run reports see the full partition (fedclust_report §Clustering).
  if (obs::EventJournal::enabled()) {
    for (std::size_t c = 0; c < n; ++c) {
      OBS_JOURNAL(0, c, kCluster, assignment_[c]);
    }
  }
  FC_LOG_DEBUG << "PACFL formed " << k << " clusters"
               << (landmark_ids_.empty() ? "" : " (landmark sketch)");
}

void Pacfl::round(std::size_t r) {
  cluster_fedavg_round(fed_, r, assignment_, cluster_models_);
}

double Pacfl::evaluate_all() {
  return cluster_average_accuracy(fed_, assignment_, cluster_models_);
}

std::size_t Pacfl::assign_newcomer(const SimClient& newcomer) {
  if (bases_.empty()) {
    throw std::logic_error("Pacfl::assign_newcomer before setup");
  }
  tensor::Tensor basis = subspace_of(newcomer.train_data());
  basis.vec() = fed_.upload_payload(wire::MessageKind::kSubspace, basis.vec(),
                                    assignment_.size(), 0);
  const std::size_t best_idx =
      nearest_landmark(basis, bases_, linalg::principal_angle_distance_deg);
  // In landmark mode bases_[i] belongs to landmark_ids_[i]; in exact mode
  // it belongs to client i.
  const std::size_t best_client =
      landmark_ids_.empty() ? best_idx : landmark_ids_[best_idx];
  return assignment_[best_client];
}

void Pacfl::save_state(util::BinaryWriter& w) const {
  write_index_vec(w, assignment_);
  write_nested_f32(w, cluster_models_);
  w.write_u64(bases_.size());
  for (const tensor::Tensor& b : bases_) write_tensor(w, b);
  write_index_vec(w, landmark_ids_);
}

void Pacfl::load_state(util::BinaryReader& r) {
  assignment_ = read_index_vec(r);
  cluster_models_ = read_nested_f32(r);
  // The smallest tensor record is two u64s: rank 0 and an empty data count.
  const std::uint64_t n = r.read_count(2 * sizeof(std::uint64_t));
  bases_.clear();
  bases_.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) bases_.push_back(read_tensor(r));
  landmark_ids_ = read_index_vec(r);
  validate_landmark_ids(landmark_ids_, assignment_.size(), "PACFL snapshot");
  if (!landmark_ids_.empty() && bases_.size() != landmark_ids_.size()) {
    throw std::runtime_error(
        "PACFL snapshot: landmark ids disagree with stored bases");
  }
}

}  // namespace fedclust::fl
