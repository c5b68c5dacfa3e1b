#include "core/fedclust.h"

#include <memory>
#include <stdexcept>

#include "clustering/hierarchical.h"
#include "fl/cluster_common.h"
#include "fl/landmark.h"
#include "fl/parallel_round.h"
#include "obs/journal.h"
#include "obs/trace.h"
#include "tensor/tensor_ops.h"
#include "util/logging.h"

namespace fedclust::core {

FedClust::FedClust(fl::Federation& fed) : FlAlgorithm(fed) {}

std::vector<float> FedClust::partial_weights_after_warmup(
    nn::Model& ws, const std::vector<float>& start,
    const fl::SimClient& client, util::Rng rng) {
  ws.set_flat_params(start);
  fl::LocalTrainOptions warmup = fed_.cfg().local;
  warmup.epochs = std::max<std::size_t>(1, fed_.cfg().algo.fedclust_init_epochs);
  if (fed_.cfg().algo.fedclust_init_lr > 0.0f) {
    warmup.lr = fed_.cfg().algo.fedclust_init_lr;
  }
  client.train(ws, warmup, rng);
  return ws.classifier_params();
}

void FedClust::setup() {
  const std::size_t n = fed_.n_clients();
  const std::size_t p = fed_.model_size();

  // Round 0: broadcast θ0 to every available client; each sends back only
  // the updated final-layer weights. The warmups are the expensive part of
  // setup (every client trains), so they run client-parallel.
  // θ0 is serialized once and every client warms up from the wire-decoded
  // broadcast; partial weights travel back in checksummed warmup envelopes.
  // Every warmup uses the same 0xFEDC0000 out-of-band round key, so a given
  // client's warmup draw — and its uploaded partial weights — are identical
  // in exact and landmark modes.
  const std::vector<float> rx_init = fed_.through_wire(
      fl::wire::MessageKind::kModelPull, fed_.init_params(),
      fl::wire::kServerSender, 0xFEDC0000);
  const auto warmup_batch = [&](const std::vector<std::size_t>& ids) {
    std::vector<std::vector<float>> out(ids.size());
    fl::ParallelRoundRunner runner(fed_);
    runner.for_each_index(ids.size(), [&](std::size_t i, nn::Model& ws) {
      const std::size_t c = ids[i];
      OBS_SPAN_ARG("client.warmup", c);
      fed_.bill_download(p);
      out[i] = partial_weights_after_warmup(
          ws, rx_init, *fed_.client(c), fed_.train_rng(c, 0xFEDC0000));
      out[i] = fed_.upload_payload(fl::wire::MessageKind::kWarmupWeights,
                                   out[i], c, 0xFEDC0000);
    });
    for (std::size_t i = 0; i < ids.size(); ++i) {
      fl::require_finite_warmup("FedClust", ids[i], out[i]);
    }
    return out;
  };

  // Proximity (Eq. 3; cosine available for the metric ablation). L2 runs
  // through the packed kernel; any other metric through its pairwise
  // callback.
  const std::string& metric = fed_.cfg().algo.fedclust_distance;
  std::unique_ptr<fl::LandmarkProximity<std::vector<float>>> proximity;
  if (metric == "l2") {
    proximity = std::make_unique<fl::L2Proximity>();
  } else if (metric == "cosine") {
    proximity = std::make_unique<fl::PairwiseProximity<std::vector<float>>>(
        [](const std::vector<float>& a, const std::vector<float>& b) {
          return 1.0f - tensor::cosine_similarity(a, b);
        });
  } else {
    throw std::invalid_argument("FedClust: unknown distance " + metric);
  }

  // Proximity matrix M and one-shot HC(M, λ) through the landmark sketch
  // (fl/landmark.h). Exact mode makes every client a landmark: the full
  // N×N matrix, nothing streamed. With --landmarks=L the dendrogram sees
  // only L sampled clients and everyone else streams through
  // nearest-landmark assignment per cache-sized batch, so non-landmark
  // partials are never all resident.
  const std::vector<std::size_t> ids =
      fl::cluster_landmarks(fed_.cfg().seed, n, fed_.cfg().landmarks);
  landmark_ids_ = ids.size() < n ? ids : std::vector<std::size_t>{};
  const std::size_t batch = fed_.cfg().client_cache > 0
                                ? fed_.cfg().client_cache
                                : 256;  // the client store's default
  fl::LandmarkCutPolicy cut;
  cut.linkage =
      clustering::linkage_from_string(fed_.cfg().algo.fedclust_linkage);
  // A fixed cluster count (sweeps / fixed-k comparisons) overrides λ.
  cut.k = fed_.cfg().algo.fedclust_k;
  cut.threshold = fed_.cfg().algo.fedclust_lambda;
  fl::LandmarkCluster<std::vector<float>> sketch(n, ids, batch, warmup_batch,
                                                 std::move(proximity));
  fl::LandmarkResult res = sketch.run(cut);
  report_.proximity = std::move(res.proximity);
  report_.assignment = std::move(res.assignment);
  report_.n_clusters = res.n_clusters;
  report_.effective_lambda = res.effective_lambda;

  {
    // Per-cluster partial-weight centroids for newcomer matching, over the
    // landmarks' partials: every client's in exact mode, the cluster's
    // defining sample otherwise. The partials are freed at the end of this
    // block, before the cluster models are allocated.
    const std::vector<std::vector<float>> partials =
        sketch.take_landmark_features();
    cluster_partials_.assign(
        report_.n_clusters, std::vector<float>(partials.front().size(), 0.0f));
    std::vector<std::size_t> counts(report_.n_clusters, 0);
    for (std::size_t i = 0; i < ids.size(); ++i) {
      const std::size_t k = report_.assignment[ids[i]];
      tensor::axpy(1.0f, partials[i], cluster_partials_[k]);
      ++counts[k];
    }
    for (std::size_t k = 0; k < report_.n_clusters; ++k) {
      tensor::scale_(cluster_partials_[k],
                     1.0f / static_cast<float>(counts[k]));
    }
    packed_partials_ = tensor::PackedRows(cluster_partials_);
  }

  // Every cluster model starts from θ0 (Algorithm 1, line 7).
  cluster_models_.assign(report_.n_clusters, fed_.init_params());

  // Journal the one-shot verdict for the whole population (round 0) so
  // run reports see the full partition, not just sampled cohorts — the
  // input to fedclust_report's clustering-agreement section.
  if (obs::EventJournal::enabled()) {
    for (std::size_t c = 0; c < n; ++c) {
      OBS_JOURNAL(0, c, kCluster, report_.assignment[c]);
    }
  }

  FC_LOG_DEBUG << "FedClust one-shot clustering: " << report_.n_clusters
               << " clusters at lambda=" << fed_.cfg().algo.fedclust_lambda
               << (landmark_ids_.empty() ? "" : " (landmark sketch)");
}

void FedClust::round(std::size_t r) {
  fl::cluster_fedavg_round(fed_, r, report_.assignment, cluster_models_);
}

double FedClust::evaluate_all() {
  return fl::cluster_average_accuracy(fed_, report_.assignment,
                                      cluster_models_);
}

std::size_t FedClust::assign_newcomer(const fl::SimClient& newcomer,
                                      util::Rng rng) {
  if (cluster_partials_.empty()) {
    throw std::logic_error("FedClust::assign_newcomer before setup");
  }
  // The newcomer receives θ0, trains briefly, and uploads partial weights —
  // both legs through the wire.
  const std::vector<float> rx_init =
      fed_.pull_model(fed_.init_params(), 0xFEDC0001, fed_.model_size());
  const auto partial = fed_.upload_payload(
      fl::wire::MessageKind::kWarmupWeights,
      partial_weights_after_warmup(fed_.workspace(), rx_init, newcomer, rng),
      fed_.n_clients(), 0xFEDC0001);
  fl::require_finite_warmup("FedClust", fed_.n_clients(), partial);

  // Eq. 4: nearest stored cluster centroid in L2.
  const std::size_t best_k = fl::nearest_landmark(partial, packed_partials_);
  // The verdict travels back as a cluster-assignment envelope. Assignment
  // messages were modeled byte-free before the wire layer, so the exchange
  // is serialized and CRC-verified but not billed.
  const std::vector<float> verdict = fed_.through_wire(
      fl::wire::MessageKind::kClusterAssign,
      std::vector<float>{static_cast<float>(best_k)}, fl::wire::kServerSender,
      0xFEDC0001);
  return static_cast<std::size_t>(verdict.front());
}

void FedClust::save_state(util::BinaryWriter& w) const {
  fl::write_tensor(w, report_.proximity);
  fl::write_index_vec(w, report_.assignment);
  w.write_u64(report_.n_clusters);
  w.write_f32(report_.effective_lambda);
  fl::write_nested_f32(w, cluster_models_);
  fl::write_nested_f32(w, cluster_partials_);
  fl::write_index_vec(w, landmark_ids_);
}

void FedClust::load_state(util::BinaryReader& r) {
  report_.proximity = fl::read_tensor(r);
  report_.assignment = fl::read_index_vec(r);
  report_.n_clusters = static_cast<std::size_t>(r.read_u64());
  report_.effective_lambda = r.read_f32();
  cluster_models_ = fl::read_nested_f32(r);
  cluster_partials_ = fl::read_nested_f32(r);
  packed_partials_ = tensor::PackedRows(cluster_partials_);
  landmark_ids_ = fl::read_index_vec(r);
  fl::validate_landmark_ids(landmark_ids_, report_.assignment.size(),
                            "FedClust snapshot");
}

}  // namespace fedclust::core
