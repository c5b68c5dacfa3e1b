#pragma once

// Landmark-sketch clustering — the one-shot FedClust/PACFL setup, exact or
// at million-client scale.
//
// The setup computes one feature per client (warmup classifier weights for
// FedClust, a subspace basis for PACFL), a proximity matrix over them, and
// a hierarchical dendrogram. Exact clustering is the sketch with every
// client a landmark: the full O(N²) matrix and nothing left to stream. At
// population scale the dendrogram — not the data — is the binding
// constraint, so --landmarks=L instead:
//
//   1. deterministically samples L landmark clients from a dedicated
//      salted RNG stream (pure in the root seed; mirrored by a snapshot
//      RNG probe so resumed binaries cannot silently drift),
//   2. runs the expensive feature computation, the L×L proximity matrix,
//      and the hierarchical dendrogram only on the landmarks,
//   3. streams the remaining N−L clients through nearest-landmark
//      assignment in O(N·L): features for non-landmarks are computed,
//      assigned, and freed per cache-sized batch, never all resident.
//
// Every step is a pure function of (seed, client), so results are
// bit-identical across thread counts and batch sizes; ties in the
// nearest-landmark search break to the lowest landmark index.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <stdexcept>
#include <vector>

#include "clustering/distance.h"
#include "clustering/hierarchical.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "tensor/packed_rows.h"
#include "tensor/tensor.h"
#include "util/thread_pool.h"

namespace fedclust::fl {

// Stream salt for landmark-id sampling. snapshot.cpp's rng_probes_for
// probes it, so a resumed binary whose split lands elsewhere is rejected
// instead of silently re-clustering differently.
inline constexpr std::uint64_t kLandmarkStream = 0x1A7DB4A2C5EEDULL;

// The landmark count actually in effect: 0 when `landmarks` is 0 or covers
// the whole population (both mean "exact clustering").
std::size_t effective_landmarks(std::size_t n_clients, std::size_t landmarks);

// The landmark set the one-shot clustering runs on: every client, in id
// order, when effective_landmarks(n_clients, landmarks) is 0 (exact
// clustering), else sample_landmarks(seed, n_clients, landmarks).
std::vector<std::size_t> cluster_landmarks(std::uint64_t seed,
                                           std::size_t n_clients,
                                           std::size_t landmarks);

// min(L, n) distinct landmark ids drawn from the kLandmarkStream split of
// the root seed, sorted ascending. Pure in (seed, n_clients, landmarks).
std::vector<std::size_t> sample_landmarks(std::uint64_t seed,
                                          std::size_t n_clients,
                                          std::size_t landmarks);

// Ascending non-landmark ids chunked into batches of at most batch_size —
// the bounded-memory unit of the streaming assignment pass. batch_size 0
// falls back to one batch per client.
std::vector<std::vector<std::size_t>> landmark_assign_batches(
    std::size_t n_clients, const std::vector<std::size_t>& landmark_ids,
    std::size_t batch_size);

// How the L×L dendrogram is built and cut (see clustering::cut).
struct LandmarkCutPolicy {
  clustering::Linkage linkage = clustering::Linkage::kAverage;
  std::size_t k = 0;        // > 0: cut to exactly k clusters
  float threshold = -1.0f;  // k == 0: cut threshold; < 0 = largest gap
};

struct LandmarkResult {
  tensor::Tensor proximity;             // (L, L) landmark proximity
  std::vector<std::size_t> assignment;  // client -> cluster, size N
  std::size_t n_clusters = 0;
  // Threshold actually used on the landmark dendrogram (-1 for fixed k).
  float effective_lambda = 0.0f;
};

// The first index whose distance is strictly below every earlier one:
// ascending index with strict <, so the lowest index wins a tie and a NaN
// distance never wins (index 0 when none is below +inf).
template <typename DistAt>
std::size_t first_nearest(std::size_t n, const DistAt& dist_at) {
  float best = std::numeric_limits<float>::infinity();
  std::size_t best_j = 0;
  for (std::size_t j = 0; j < n; ++j) {
    const float d = dist_at(j);
    if (d < best) {
      best = d;
      best_j = j;
    }
  }
  return best_j;
}

// Index of the nearest landmark feature under `dist`, ties broken to the
// lowest index (strict < keeps the first minimum).
template <typename Feature, typename Dist>
std::size_t nearest_landmark(const Feature& f,
                             const std::vector<Feature>& landmark_features,
                             const Dist& dist) {
  return first_nearest(landmark_features.size(), [&](std::size_t j) {
    return dist(f, landmark_features[j]);
  });
}

// The same search in L2 over packed landmarks: every distance comes from
// the kernel table's l2_distances, so the result is bit-identical to
// nearest_landmark(f, features, tensor::l2_distance). FedClust's newcomer
// match (Eq. 4) uses it. Throws std::invalid_argument if f.size() differs
// from the landmarks' dim().
std::size_t nearest_landmark(const std::vector<float>& f,
                             const tensor::PackedRows& landmarks);

// How the sketch measures proximity. index() receives the landmark
// features once per sketch (they outlive every later call); matrix() is
// then the L×L proximity (symmetric, zero diagonal, entry (i, j) the
// distance from landmark i to landmark j for i < j) and nearest(f) the
// landmark index nearest_landmark's search picks.
template <typename Feature>
class LandmarkProximity {
 public:
  virtual ~LandmarkProximity() = default;
  virtual void index(const std::vector<Feature>& landmarks) = 0;
  virtual tensor::Tensor matrix() const = 0;
  virtual std::size_t nearest(const Feature& f) const = 0;
};

// Any distance through a pairwise callback, one call per pair: PACFL's
// principal angles, FedClust's cosine metric, tests' custom distances.
template <typename Feature>
class PairwiseProximity final : public LandmarkProximity<Feature> {
 public:
  using DistanceFn = std::function<float(const Feature&, const Feature&)>;

  explicit PairwiseProximity(DistanceFn distance)
      : distance_(std::move(distance)) {}

  void index(const std::vector<Feature>& landmarks) override {
    landmarks_ = &landmarks;
  }
  tensor::Tensor matrix() const override {
    return clustering::distance_matrix(
        landmarks_->size(), [&](std::size_t i, std::size_t j) {
          return distance_((*landmarks_)[i], (*landmarks_)[j]);
        });
  }
  std::size_t nearest(const Feature& f) const override {
    return nearest_landmark(f, *landmarks_, distance_);
  }

 private:
  DistanceFn distance_;
  const std::vector<Feature>* landmarks_ = nullptr;
};

// L2 between flat features (FedClust's Eq. 3): the landmarks are packed
// once, and the matrix and every search run through the kernel table's
// l2_distances — bit-identical to PairwiseProximity over
// tensor::l2_distance.
class L2Proximity final : public LandmarkProximity<std::vector<float>> {
 public:
  void index(const std::vector<std::vector<float>>& landmarks) override {
    packed_ = tensor::PackedRows(landmarks);
  }
  tensor::Tensor matrix() const override {
    return clustering::l2_distance_matrix(packed_);
  }
  std::size_t nearest(const std::vector<float>& f) const override {
    return nearest_landmark(f, packed_);
  }

 private:
  tensor::PackedRows packed_;
};

// The sketch itself, generic over the per-client feature (FedClust:
// flat classifier weights; PACFL: a subspace basis tensor). landmark_ids
// must be sorted ascending, 0 < L <= n_clients; L == n_clients is exact
// clustering.
//
//   features(ids) -> one feature per id, in id order. Must be pure per id
//     (the same id yields the same feature under any batching), which is
//     what makes the result independent of batch_size and thread count.
//   proximity -> the L×L matrix and the nearest-landmark search; a plain
//     distance(a, b) callback makes a PairwiseProximity.
template <typename Feature>
class LandmarkCluster {
 public:
  using FeatureBatchFn =
      std::function<std::vector<Feature>(const std::vector<std::size_t>&)>;
  using DistanceFn = typename PairwiseProximity<Feature>::DistanceFn;

  LandmarkCluster(std::size_t n_clients,
                  std::vector<std::size_t> landmark_ids,
                  std::size_t batch_size, FeatureBatchFn features,
                  std::unique_ptr<LandmarkProximity<Feature>> proximity)
      : n_clients_(n_clients),
        landmark_ids_(std::move(landmark_ids)),
        batch_size_(batch_size),
        features_(std::move(features)),
        proximity_(std::move(proximity)) {
    if (landmark_ids_.empty() || landmark_ids_.size() > n_clients_) {
      throw std::invalid_argument(
          "LandmarkCluster: need 0 < L <= n_clients landmarks");
    }
  }

  LandmarkCluster(std::size_t n_clients,
                  std::vector<std::size_t> landmark_ids,
                  std::size_t batch_size, FeatureBatchFn features,
                  DistanceFn distance)
      : LandmarkCluster(
            n_clients, std::move(landmark_ids), batch_size,
            std::move(features),
            std::make_unique<PairwiseProximity<Feature>>(std::move(distance))) {
  }

  // The landmark features, in landmark_ids order, moved out to the caller
  // (L of them — the sketch's memory budget); valid once after run().
  std::vector<Feature> take_landmark_features() {
    return std::move(landmark_features_);
  }

  LandmarkResult run(const LandmarkCutPolicy& cut) {
    LandmarkResult out;
    const std::size_t L = landmark_ids_.size();

    // 1. Landmark features + L×L proximity + dendrogram cut. The feature
    // callback owns the expensive per-client work (and its parallelism).
    {
      OBS_SPAN("landmark.warmup");
      landmark_features_ = features_(landmark_ids_);
    }
    OBS_SPAN("landmark.cluster");
    {
      OBS_SPAN("landmark.proximity");
      proximity_->index(landmark_features_);
      out.proximity = proximity_->matrix();
    }
    const clustering::Cut landmark_cut = clustering::cut(
        clustering::agglomerative(out.proximity, cut.linkage), cut.k,
        cut.threshold);
    out.effective_lambda = landmark_cut.lambda;
    out.n_clusters = clustering::num_clusters(landmark_cut.labels);

    out.assignment.assign(n_clients_, 0);
    for (std::size_t i = 0; i < L; ++i) {
      out.assignment[landmark_ids_[i]] = landmark_cut.labels[i];
    }

    // 2. Stream the rest: per batch, compute features, assign each client
    // to its nearest landmark's cluster, free the batch. Assignment slots
    // are indexed and the indexed landmarks are read-only, so the parallel
    // fan-out is order-independent.
    const auto batches =
        landmark_assign_batches(n_clients_, landmark_ids_, batch_size_);
    std::size_t assigned = 0;
    for (const auto& batch : batches) {
      OBS_SPAN("landmark.assign_batch");
      const std::vector<Feature> feats = features_(batch);
      OBS_SPAN_ARG("landmark.nearest", batch.size());
      util::parallel_for(0, batch.size(), [&](std::size_t i) {
        out.assignment[batch[i]] =
            landmark_cut.labels[proximity_->nearest(feats[i])];
      });
      assigned += batch.size();
    }

    // Sketch telemetry only: exact runs report all-zero landmark counters.
    if (L < n_clients_) {
      OBS_COUNTER_ADD("cluster.landmark.count", L);
      OBS_COUNTER_ADD("cluster.landmark.clusters", out.n_clusters);
      OBS_COUNTER_ADD("cluster.landmark.batches", batches.size());
      OBS_COUNTER_ADD("cluster.landmark.assigned", assigned);
    }
    return out;
  }

 private:
  std::size_t n_clients_;
  std::vector<std::size_t> landmark_ids_;
  std::size_t batch_size_;
  FeatureBatchFn features_;
  std::unique_ptr<LandmarkProximity<Feature>> proximity_;
  std::vector<Feature> landmark_features_;
};

// Shared load_state validation for the landmark-id snapshot section:
// strictly increasing ids below n_clients, count below n_clients (empty =
// exact mode). Throws std::runtime_error naming `what` on violation.
void validate_landmark_ids(const std::vector<std::size_t>& ids,
                           std::size_t n_clients, const char* what);

}  // namespace fedclust::fl
