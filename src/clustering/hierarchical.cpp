#include "clustering/hierarchical.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>

#include "clustering/distance.h"

namespace fedclust::clustering {

Linkage linkage_from_string(const std::string& s) {
  if (s == "single") return Linkage::kSingle;
  if (s == "complete") return Linkage::kComplete;
  if (s == "average") return Linkage::kAverage;
  if (s == "ward") return Linkage::kWard;
  throw std::invalid_argument("unknown linkage: " + s);
}

namespace {

// Lance–Williams update: distance from the merged cluster (a ∪ b) to c.
float lw_update(Linkage linkage, float dac, float dbc, float dab,
                std::size_t na, std::size_t nb, std::size_t nc) {
  switch (linkage) {
    case Linkage::kSingle:
      return std::min(dac, dbc);
    case Linkage::kComplete:
      return std::max(dac, dbc);
    case Linkage::kAverage: {
      const float fa = static_cast<float>(na) / static_cast<float>(na + nb);
      return fa * dac + (1.0f - fa) * dbc;
    }
    case Linkage::kWard: {
      const float n_abc = static_cast<float>(na + nb + nc);
      const float t = (static_cast<float>(na + nc) * dac * dac +
                       static_cast<float>(nb + nc) * dbc * dbc -
                       static_cast<float>(nc) * dab * dab) /
                      n_abc;
      return std::sqrt(std::max(t, 0.0f));
    }
  }
  throw std::logic_error("lw_update: unreachable");
}

}  // namespace

Dendrogram agglomerative(const tensor::Tensor& dist, Linkage linkage) {
  validate_distance_matrix(dist);
  const std::size_t n = dist.dim(0);
  Dendrogram dendro;
  dendro.n_leaves = n;
  if (n <= 1) return dendro;

  // active[i]: current cluster id occupying row i (or SIZE_MAX when merged
  // away); sizes track member counts for the LW formulas.
  std::vector<double> d(n * n);
  for (std::size_t i = 0; i < n * n; ++i) d[i] = dist[i];
  std::vector<std::size_t> id(n);
  std::iota(id.begin(), id.end(), 0);
  std::vector<std::size_t> size(n, 1);
  std::vector<bool> alive(n, true);

  std::size_t next_id = n;
  for (std::size_t step = 0; step + 1 < n; ++step) {
    // Find the closest live pair.
    double best = std::numeric_limits<double>::infinity();
    std::size_t bi = 0;
    std::size_t bj = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (!alive[i]) continue;
      for (std::size_t j = i + 1; j < n; ++j) {
        if (!alive[j]) continue;
        if (d[i * n + j] < best) {
          best = d[i * n + j];
          bi = i;
          bj = j;
        }
      }
    }

    dendro.merges.push_back(
        {id[bi], id[bj], static_cast<float>(best)});

    // Merge bj into bi's row and update distances to the rest.
    const float dab = static_cast<float>(d[bi * n + bj]);
    for (std::size_t c = 0; c < n; ++c) {
      if (!alive[c] || c == bi || c == bj) continue;
      const float updated = lw_update(
          linkage, static_cast<float>(d[bi * n + c]),
          static_cast<float>(d[bj * n + c]), dab, size[bi], size[bj],
          size[c]);
      d[bi * n + c] = updated;
      d[c * n + bi] = updated;
    }
    size[bi] += size[bj];
    alive[bj] = false;
    id[bi] = next_id++;
  }
  return dendro;
}

namespace {

class UnionFind {
 public:
  explicit UnionFind(std::size_t n) : parent_(n) {
    std::iota(parent_.begin(), parent_.end(), 0);
  }
  std::size_t find(std::size_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }
  void unite(std::size_t a, std::size_t b) { parent_[find(a)] = find(b); }

 private:
  std::vector<std::size_t> parent_;
};

// Replays merges satisfying `take`, then compacts roots to labels 0..k-1.
std::vector<std::size_t> replay(
    const Dendrogram& dendro,
    const std::function<bool(std::size_t, const Dendrogram::Merge&)>& take) {
  const std::size_t n = dendro.n_leaves;
  UnionFind uf(n + dendro.merges.size());
  std::size_t next_id = n;
  for (std::size_t i = 0; i < dendro.merges.size(); ++i, ++next_id) {
    const auto& m = dendro.merges[i];
    // The merged node's id must always alias its children so later merges
    // referring to it resolve; we only *count* it as a real merge if taken.
    if (take(i, m)) {
      uf.unite(m.a, m.b);
    }
    uf.unite(next_id, m.a);  // new node points at the (possibly un-merged) a
    if (take(i, m)) {
      uf.unite(next_id, m.b);
    }
  }
  std::vector<std::size_t> labels(n);
  std::vector<std::size_t> compact(n + dendro.merges.size(),
                                   std::numeric_limits<std::size_t>::max());
  std::size_t k = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t root = uf.find(i);
    if (compact[root] == std::numeric_limits<std::size_t>::max()) {
      compact[root] = k++;
    }
    labels[i] = compact[root];
  }
  return labels;
}

}  // namespace

std::vector<std::size_t> cut_by_threshold(const Dendrogram& dendro,
                                          float lambda) {
  return replay(dendro, [lambda](std::size_t, const Dendrogram::Merge& m) {
    return m.distance <= lambda;
  });
}

std::vector<std::size_t> cut_to_k(const Dendrogram& dendro, std::size_t k) {
  const std::size_t n = dendro.n_leaves;
  if (n == 0) return {};
  k = std::clamp<std::size_t>(k, 1, n);
  // Applying the first (n - k) merges leaves exactly k clusters. Merges are
  // recorded in nondecreasing-ish linkage order by construction.
  const std::size_t take_count = n - k;
  return replay(dendro, [take_count](std::size_t i,
                                     const Dendrogram::Merge&) {
    return i < take_count;
  });
}

std::size_t num_clusters(const std::vector<std::size_t>& labels) {
  std::size_t k = 0;
  for (const std::size_t l : labels) k = std::max(k, l + 1);
  return labels.empty() ? 0 : k;
}

float gap_threshold(const Dendrogram& dendro, std::size_t min_clusters,
                    std::size_t max_clusters) {
  const std::size_t n = dendro.n_leaves;
  if (n <= 1 || dendro.merges.empty()) return 0.0f;

  // Merge i leaves n - i - 1 clusters if we cut right after it, i.e. a cut
  // between merges i and i+1 yields n - i - 1 clusters. Respect the caller's
  // bounds on the resulting cluster count.
  std::vector<float> d;
  d.reserve(dendro.merges.size());
  for (const auto& m : dendro.merges) d.push_back(m.distance);
  std::sort(d.begin(), d.end());

  float best_gap = -1.0f;
  float best_threshold = d.back() + 1.0f;  // default: one cluster
  for (std::size_t i = 0; i + 1 < d.size(); ++i) {
    const std::size_t clusters = n - i - 1;
    if (clusters < min_clusters || clusters > max_clusters) continue;
    const float gap = d[i + 1] - d[i];
    if (gap > best_gap) {
      best_gap = gap;
      best_threshold = 0.5f * (d[i] + d[i + 1]);
    }
  }
  if (best_gap <= 0.0f) {
    // No admissible or informative gap: cut above everything.
    return d.back() + 1.0f;
  }
  return best_threshold;
}

Cut cut(const Dendrogram& dendro, std::size_t k, float threshold) {
  if (k > 0) return {cut_to_k(dendro, k), -1.0f};
  const float lambda = threshold < 0.0f ? gap_threshold(dendro) : threshold;
  return {cut_by_threshold(dendro, lambda), lambda};
}

}  // namespace fedclust::clustering
