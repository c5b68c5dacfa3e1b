#include "clustering/distance.h"

#include <cmath>
#include <stdexcept>

#include "tensor/tensor_ops.h"

namespace fedclust::clustering {

tensor::Tensor distance_matrix(
    std::size_t n,
    const std::function<float(std::size_t, std::size_t)>& dist) {
  tensor::Tensor d({n, n});
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      const float v = dist(i, j);
      d[i * n + j] = v;
      d[j * n + i] = v;
    }
  }
  return d;
}

tensor::Tensor l2_distance_matrix(
    const std::vector<std::vector<float>>& vectors) {
  return l2_distance_matrix(tensor::PackedRows(vectors));
}

tensor::Tensor l2_distance_matrix(const tensor::PackedRows& rows) {
  const std::size_t n = rows.size();
  tensor::Tensor d({n, n});
  std::vector<float> q(rows.dim());
  std::vector<float> dist(n);
  for (std::size_t i = 0; i + 1 < n; ++i) {
    // Row i as the query, scored from the block that holds row i + 1 on:
    // entry (i, j) is l2_distance(v_i, v_j), as distance_matrix computes it.
    rows.copy_row(i, q.data());
    const std::size_t first =
        (i + 1) / tensor::PackedRows::kBlock * tensor::PackedRows::kBlock;
    rows.l2_distances(q.data(), first, dist.data());
    for (std::size_t j = i + 1; j < n; ++j) {
      d[i * n + j] = dist[j - first];
      d[j * n + i] = dist[j - first];
    }
  }
  return d;
}

tensor::Tensor cosine_distance_matrix(
    const std::vector<std::vector<float>>& vectors) {
  return distance_matrix(vectors.size(), [&](std::size_t i, std::size_t j) {
    return 1.0f - tensor::cosine_similarity(vectors[i], vectors[j]);
  });
}

void validate_distance_matrix(const tensor::Tensor& d) {
  if (d.ndim() != 2 || d.dim(0) != d.dim(1)) {
    throw std::invalid_argument("distance matrix must be square");
  }
  const std::size_t n = d.dim(0);
  for (std::size_t i = 0; i < n; ++i) {
    if (d[i * n + i] != 0.0f) {
      throw std::invalid_argument("distance matrix diagonal must be zero");
    }
    for (std::size_t j = 0; j < n; ++j) {
      if (d[i * n + j] < 0.0f || std::isnan(d[i * n + j])) {
        throw std::invalid_argument("distance matrix entries must be >= 0");
      }
      if (d[i * n + j] != d[j * n + i]) {
        throw std::invalid_argument("distance matrix must be symmetric");
      }
    }
  }
}

}  // namespace fedclust::clustering
