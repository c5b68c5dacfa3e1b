#pragma once

// Pairwise proximity matrices. FedClust's server builds an m x m matrix of
// L2 distances between the clients' uploaded final-layer weights (Eq. 3 of
// the paper); cosine distance serves the CFL baseline.

#include <functional>
#include <vector>

#include "tensor/packed_rows.h"
#include "tensor/tensor.h"

namespace fedclust::clustering {

// Symmetric (n, n) matrix with zero diagonal from a pairwise callback.
tensor::Tensor distance_matrix(
    std::size_t n,
    const std::function<float(std::size_t, std::size_t)>& dist);

// ||v_p - v_q||_2 over a set of equal-length vectors: entry (i, j) is
// tensor::l2_distance(v_i, v_j) for i < j, bit for bit, mirrored below the
// diagonal. Packs the vectors and scores each row i against rows > i
// through the kernel table's l2_distances.
tensor::Tensor l2_distance_matrix(
    const std::vector<std::vector<float>>& vectors);
// Same matrix over rows that are already packed.
tensor::Tensor l2_distance_matrix(const tensor::PackedRows& rows);

// 1 - cosine_similarity.
tensor::Tensor cosine_distance_matrix(
    const std::vector<std::vector<float>>& vectors);

// Validates symmetry / zero diagonal / non-negativity; throws otherwise.
void validate_distance_matrix(const tensor::Tensor& d);

}  // namespace fedclust::clustering
