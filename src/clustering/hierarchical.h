#pragma once

// Agglomerative hierarchical clustering with Lance–Williams linkage updates
// — the one-shot grouping step at the heart of FedClust (Algorithm 1,
// line 6): HC(M, λ) on the server's proximity matrix.
//
// Naive O(n^3) merging is intentional: n is the client count (~100s), where
// simplicity beats a priority-queue implementation.

#include <cstddef>
#include <string>
#include <vector>

#include "tensor/tensor.h"

namespace fedclust::clustering {

enum class Linkage { kSingle, kComplete, kAverage, kWard };

Linkage linkage_from_string(const std::string& s);

// Full merge history. Leaf ids are 0..n-1; the i-th merge creates id n+i.
struct Dendrogram {
  struct Merge {
    std::size_t a;
    std::size_t b;
    float distance;  // linkage distance at which a and b merged
  };
  std::size_t n_leaves = 0;
  std::vector<Merge> merges;  // exactly n_leaves - 1 entries
};

// dist must be a valid distance matrix (see validate_distance_matrix).
Dendrogram agglomerative(const tensor::Tensor& dist,
                         Linkage linkage = Linkage::kAverage);

// Applies every merge with distance <= lambda; returns cluster labels
// compacted to 0..k-1 (in order of first appearance by leaf index).
std::vector<std::size_t> cut_by_threshold(const Dendrogram& dendro,
                                          float lambda);

// Stops when exactly k clusters remain (k clamped to [1, n]).
std::vector<std::size_t> cut_to_k(const Dendrogram& dendro, std::size_t k);

std::size_t num_clusters(const std::vector<std::size_t>& labels);

// Data-driven threshold selection (the paper leaves λ as a user knob and
// names automating it as future work; this implements the natural largest-
// gap heuristic): sort the merge distances and place the threshold in the
// middle of the widest gap between consecutive merges, considering only
// cuts that yield a cluster count in [min_clusters, max_clusters]. Falls
// back to "everything in one cluster" when no gap exists (n <= 1 or all
// merges equidistant).
float gap_threshold(const Dendrogram& dendro, std::size_t min_clusters = 2,
                    std::size_t max_clusters = 16);

// A dendrogram cut and the threshold it applied.
struct Cut {
  std::vector<std::size_t> labels;  // as cut_by_threshold / cut_to_k
  float lambda = -1.0f;             // threshold used; -1 for a fixed k
};

// The one-shot clustering's cut, HC(M, λ): exactly k clusters when k > 0,
// else at `threshold`, or at gap_threshold(dendro) when `threshold` < 0.
Cut cut(const Dendrogram& dendro, std::size_t k, float threshold);

}  // namespace fedclust::clustering
