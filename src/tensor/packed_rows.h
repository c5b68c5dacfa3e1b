#pragma once

// A read-only set of equal-length float rows, packed once for the kernel
// table's l2_distances entry (tensor/simd.h): blocks of kBlock rows,
// feature-major, the last block padded with zero rows that no query
// reports. The layout does not depend on the ISA, so one packing serves
// whatever table FEDCLUST_ISA selects. FedClust packs each landmark set
// (and its newcomer centroids) once and scores every query against it.

#include <cstddef>
#include <vector>

#include "tensor/simd.h"

namespace fedclust::tensor {

class PackedRows {
 public:
  static constexpr std::size_t kBlock = simd::kL2Block;

  PackedRows() = default;
  // Throws std::invalid_argument if the rows differ in length.
  explicit PackedRows(const std::vector<std::vector<float>>& rows);

  std::size_t size() const { return rows_; }
  std::size_t dim() const { return dim_; }

  // out[t - first] = tensor::l2_distance(q, row t), bit for bit, for t in
  // [first, size()). q holds dim() floats; first must be a multiple of
  // kBlock (throws std::invalid_argument otherwise).
  void l2_distances(const float* q, std::size_t first, float* out) const;

  // Copies row t (dim() floats) into out.
  void copy_row(std::size_t t, float* out) const;

 private:
  std::size_t rows_ = 0;
  std::size_t dim_ = 0;
  std::vector<float> data_;
};

}  // namespace fedclust::tensor
