#include "tensor/packed_rows.h"

#include <stdexcept>

namespace fedclust::tensor {

PackedRows::PackedRows(const std::vector<std::vector<float>>& rows)
    : rows_(rows.size()), dim_(rows.empty() ? 0 : rows.front().size()) {
  const std::size_t blocks = (rows_ + kBlock - 1) / kBlock;
  data_.assign(blocks * dim_ * kBlock, 0.0f);
  for (std::size_t t = 0; t < rows_; ++t) {
    if (rows[t].size() != dim_) {
      throw std::invalid_argument("PackedRows: rows differ in length");
    }
    float* dst = data_.data() + (t / kBlock) * dim_ * kBlock + t % kBlock;
    for (std::size_t i = 0; i < dim_; ++i) dst[i * kBlock] = rows[t][i];
  }
}

void PackedRows::l2_distances(const float* q, std::size_t first,
                              float* out) const {
  if (first % kBlock != 0) {
    throw std::invalid_argument("PackedRows: first row not block-aligned");
  }
  if (first >= rows_) return;
  // `first` rows are first / kBlock whole blocks of dim_ * kBlock.
  simd::kernels().l2_distances(q, dim_, data_.data() + first * dim_,
                               rows_ - first, out);
}

void PackedRows::copy_row(std::size_t t, float* out) const {
  const float* src =
      data_.data() + (t / kBlock) * dim_ * kBlock + t % kBlock;
  for (std::size_t i = 0; i < dim_; ++i) out[i] = src[i * kBlock];
}

}  // namespace fedclust::tensor
