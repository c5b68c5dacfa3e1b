#pragma once

// Softmax cross-entropy over class logits.

#include <cstdint>
#include <vector>

#include "tensor/tensor.h"

namespace fedclust::nn {

struct LossResult {
  float loss = 0.0f;            // mean over the batch
  tensor::Tensor grad_logits;   // dLoss/dlogits, (N, K)
};

// logits (N, K), labels in [0, K). Writes the loss and its gradient into
// `out`, reusing out.grad_logits' storage. The gradient already includes
// the 1/N batch-mean factor.
void softmax_cross_entropy(const tensor::Tensor& logits,
                           const std::vector<std::int64_t>& labels,
                           LossResult& out);
LossResult softmax_cross_entropy(const tensor::Tensor& logits,
                                 const std::vector<std::int64_t>& labels);

// Convenience eval metric: fraction of rows whose argmax equals the label.
double accuracy(const tensor::Tensor& logits,
                const std::vector<std::int64_t>& labels);

}  // namespace fedclust::nn
