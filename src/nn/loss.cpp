#include "nn/loss.h"

#include <cmath>
#include <stdexcept>

#include "tensor/tensor_ops.h"

namespace fedclust::nn {

void softmax_cross_entropy(const tensor::Tensor& logits,
                           const std::vector<std::int64_t>& labels,
                           LossResult& result) {
  if (logits.ndim() != 2 || logits.dim(0) != labels.size()) {
    throw std::invalid_argument(
        "softmax_cross_entropy: logits/labels shape mismatch");
  }
  const std::size_t n = logits.dim(0);
  const std::size_t k = logits.dim(1);
  if (n == 0) throw std::invalid_argument("softmax_cross_entropy: empty batch");

  result.grad_logits = logits;
  tensor::softmax_rows_(result.grad_logits);  // now holds probabilities

  double loss = 0.0;
  const float inv_n = 1.0f / static_cast<float>(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto y = labels[i];
    if (y < 0 || static_cast<std::size_t>(y) >= k) {
      throw std::invalid_argument("softmax_cross_entropy: label out of range");
    }
    float* row = result.grad_logits.data() + i * k;
    const float p = std::max(row[static_cast<std::size_t>(y)], 1e-12f);
    loss -= std::log(p);
    // grad = (softmax - onehot) / N
    row[static_cast<std::size_t>(y)] -= 1.0f;
    for (std::size_t j = 0; j < k; ++j) row[j] *= inv_n;
  }
  result.loss = static_cast<float>(loss / static_cast<double>(n));
}

LossResult softmax_cross_entropy(const tensor::Tensor& logits,
                                 const std::vector<std::int64_t>& labels) {
  LossResult result;
  softmax_cross_entropy(logits, labels, result);
  return result;
}

double accuracy(const tensor::Tensor& logits,
                const std::vector<std::int64_t>& labels) {
  if (logits.ndim() != 2 || logits.dim(0) != labels.size()) {
    throw std::invalid_argument("accuracy: logits/labels shape mismatch");
  }
  if (labels.empty()) return 0.0;
  const std::size_t k = logits.dim(1);
  std::size_t correct = 0;
  for (std::size_t i = 0; i < labels.size(); ++i) {
    const std::size_t pred = tensor::argmax(logits.data() + i * k, k);
    if (static_cast<std::int64_t>(pred) == labels[i]) ++correct;
  }
  return static_cast<double>(correct) / static_cast<double>(labels.size());
}

}  // namespace fedclust::nn
