#include "nn/residual.h"

#include <stdexcept>

#include "nn/activations.h"
#include "tensor/tensor_ops.h"

namespace fedclust::nn {

ResidualBlock::ResidualBlock(std::unique_ptr<Module> body, std::string name)
    : body_(std::move(body)), name_(std::move(name)) {}

Tensor ResidualBlock::forward(const Tensor& x, bool train) {
  Tensor y = body_->forward(x, train);
  if (y.shape() != x.shape()) {
    throw std::invalid_argument(
        name_ + ": body must preserve shape (got " + y.shape_str() +
        " from " + x.shape_str() + ")");
  }
  tensor::add_(y, x);
  if (train) {
    relu_mask_.resize(y.size());
    cached_shape_ = y.shape();
  }
  relu_inplace(y.data(), y.size(), train ? relu_mask_.data() : nullptr);
  return y;
}

Tensor ResidualBlock::backward(const Tensor& grad_out) {
  if (relu_mask_.size() != grad_out.size() ||
      grad_out.shape() != cached_shape_) {
    throw std::logic_error(name_ + ": backward without matching forward");
  }
  // Gradient through the post-add ReLU feeds both branches.
  Tensor g = grad_out;
  relu_backward_inplace(g.data(), g.size(), relu_mask_.data());
  Tensor gx = body_->backward(g);
  tensor::add_(gx, g);  // skip connection
  return gx;
}

}  // namespace fedclust::nn
