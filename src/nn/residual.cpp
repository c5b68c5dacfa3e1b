#include "nn/residual.h"

#include <stdexcept>

#include "nn/activations.h"
#include "tensor/tensor_ops.h"

namespace fedclust::nn {

ResidualBlock::ResidualBlock(std::unique_ptr<Module> body, std::string name)
    : body_(std::move(body)), name_(std::move(name)) {}

void ResidualBlock::forward_into(const Tensor& x, Tensor& y, bool train) {
  body_->forward_into(x, y, train);
  if (y.shape() != x.shape()) {
    throw std::invalid_argument(
        name_ + ": body must preserve shape (got " + y.shape_str() +
        " from " + x.shape_str() + ")");
  }
  // The skip add and the post-add ReLU run in place on the body's output.
  tensor::add_(y, x);
  if (train) {
    relu_mask_.resize(y.size());
    cached_shape_ = y.shape();
  }
  relu(y.data(), y.data(), y.size(), train ? relu_mask_.data() : nullptr);
}

void ResidualBlock::backward_into(const Tensor& grad_out, Tensor& grad_in) {
  if (relu_mask_.size() != grad_out.size() ||
      grad_out.shape() != cached_shape_) {
    throw std::logic_error(name_ + ": backward without matching forward");
  }
  // Gradient through the post-add ReLU feeds both branches.
  relu_grad_.resize(grad_out.shape());
  relu_backward(grad_out.data(), relu_grad_.data(), grad_out.size(),
                relu_mask_.data());
  body_->backward_into(relu_grad_, grad_in);
  tensor::add_(grad_in, relu_grad_);  // skip connection
}

}  // namespace fedclust::nn
