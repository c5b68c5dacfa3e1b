#include "nn/linear.h"

#include <stdexcept>

#include "tensor/gemm.h"

namespace fedclust::nn {

Linear::Linear(std::size_t in_features, std::size_t out_features,
               std::string name)
    : in_(in_features),
      out_(out_features),
      name_(std::move(name)),
      weight_(name_ + ".weight", Tensor({out_features, in_features})),
      bias_(name_ + ".bias", Tensor({out_features})) {}

void Linear::forward_into(const Tensor& x, Tensor& y, bool train) {
  if (x.ndim() != 2 || x.dim(1) != in_) {
    throw std::invalid_argument(name_ + ": expected input (N, " +
                                std::to_string(in_) + "), got " +
                                x.shape_str());
  }
  const std::size_t n = x.dim(0);
  // y = x (N,in) * W^T (in,out)
  y.resize({n, out_});
  tensor::gemm(tensor::Trans::kNo, tensor::Trans::kYes, n, out_, in_,
               x.data(), in_, weight_.value.data(), in_,
               tensor::Accumulate::kNo, y.data(), out_);
  for (std::size_t i = 0; i < n; ++i) {
    float* row = y.data() + i * out_;
    for (std::size_t j = 0; j < out_; ++j) row[j] += bias_.value[j];
  }
  if (train) cached_input_ = x;
}

void Linear::backward_into(const Tensor& grad_out, Tensor& grad_in) {
  const std::size_t n = grad_out.dim(0);
  if (cached_input_.empty() || grad_out.dim(1) != out_ ||
      cached_input_.dim(0) != n) {
    throw std::logic_error(name_ + ": backward without matching forward");
  }
  // dW += gy^T x : (out, N) x (N, in)
  tensor::gemm(tensor::Trans::kYes, tensor::Trans::kNo, out_, in_, n,
               grad_out.data(), out_, cached_input_.data(), in_,
               tensor::Accumulate::kYes, weight_.grad.data(), in_);
  // db += column sums of gy
  for (std::size_t i = 0; i < n; ++i) {
    const float* row = grad_out.data() + i * out_;
    for (std::size_t j = 0; j < out_; ++j) bias_.grad[j] += row[j];
  }
  // dx = gy W : (N, out) x (out, in)
  grad_in.resize({n, in_});
  tensor::gemm(tensor::Trans::kNo, tensor::Trans::kNo, n, in_, out_,
               grad_out.data(), out_, weight_.value.data(), in_,
               tensor::Accumulate::kNo, grad_in.data(), in_);
}

}  // namespace fedclust::nn
