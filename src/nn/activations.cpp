#include "nn/activations.h"

#include <stdexcept>

namespace fedclust::nn {

void relu_inplace(float* x, std::size_t n, std::uint8_t* mask) {
  float* __restrict xp = x;
  if (mask == nullptr) {
    for (std::size_t i = 0; i < n; ++i) xp[i] = xp[i] > 0.0f ? xp[i] : 0.0f;
    return;
  }
  std::uint8_t* __restrict mp = mask;
  for (std::size_t i = 0; i < n; ++i) {
    const bool pos = xp[i] > 0.0f;
    mp[i] = pos;
    xp[i] = pos ? xp[i] : 0.0f;
  }
}

void relu_backward_inplace(float* g, std::size_t n, const std::uint8_t* mask) {
  float* __restrict gp = g;
  const std::uint8_t* __restrict mp = mask;
  for (std::size_t i = 0; i < n; ++i) gp[i] = mp[i] ? gp[i] : 0.0f;
}

Tensor ReLU::forward(const Tensor& x, bool train) {
  Tensor y = x;
  if (train) {
    mask_.resize(x.size());
    cached_shape_ = x.shape();
  }
  relu_inplace(y.data(), y.size(), train ? mask_.data() : nullptr);
  return y;
}

Tensor ReLU::backward(const Tensor& grad_out) {
  if (mask_.size() != grad_out.size() || grad_out.shape() != cached_shape_) {
    throw std::logic_error("relu: backward without matching forward");
  }
  Tensor g = grad_out;
  relu_backward_inplace(g.data(), g.size(), mask_.data());
  return g;
}

}  // namespace fedclust::nn
