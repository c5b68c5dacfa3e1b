#include "nn/activations.h"

#include <stdexcept>

namespace fedclust::nn {

void relu(const float* x, float* y, std::size_t n, std::uint8_t* mask) {
  if (mask == nullptr) {
    for (std::size_t i = 0; i < n; ++i) y[i] = x[i] > 0.0f ? x[i] : 0.0f;
    return;
  }
  std::uint8_t* __restrict mp = mask;
  for (std::size_t i = 0; i < n; ++i) {
    const bool pos = x[i] > 0.0f;
    mp[i] = pos;
    y[i] = pos ? x[i] : 0.0f;
  }
}

void relu_backward(const float* g, float* g_in, std::size_t n,
                   const std::uint8_t* mask) {
  const float* __restrict gp = g;
  float* __restrict out = g_in;
  const std::uint8_t* __restrict mp = mask;
  for (std::size_t i = 0; i < n; ++i) {
    // An unconditional load keeps the select a blend, not a branch on the
    // mask.
    const float v = gp[i];
    out[i] = mp[i] ? v : 0.0f;
  }
}

void ReLU::forward_into(const Tensor& x, Tensor& y, bool train) {
  y.resize(x.shape());
  if (train) {
    mask_.resize(x.size());
    cached_shape_ = x.shape();
  }
  relu(x.data(), y.data(), x.size(), train ? mask_.data() : nullptr);
}

void ReLU::backward_into(const Tensor& grad_out, Tensor& grad_in) {
  if (mask_.size() != grad_out.size() || grad_out.shape() != cached_shape_) {
    throw std::logic_error("relu: backward without matching forward");
  }
  grad_in.resize(grad_out.shape());
  relu_backward(grad_out.data(), grad_in.data(), grad_out.size(),
                mask_.data());
}

}  // namespace fedclust::nn
