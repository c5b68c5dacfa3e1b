#pragma once

// Elementwise activation layers.

#include <cstdint>

#include "nn/module.h"

namespace fedclust::nn {

// x[i] = x[i] > 0 ? x[i] : +0.0f, so NaN and -0.0 become +0.0 (std::max
// would keep both). With a mask, mask[i] = 1 where x[i] > 0, else 0.
// Branch-free, so it vectorizes at the baseline ISA.
void relu_inplace(float* x, std::size_t n, std::uint8_t* mask);

// g[i] = mask[i] ? g[i] : +0.0f: an unconditional select, never a
// conditional store.
void relu_backward_inplace(float* g, std::size_t n, const std::uint8_t* mask);

class ReLU : public Module {
 public:
  Tensor forward(const Tensor& x, bool train) override;
  Tensor backward(const Tensor& grad_out) override;
  std::string name() const override { return "relu"; }

 private:
  // 1 where the input was positive; reused as the backward mask.
  std::vector<std::uint8_t> mask_;
  tensor::Shape cached_shape_;
};

}  // namespace fedclust::nn
