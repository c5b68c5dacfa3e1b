#pragma once

// Elementwise activation layers.

#include <cstdint>

#include "nn/module.h"

namespace fedclust::nn {

// y[i] = x[i] > 0 ? x[i] : +0.0f, so NaN and -0.0 become +0.0 (std::max
// would keep both). With a mask, mask[i] = 1 where x[i] > 0, else 0.
// Branch-free, so it vectorizes at the baseline ISA. y may be x (in place).
void relu(const float* x, float* y, std::size_t n, std::uint8_t* mask);

// g_in[i] = mask[i] ? g[i] : +0.0f: an unconditional select, never a
// conditional store. g_in and g do not overlap.
void relu_backward(const float* g, float* g_in, std::size_t n,
                   const std::uint8_t* mask);

class ReLU : public Module {
 public:
  void forward_into(const Tensor& x, Tensor& y, bool train) override;
  void backward_into(const Tensor& grad_out, Tensor& grad_in) override;
  std::string name() const override { return "relu"; }

 private:
  // 1 where the input was positive; reused as the backward mask.
  std::vector<std::uint8_t> mask_;
  tensor::Shape cached_shape_;
};

}  // namespace fedclust::nn
