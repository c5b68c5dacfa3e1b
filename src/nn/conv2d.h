#pragma once

// 2-D convolution over NCHW tensors, lowered to GEMM via im2col.

#include "nn/module.h"

namespace fedclust::nn {

class Conv2d : public Module {
 public:
  Conv2d(std::size_t in_channels, std::size_t out_channels,
         std::size_t kernel, std::size_t stride = 1, std::size_t pad = 0,
         std::string name = "conv");

  Tensor forward(const Tensor& x, bool train) override;
  Tensor backward(const Tensor& grad_out) override;
  std::vector<Parameter*> parameters() override { return {&weight_, &bias_}; }
  std::string name() const override { return name_; }

  std::size_t in_channels() const { return in_c_; }
  std::size_t out_channels() const { return out_c_; }
  std::size_t kernel() const { return kernel_; }

  Parameter& weight() { return weight_; }

 private:
  std::size_t in_c_;
  std::size_t out_c_;
  std::size_t kernel_;
  std::size_t stride_;
  std::size_t pad_;
  std::string name_;
  Parameter weight_;  // (out_c, in_c * k * k)
  Parameter bias_;    // (out_c)

  // Forward caches for backward: the per-sample column matrices and the
  // input geometry. Only a training forward writes them.
  Tensor cached_cols_;  // (N, in_c*k*k, OH*OW) flattened
  std::size_t cached_n_ = 0;
  std::size_t cached_h_ = 0;
  std::size_t cached_w_ = 0;
};

}  // namespace fedclust::nn
