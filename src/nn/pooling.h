#pragma once

// Spatial pooling layers over NCHW tensors.

#include "nn/module.h"

namespace fedclust::nn {

class MaxPool2d : public Module {
 public:
  explicit MaxPool2d(std::size_t kernel, std::size_t stride = 0);

  Tensor forward(const Tensor& x, bool train) override;
  Tensor backward(const Tensor& grad_out) override;
  std::string name() const override { return "maxpool"; }

 private:
  std::size_t kernel_;
  std::size_t stride_;
  // Flat input index of the argmax for every output element.
  std::vector<std::size_t> argmax_;
  tensor::Shape cached_in_shape_;
  tensor::Shape cached_out_shape_;
};

// Averages each channel plane to a single value: (N, C, H, W) -> (N, C).
class GlobalAvgPool2d : public Module {
 public:
  Tensor forward(const Tensor& x, bool train) override;
  Tensor backward(const Tensor& grad_out) override;
  std::string name() const override { return "gap"; }

 private:
  tensor::Shape cached_in_shape_;
};

// (N, C, H, W) -> (N, C*H*W); inverse on backward.
class Flatten : public Module {
 public:
  Tensor forward(const Tensor& x, bool train) override;
  Tensor backward(const Tensor& grad_out) override;
  std::string name() const override { return "flatten"; }

 private:
  tensor::Shape cached_in_shape_;
};

}  // namespace fedclust::nn
