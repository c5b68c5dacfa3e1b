#pragma once

// Fully connected layer: y = x W^T + b with x of shape (N, in).

#include "nn/module.h"

namespace fedclust::nn {

class Linear : public Module {
 public:
  Linear(std::size_t in_features, std::size_t out_features,
         std::string name = "fc");

  void forward_into(const Tensor& x, Tensor& y, bool train) override;
  void backward_into(const Tensor& grad_out, Tensor& grad_in) override;
  std::vector<Parameter*> parameters() override { return {&weight_, &bias_}; }
  std::string name() const override { return name_; }

  std::size_t in_features() const { return in_; }
  std::size_t out_features() const { return out_; }

  Parameter& weight() { return weight_; }
  Parameter& bias() { return bias_; }

 private:
  std::size_t in_;
  std::size_t out_;
  std::string name_;
  Parameter weight_;  // (out, in)
  Parameter bias_;    // (out)
  Tensor cached_input_;  // the training forward's x, for dW
};

}  // namespace fedclust::nn
