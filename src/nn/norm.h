#pragma once

// Group normalization (Wu & He, 2018).
//
// Chosen over batch norm deliberately: BN carries running statistics that
// are themselves client state, which muddies FL weight averaging and the
// paper's weight-distance arguments. GN is stateless beyond gamma/beta and
// is the standard substitution in non-IID FL (its statistics are per-sample,
// so tiny local batches don't destabilize training).

#include "nn/module.h"

namespace fedclust::nn {

class GroupNorm : public Module {
 public:
  // channels must be divisible by groups.
  GroupNorm(std::size_t groups, std::size_t channels, float eps = 1e-5f,
            std::string name = "gn");

  void forward_into(const Tensor& x, Tensor& y, bool train) override;
  void backward_into(const Tensor& grad_out, Tensor& grad_in) override;
  std::vector<Parameter*> parameters() override { return {&gamma_, &beta_}; }
  std::string name() const override { return name_; }

 private:
  std::size_t groups_;
  std::size_t channels_;
  float eps_;
  std::string name_;
  Parameter gamma_;  // (C)
  Parameter beta_;   // (C)

  // A training forward's normalized input and inverse standard deviations
  // (per sample and group), for backward.
  Tensor cached_xhat_;
  std::vector<float> cached_inv_std_;
  tensor::Shape cached_shape_;
};

}  // namespace fedclust::nn
