#pragma once

// Identity residual block: y = relu(body(x) + x).
//
// The body must preserve the input shape (the ResNet-9 recipe only uses
// identity-skip blocks; downsampling happens in the conv+pool stem between
// blocks).

#include <cstdint>
#include <memory>

#include "nn/module.h"

namespace fedclust::nn {

class ResidualBlock : public Module {
 public:
  explicit ResidualBlock(std::unique_ptr<Module> body,
                         std::string name = "res");

  Tensor forward(const Tensor& x, bool train) override;
  Tensor backward(const Tensor& grad_out) override;
  std::vector<Parameter*> parameters() override { return body_->parameters(); }
  std::string name() const override { return name_; }

 private:
  std::unique_ptr<Module> body_;
  std::string name_;
  // Mask of the final ReLU.
  std::vector<std::uint8_t> relu_mask_;
  tensor::Shape cached_shape_;
};

}  // namespace fedclust::nn
