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

  void forward_into(const Tensor& x, Tensor& y, bool train) override;
  void backward_into(const Tensor& grad_out, Tensor& grad_in) override;
  std::vector<Parameter*> parameters() override { return body_->parameters(); }
  std::string name() const override { return name_; }

 private:
  std::unique_ptr<Module> body_;
  std::string name_;
  // Mask of the final ReLU.
  std::vector<std::uint8_t> relu_mask_;
  tensor::Shape cached_shape_;
  // The gradient through the final ReLU, which feeds both the body's
  // backward and the skip connection.
  Tensor relu_grad_;
};

}  // namespace fedclust::nn
