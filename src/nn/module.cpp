#include "nn/module.h"

#include "tensor/tensor_ops.h"

namespace fedclust::nn {

void Module::zero_grad() {
  for (Parameter* p : parameters()) tensor::fill_(p->grad, 0.0f);
}

Sequential& Sequential::add(std::unique_ptr<Module> m) {
  children_.push_back(std::move(m));
  return *this;
}

Tensor Sequential::forward(const Tensor& x, bool train) {
  Tensor out = x;
  for (auto& child : children_) out = child->forward(out, train);
  return out;
}

Tensor Sequential::backward(const Tensor& grad_out) {
  Tensor g = grad_out;
  for (auto it = children_.rbegin(); it != children_.rend(); ++it) {
    g = (*it)->backward(g);
  }
  return g;
}

void Sequential::set_needs_input_grad(bool on) {
  Module::set_needs_input_grad(on);
  if (!children_.empty()) children_.front()->set_needs_input_grad(on);
}

std::vector<Parameter*> Sequential::parameters() {
  std::vector<Parameter*> out;
  for (auto& child : children_) {
    for (Parameter* p : child->parameters()) out.push_back(p);
  }
  return out;
}

}  // namespace fedclust::nn
