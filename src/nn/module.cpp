#include "nn/module.h"

#include "tensor/tensor_ops.h"

namespace fedclust::nn {

Tensor Module::forward(const Tensor& x, bool train) {
  Tensor y;
  forward_into(x, y, train);
  return y;
}

Tensor Module::backward(const Tensor& grad_out) {
  Tensor grad_in;
  backward_into(grad_out, grad_in);
  return grad_in;
}

void Module::zero_grad() {
  for (Parameter* p : parameters()) tensor::fill_(p->grad, 0.0f);
}

Sequential& Sequential::add(std::unique_ptr<Module> m) {
  children_.push_back(std::move(m));
  return *this;
}

void Sequential::forward_into(const Tensor& x, Tensor& y, bool train) {
  if (children_.empty()) {
    y = x;
    return;
  }
  const Tensor* in = &x;
  for (std::size_t i = 0; i < children_.size(); ++i) {
    Tensor& out = i + 1 == children_.size() ? y : bufs_[i % 2];
    children_[i]->forward_into(*in, out, train);
    in = &out;
  }
}

void Sequential::backward_into(const Tensor& grad_out, Tensor& grad_in) {
  if (children_.empty()) {
    grad_in = grad_out;
    return;
  }
  const Tensor* g = &grad_out;
  for (std::size_t i = children_.size(); i-- > 0;) {
    Tensor& out = i == 0 ? grad_in : bufs_[i % 2];
    children_[i]->backward_into(*g, out);
    g = &out;
  }
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
