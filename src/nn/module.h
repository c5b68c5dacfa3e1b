#pragma once

// Layer abstraction with explicit forward/backward passes.
//
// There is deliberately no autograd tape: each Module caches what its own
// backward pass needs during forward(train=true), and backward() consumes
// those caches in reverse order. This keeps memory and control flow fully
// explicit — which matters here, because the FL simulator snapshots, ships,
// and averages raw parameter vectors constantly and must know exactly what
// state a model carries (parameters only; caches are transient).

#include <memory>
#include <string>
#include <vector>

#include "tensor/tensor.h"

namespace fedclust::nn {

using tensor::Tensor;

// A learnable tensor with its gradient accumulator.
struct Parameter {
  std::string name;
  Tensor value;
  Tensor grad;

  Parameter(std::string n, Tensor v)
      : name(std::move(n)), value(std::move(v)), grad(value.shape()) {}
};

class Module {
 public:
  virtual ~Module() = default;

  // train=true caches activations for the subsequent backward(); eval mode
  // is allowed to skip caching.
  virtual Tensor forward(const Tensor& x, bool train) = 0;

  // grad_out is dLoss/dOutput; returns dLoss/dInput and *accumulates* into
  // each parameter's grad. Must be preceded by forward(x, /*train=*/true).
  virtual Tensor backward(const Tensor& grad_out) = 0;

  // Whether backward() must return dLoss/dInput (default on). Model clears
  // it on its first module, whose input gradient nobody reads; a module
  // that honours it (Conv2d) then returns an empty tensor. Parameter
  // gradients never depend on it.
  virtual void set_needs_input_grad(bool on) { needs_input_grad_ = on; }
  bool needs_input_grad() const { return needs_input_grad_; }

  // Non-owning views of this module's parameters (empty for stateless
  // layers). Order is stable and defines the flat-vector layout.
  virtual std::vector<Parameter*> parameters() { return {}; }

  virtual std::string name() const = 0;

  void zero_grad();

 private:
  bool needs_input_grad_ = true;
};

// Runs children in order; backward() runs them in reverse.
class Sequential : public Module {
 public:
  Sequential() = default;

  // Builder-style append. Returns *this for chaining.
  Sequential& add(std::unique_ptr<Module> m);

  template <typename M, typename... Args>
  Sequential& emplace(Args&&... args) {
    return add(std::make_unique<M>(std::forward<Args>(args)...));
  }

  Tensor forward(const Tensor& x, bool train) override;
  Tensor backward(const Tensor& grad_out) override;
  // Only the first child's input gradient is the Sequential's own.
  void set_needs_input_grad(bool on) override;
  std::vector<Parameter*> parameters() override;
  std::string name() const override { return "Sequential"; }

  std::size_t size() const { return children_.size(); }
  Module& child(std::size_t i) { return *children_.at(i); }
  const Module& child(std::size_t i) const { return *children_.at(i); }

 private:
  std::vector<std::unique_ptr<Module>> children_;
};

}  // namespace fedclust::nn
