#pragma once

// Layer abstraction with explicit forward/backward passes.
//
// There is deliberately no autograd tape: each Module caches what its own
// backward pass needs during a training forward, and backward consumes
// those caches in reverse order. This keeps memory and control flow fully
// explicit — which matters here, because the FL simulator snapshots, ships,
// and averages raw parameter vectors constantly and must know exactly what
// state a model carries (parameters only; caches are transient).
//
// Every pass writes into a destination its caller owns and reuses, so a
// warm model's step allocates nothing: a module keeps only what its own
// backward reads, and a Sequential alternates its children's outputs and
// input gradients between two buffers of its own.

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

  // Writes the output for input x into y, a distinct tensor the caller
  // reuses across calls: y is resized in place (Tensor::resize) and every
  // element written. train=true also fills this module's own caches for
  // the next backward_into(); an eval forward leaves them untouched.
  virtual void forward_into(const Tensor& x, Tensor& y, bool train) = 0;

  // grad_out is dLoss/dOutput. Writes dLoss/dInput into grad_in (reused
  // like y above) and *accumulates* into each parameter's grad. Must be
  // preceded by a training forward_into() of the same batch.
  virtual void backward_into(const Tensor& grad_out, Tensor& grad_in) = 0;

  // By-value forms of the two passes, for tests and one-off callers.
  Tensor forward(const Tensor& x, bool train);
  Tensor backward(const Tensor& grad_out);

  // Whether backward must produce dLoss/dInput (default on). Model clears
  // it on its first module, whose input gradient nobody reads; a module
  // that honours it (Conv2d) then leaves grad_in untouched. Parameter
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

// Runs children in order; backward runs them in reverse.
class Sequential : public Module {
 public:
  Sequential() = default;

  // Builder-style append. Returns *this for chaining.
  Sequential& add(std::unique_ptr<Module> m);

  template <typename M, typename... Args>
  Sequential& emplace(Args&&... args) {
    return add(std::make_unique<M>(std::forward<Args>(args)...));
  }

  void forward_into(const Tensor& x, Tensor& y, bool train) override;
  void backward_into(const Tensor& grad_out, Tensor& grad_in) override;
  // Only the first child's input gradient is the Sequential's own.
  void set_needs_input_grad(bool on) override;
  std::vector<Parameter*> parameters() override;
  std::string name() const override { return "Sequential"; }

  std::size_t size() const { return children_.size(); }
  Module& child(std::size_t i) { return *children_.at(i); }
  const Module& child(std::size_t i) const { return *children_.at(i); }

 private:
  std::vector<std::unique_ptr<Module>> children_;
  // Child i writes its output (forward) and its input gradient (backward)
  // into bufs_[i % 2], except that the caller's destination takes the
  // last output and the first input gradient. No child's backward reads a
  // buffer here: what it needs it cached itself.
  Tensor bufs_[2];
};

}  // namespace fedclust::nn
