#pragma once

// SGD with momentum, weight decay, and an optional FedProx proximal term.

#include <vector>

#include "nn/module.h"

namespace fedclust::nn {

struct SgdOptions {
  float lr = 0.01f;
  float momentum = 0.0f;
  float weight_decay = 0.0f;
  // Global gradient-norm clipping applied before the update (0 = off).
  float clip_grad_norm = 0.0f;
  // FedProx: adds prox_mu * (w - w_ref) to the gradient. Active only when a
  // reference vector has been installed via set_prox_reference().
  float prox_mu = 0.0f;
};

class Sgd {
 public:
  Sgd(std::vector<Parameter*> params, SgdOptions opts);

  float lr() const { return opts_.lr; }

  // Re-arms the optimizer for a new run over the same parameters: new
  // options, momentum zeroed, no prox reference or gradient offset. It then
  // steps exactly as a freshly constructed Sgd would, reusing its buffers.
  void reset(SgdOptions opts);

  // Installs (copies) the global-model snapshot for the proximal term. The
  // flat vector must match the concatenated parameter layout. Pass an
  // empty vector to disable.
  void set_prox_reference(const std::vector<float>& ref);

  // Installs (copies) a constant additive gradient offset (flat layout):
  // every step uses g + offset. This is the hook SCAFFOLD's control
  // variates and FedDyn's lagged-gradient correction plug into. Empty
  // vector disables.
  void set_grad_offset(const std::vector<float>& offset);

  // w -= lr * v where v = momentum * v + (g + wd * w + mu * (w - w_ref)).
  void step();

  void zero_grad();

 private:
  std::vector<Parameter*> params_;
  SgdOptions opts_;
  std::vector<Tensor> velocity_;
  std::vector<float> prox_ref_;
  std::vector<float> grad_offset_;
  std::size_t total_size_ = 0;
};

}  // namespace fedclust::nn
