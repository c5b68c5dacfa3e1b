#pragma once

// Model: a Module tree plus the flat-parameter view the FL layer works in.
//
// FL algorithms treat models as flat float vectors (ship, average, measure
// distances); Model provides the canonical flattening (concatenation of
// parameters in registration order) together with a named layout so
// algorithms can slice out specific layers — most importantly the final
// classifier layer, which is what FedClust ships for clustering.

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "nn/loss.h"
#include "nn/module.h"
#include "nn/optimizer.h"
#include "obs/trace.h"

namespace fedclust::nn {

class Model {
 public:
  // classifier_param_count: how many trailing Parameter tensors form the
  // final (classifier) layer — 2 for a Linear head (weight + bias).
  explicit Model(std::unique_ptr<Module> net,
                 std::size_t classifier_param_count = 2);

  Model(Model&&) = default;
  Model& operator=(Model&&) = default;

  // The logits for batch x, in a buffer this model reuses: the reference
  // stays valid, and its contents current, until the next forward().
  const Tensor& forward(const Tensor& x, bool train = false) {
    OBS_SPAN("model.forward");
    net_->forward_into(x, logits_, train);
    return logits_;
  }
  // Accumulates parameter gradients only: the constructor turns off the
  // first module's input gradient, which nothing reads.
  void backward(const Tensor& grad_out) {
    OBS_SPAN("model.backward");
    net_->backward_into(grad_out, grad_in_);
  }
  void zero_grad();

  // The module tree, e.g. for a test that turns the input gradient back on.
  Module& net() { return *net_; }

  const std::vector<Parameter*>& parameters() const { return params_; }
  std::size_t num_params() const { return total_size_; }

  // ---- per-replica step buffers -----------------------------------------
  // What a local training or evaluation call (fl::SimClient) reuses from
  // the previous call on this model: the sample order, the assembled batch
  // and its labels, and the loss. Like the modules' own buffers, each only
  // grows and is fully written before it is read, so a warm model's call
  // allocates nothing. One thread holds a model at a time.
  struct StepBuffers {
    std::vector<std::size_t> order;
    Tensor images;
    std::vector<std::int64_t> labels;
    LossResult loss;
  };
  StepBuffers& step_buffers() { return step_; }

  // This model's SGD over its parameters, re-armed with `opts` for one
  // training run (Sgd::reset zeroes the momentum): built on first use, it
  // then serves every run with the same momentum buffers.
  Sgd& sgd(const SgdOptions& opts);

  // ---- flat-vector view ------------------------------------------------
  struct ParamInfo {
    std::string name;
    std::size_t offset;  // position in the flat vector
    std::size_t size;
  };
  const std::vector<ParamInfo>& param_layout() const { return layout_; }

  std::vector<float> flat_params() const;
  void set_flat_params(const std::vector<float>& flat);
  std::vector<float> flat_grads() const;

  // ---- classifier slice (FedClust's "strategically selected weights") ---
  // [offset, offset+size) within the flat vector.
  std::pair<std::size_t, std::size_t> classifier_range() const;
  std::vector<float> classifier_params() const;

  // Flat slice of one named parameter.
  std::vector<float> param_by_name(const std::string& name) const;

 private:
  std::unique_ptr<Module> net_;
  std::vector<Parameter*> params_;  // cached; owned by net_
  std::vector<ParamInfo> layout_;
  std::size_t total_size_ = 0;
  std::size_t classifier_param_count_;
  Tensor logits_;
  Tensor grad_in_;  // dLoss/dInput, when the first module produces one
  StepBuffers step_;
  std::optional<Sgd> sgd_;
};

}  // namespace fedclust::nn
