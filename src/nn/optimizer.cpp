#include "nn/optimizer.h"

#include <array>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "tensor/tensor_ops.h"

namespace fedclust::nn {

namespace {

struct StepScalars {
  float clip_scale;
  float lr;
  float momentum;
  float weight_decay;
  float prox_mu;
};

// One SGD update over a tensor for one fixed option set. The options are
// template arguments and the scalars arrive by value, so the loop has no
// branch and no load that a parameter write could alias: it vectorizes.
// The per-element order is clip -> offset -> weight decay -> prox ->
// momentum -> update for every option set.
template <bool kOffset, bool kDecay, bool kProx, bool kMomentum>
void update(float* __restrict w, const float* __restrict grad,
            float* __restrict v, const float* __restrict offset,
            const float* __restrict ref, std::size_t n, StepScalars s) {
  for (std::size_t i = 0; i < n; ++i) {
    float g = grad[i] * s.clip_scale;
    if constexpr (kOffset) g += offset[i];
    if constexpr (kDecay) g += s.weight_decay * w[i];
    if constexpr (kProx) g += s.prox_mu * (w[i] - ref[i]);
    if constexpr (kMomentum) {
      v[i] = s.momentum * v[i] + g;
      g = v[i];
    }
    w[i] -= s.lr * g;
  }
}

using UpdateFn = void (*)(float*, const float*, float*, const float*,
                          const float*, std::size_t, StepScalars);

// kUpdates[offset | decay << 1 | prox << 2 | momentum << 3]
template <std::size_t... I>
constexpr std::array<UpdateFn, sizeof...(I)> update_table(
    std::index_sequence<I...>) {
  return {&update<(I & 1) != 0, (I & 2) != 0, (I & 4) != 0,
                  (I & 8) != 0>...};
}
constexpr auto kUpdates = update_table(std::make_index_sequence<16>{});

}  // namespace

Sgd::Sgd(std::vector<Parameter*> params, SgdOptions opts)
    : params_(std::move(params)), opts_(opts) {
  velocity_.reserve(params_.size());
  for (const Parameter* p : params_) {
    velocity_.emplace_back(p->value.shape());
    total_size_ += p->value.size();
  }
}

void Sgd::reset(SgdOptions opts) {
  opts_ = opts;
  for (Tensor& v : velocity_) tensor::fill_(v, 0.0f);
  prox_ref_.clear();
  grad_offset_.clear();
}

void Sgd::set_prox_reference(const std::vector<float>& ref) {
  if (!ref.empty() && ref.size() != total_size_) {
    throw std::invalid_argument("Sgd: prox reference size mismatch");
  }
  prox_ref_.assign(ref.begin(), ref.end());
}

void Sgd::set_grad_offset(const std::vector<float>& offset) {
  if (!offset.empty() && offset.size() != total_size_) {
    throw std::invalid_argument("Sgd: grad offset size mismatch");
  }
  grad_offset_.assign(offset.begin(), offset.end());
}

void Sgd::step() {
  float clip_scale = 1.0f;
  if (opts_.clip_grad_norm > 0.0f) {
    double sq = 0.0;
    for (const Parameter* p : params_) {
      for (const float g : p->grad.vec()) {
        sq += static_cast<double>(g) * g;
      }
    }
    const double norm = std::sqrt(sq);
    if (norm > opts_.clip_grad_norm) {
      clip_scale = static_cast<float>(opts_.clip_grad_norm / norm);
    }
  }
  const bool use_prox = opts_.prox_mu != 0.0f && !prox_ref_.empty();
  const bool use_offset = !grad_offset_.empty();
  const UpdateFn update =
      kUpdates[(use_offset ? 1 : 0) | (opts_.weight_decay != 0.0f ? 2 : 0) |
               (use_prox ? 4 : 0) | (opts_.momentum != 0.0f ? 8 : 0)];
  const StepScalars scalars{clip_scale, opts_.lr, opts_.momentum,
                            opts_.weight_decay, opts_.prox_mu};
  std::size_t offset = 0;
  for (std::size_t t = 0; t < params_.size(); ++t) {
    Parameter& p = *params_[t];
    const std::size_t n = p.value.size();
    update(p.value.data(), p.grad.data(), velocity_[t].data(),
           use_offset ? grad_offset_.data() + offset : nullptr,
           use_prox ? prox_ref_.data() + offset : nullptr, n, scalars);
    offset += n;
  }
}

void Sgd::zero_grad() {
  for (Parameter* p : params_) tensor::fill_(p->grad, 0.0f);
}

}  // namespace fedclust::nn
