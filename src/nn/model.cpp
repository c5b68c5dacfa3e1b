#include "nn/model.h"

#include <algorithm>
#include <stdexcept>

#include "tensor/tensor_ops.h"

namespace fedclust::nn {

Model::Model(std::unique_ptr<Module> net, std::size_t classifier_param_count)
    : net_(std::move(net)), classifier_param_count_(classifier_param_count) {
  net_->set_needs_input_grad(false);
  params_ = net_->parameters();
  if (classifier_param_count_ > params_.size()) {
    throw std::invalid_argument("Model: classifier_param_count exceeds params");
  }
  layout_.reserve(params_.size());
  for (const Parameter* p : params_) {
    layout_.push_back({p->name, total_size_, p->value.size()});
    total_size_ += p->value.size();
  }
}

void Model::zero_grad() {
  for (Parameter* p : params_) tensor::fill_(p->grad, 0.0f);
}

Sgd& Model::sgd(const SgdOptions& opts) {
  if (sgd_) {
    sgd_->reset(opts);
  } else {
    sgd_.emplace(params_, opts);
  }
  return *sgd_;
}

std::vector<float> Model::flat_params() const {
  std::vector<float> flat(total_size_);
  std::size_t offset = 0;
  for (const Parameter* p : params_) {
    std::copy(p->value.vec().begin(), p->value.vec().end(),
              flat.begin() + static_cast<std::ptrdiff_t>(offset));
    offset += p->value.size();
  }
  return flat;
}

void Model::set_flat_params(const std::vector<float>& flat) {
  if (flat.size() != total_size_) {
    throw std::invalid_argument("Model::set_flat_params: size mismatch");
  }
  std::size_t offset = 0;
  for (Parameter* p : params_) {
    std::copy(flat.begin() + static_cast<std::ptrdiff_t>(offset),
              flat.begin() + static_cast<std::ptrdiff_t>(offset +
                                                         p->value.size()),
              p->value.vec().begin());
    offset += p->value.size();
  }
}

std::vector<float> Model::flat_grads() const {
  std::vector<float> flat(total_size_);
  std::size_t offset = 0;
  for (const Parameter* p : params_) {
    std::copy(p->grad.vec().begin(), p->grad.vec().end(),
              flat.begin() + static_cast<std::ptrdiff_t>(offset));
    offset += p->grad.size();
  }
  return flat;
}

std::pair<std::size_t, std::size_t> Model::classifier_range() const {
  if (classifier_param_count_ == 0) return {total_size_, 0};
  const std::size_t first =
      layout_.size() - classifier_param_count_;
  const std::size_t offset = layout_[first].offset;
  return {offset, total_size_ - offset};
}

std::vector<float> Model::classifier_params() const {
  std::vector<float> out;
  out.reserve(classifier_range().second);
  for (std::size_t i = params_.size() - classifier_param_count_;
       i < params_.size(); ++i) {
    const auto& v = params_[i]->value.vec();
    out.insert(out.end(), v.begin(), v.end());
  }
  return out;
}

std::vector<float> Model::param_by_name(const std::string& name) const {
  for (std::size_t i = 0; i < layout_.size(); ++i) {
    if (layout_[i].name == name) {
      const auto& v = params_[i]->value.vec();
      return {v.begin(), v.end()};
    }
  }
  throw std::invalid_argument("Model: no parameter named " + name);
}

}  // namespace fedclust::nn
