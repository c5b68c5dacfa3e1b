#include "fl/client.h"

#include <algorithm>
#include <numeric>
#include <span>
#include <stdexcept>

#include "nn/loss.h"
#include "nn/optimizer.h"

namespace fedclust::fl {

namespace {

// The logits of every sample of `ds`, in order, as one batch assembled in
// the workspace's buffers.
const tensor::Tensor& forward_all(nn::Model& model, const data::Dataset& ds) {
  nn::Model::StepBuffers& buf = model.step_buffers();
  buf.order.resize(ds.size());
  std::iota(buf.order.begin(), buf.order.end(), 0);
  ds.batch_images(buf.order, buf.images);
  return model.forward(buf.images);
}

}  // namespace

SimClient::SimClient(std::size_t id, data::Dataset train, data::Dataset test)
    : id_(id), train_(std::move(train)), test_(std::move(test)) {
  if (train_.empty()) {
    throw std::invalid_argument("SimClient: empty training set");
  }
}

std::size_t SimClient::local_steps(const LocalTrainOptions& opts) const {
  const std::size_t batches =
      (train_.size() + opts.batch_size - 1) / opts.batch_size;
  return batches * opts.epochs;
}

float SimClient::train(nn::Model& model, const LocalTrainOptions& opts,
                       util::Rng rng, const std::vector<float>* prox_ref,
                       const std::vector<float>* grad_offset) const {
  // Every buffer below is the workspace model's own, reused from its last
  // call: a warm workspace's train() allocates nothing.
  nn::Sgd& opt =
      model.sgd({.lr = opts.lr,
                 .momentum = opts.momentum,
                 .weight_decay = opts.weight_decay,
                 .clip_grad_norm = opts.clip_grad_norm,
                 .prox_mu = prox_ref != nullptr ? opts.prox_mu : 0.0f});
  if (prox_ref != nullptr && opts.prox_mu != 0.0f) {
    opt.set_prox_reference(*prox_ref);
  }
  if (grad_offset != nullptr) opt.set_grad_offset(*grad_offset);

  nn::Model::StepBuffers& buf = model.step_buffers();
  std::vector<std::size_t>& order = buf.order;
  order.resize(train_.size());
  std::iota(order.begin(), order.end(), 0);

  float epoch_loss = 0.0f;
  for (std::size_t e = 0; e < opts.epochs; ++e) {
    rng.shuffle(order);
    double loss_sum = 0.0;
    std::size_t n_batches = 0;
    for (std::size_t start = 0; start < order.size();
         start += opts.batch_size) {
      const std::span<const std::size_t> batch(
          order.data() + start,
          std::min(order.size(), start + opts.batch_size) - start);
      train_.batch_images(batch, buf.images);
      train_.batch_labels(batch, buf.labels);
      opt.zero_grad();
      nn::softmax_cross_entropy(model.forward(buf.images, /*train=*/true),
                                buf.labels, buf.loss);
      model.backward(buf.loss.grad_logits);
      opt.step();
      loss_sum += buf.loss.loss;
      ++n_batches;
    }
    epoch_loss = static_cast<float>(loss_sum /
                                    static_cast<double>(n_batches));
  }
  return epoch_loss;
}

double SimClient::evaluate(nn::Model& model) const {
  if (test_.empty()) return 0.0;
  return nn::accuracy(forward_all(model, test_), test_.labels());
}

float SimClient::train_loss(nn::Model& model) const {
  nn::LossResult& loss = model.step_buffers().loss;
  // Only the scalar is read; the gradient is discarded.
  nn::softmax_cross_entropy(forward_all(model, train_), train_.labels(),
                            loss);
  return loss.loss;
}

}  // namespace fedclust::fl
