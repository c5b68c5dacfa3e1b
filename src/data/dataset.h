#pragma once

// In-memory labelled image dataset (CHW float images, integer labels).

#include <cstdint>
#include <span>
#include <vector>

#include "tensor/tensor.h"

namespace fedclust::data {

class Dataset {
 public:
  Dataset(std::size_t channels, std::size_t hw, std::size_t num_classes);

  void add(std::vector<float> image, std::int64_t label);
  // Sizes the storage for n samples up front.
  void reserve(std::size_t n) {
    images_.reserve(n * image_size());
    labels_.reserve(n);
  }

  std::size_t size() const { return labels_.size(); }
  bool empty() const { return labels_.empty(); }
  std::size_t channels() const { return channels_; }
  std::size_t hw() const { return hw_; }
  std::size_t num_classes() const { return num_classes_; }
  std::size_t image_size() const { return channels_ * hw_ * hw_; }

  std::int64_t label(std::size_t i) const { return labels_.at(i); }
  const std::vector<std::int64_t>& labels() const { return labels_; }
  // Pointer to the i-th CHW image (image_size() floats).
  const float* image(std::size_t i) const;

  // Assembles the (B, C, H, W) batch of the given samples into `out`, and
  // their labels into `labels`, resizing each in place (a reused buffer
  // allocates only when it must grow).
  void batch_images(std::span<const std::size_t> indices,
                    tensor::Tensor& out) const;
  void batch_labels(std::span<const std::size_t> indices,
                    std::vector<std::int64_t>& labels) const;
  // By-value forms.
  tensor::Tensor batch_images(const std::vector<std::size_t>& indices) const;
  std::vector<std::int64_t> batch_labels(
      const std::vector<std::size_t>& indices) const;

  // Label histogram normalized to probabilities (all-zero if empty).
  std::vector<double> label_distribution() const;
  // Distinct labels present, ascending.
  std::vector<std::int64_t> present_labels() const;

  // Column-per-sample (d, n) matrix of up to max_samples images with the
  // given label — the raw-data view PACFL applies truncated SVD to. Returns
  // an empty (d, 0) tensor if the class is absent.
  tensor::Tensor class_matrix(std::int64_t cls, std::size_t max_samples) const;

 private:
  std::size_t channels_;
  std::size_t hw_;
  std::size_t num_classes_;
  std::vector<float> images_;  // contiguous, image_size() per sample
  std::vector<std::int64_t> labels_;
};

}  // namespace fedclust::data
