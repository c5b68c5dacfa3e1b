#include "data/dataset.h"

#include <algorithm>
#include <set>
#include <stdexcept>

namespace fedclust::data {

Dataset::Dataset(std::size_t channels, std::size_t hw,
                 std::size_t num_classes)
    : channels_(channels), hw_(hw), num_classes_(num_classes) {
  if (channels == 0 || hw == 0 || num_classes == 0) {
    throw std::invalid_argument("Dataset: zero-sized geometry");
  }
}

void Dataset::add(std::vector<float> image, std::int64_t label) {
  if (image.size() != image_size()) {
    throw std::invalid_argument("Dataset::add: image size mismatch");
  }
  if (label < 0 || static_cast<std::size_t>(label) >= num_classes_) {
    throw std::invalid_argument("Dataset::add: label out of range");
  }
  images_.insert(images_.end(), image.begin(), image.end());
  labels_.push_back(label);
}

const float* Dataset::image(std::size_t i) const {
  if (i >= size()) throw std::out_of_range("Dataset::image: index OOB");
  return images_.data() + i * image_size();
}

void Dataset::batch_images(std::span<const std::size_t> indices,
                           tensor::Tensor& out) const {
  out.resize({indices.size(), channels_, hw_, hw_});
  const std::size_t img = image_size();
  for (std::size_t b = 0; b < indices.size(); ++b) {
    const float* src = image(indices[b]);
    std::copy(src, src + img, out.data() + b * img);
  }
}

void Dataset::batch_labels(std::span<const std::size_t> indices,
                           std::vector<std::int64_t>& labels) const {
  labels.resize(indices.size());
  for (std::size_t b = 0; b < indices.size(); ++b) {
    labels[b] = label(indices[b]);
  }
}

tensor::Tensor Dataset::batch_images(
    const std::vector<std::size_t>& indices) const {
  tensor::Tensor batch;
  batch_images(indices, batch);
  return batch;
}

std::vector<std::int64_t> Dataset::batch_labels(
    const std::vector<std::size_t>& indices) const {
  std::vector<std::int64_t> out;
  batch_labels(indices, out);
  return out;
}

std::vector<double> Dataset::label_distribution() const {
  std::vector<double> dist(num_classes_, 0.0);
  if (labels_.empty()) return dist;
  for (const std::int64_t y : labels_) {
    dist[static_cast<std::size_t>(y)] += 1.0;
  }
  for (auto& d : dist) d /= static_cast<double>(labels_.size());
  return dist;
}

std::vector<std::int64_t> Dataset::present_labels() const {
  const std::set<std::int64_t> s(labels_.begin(), labels_.end());
  return {s.begin(), s.end()};
}

tensor::Tensor Dataset::class_matrix(std::int64_t cls,
                                     std::size_t max_samples) const {
  std::vector<std::size_t> idx;
  for (std::size_t i = 0; i < size(); ++i) {
    if (labels_[i] == cls) {
      idx.push_back(i);
      if (idx.size() >= max_samples) break;
    }
  }
  const std::size_t d = image_size();
  tensor::Tensor m({d, idx.size()});
  for (std::size_t j = 0; j < idx.size(); ++j) {
    const float* img = image(idx[j]);
    for (std::size_t r = 0; r < d; ++r) m[r * idx.size() + j] = img[r];
  }
  return m;
}

}  // namespace fedclust::data
