#include "tensor/tensor.h"

#include <sstream>
#include <stdexcept>

namespace fedclust::tensor {

std::size_t Tensor::numel(const Shape& shape) {
  std::size_t n = 1;
  for (const std::size_t d : shape) n *= d;
  return n;
}

Tensor::Tensor(Shape shape)
    : shape_(std::move(shape)), data_(numel(shape_), 0.0f) {}

Tensor::Tensor(Shape shape, std::vector<float> data)
    : shape_(std::move(shape)), data_(std::move(data)) {
  if (data_.size() != numel(shape_)) {
    throw std::invalid_argument("Tensor: data size does not match shape");
  }
}

Tensor Tensor::zeros(Shape shape) { return Tensor(std::move(shape)); }

Tensor Tensor::full(Shape shape, float value) {
  Tensor t(std::move(shape));
  for (auto& x : t.data_) x = value;
  return t;
}

Tensor Tensor::from(std::initializer_list<float> values) {
  return Tensor({values.size()}, std::vector<float>(values));
}

std::size_t Tensor::dim(std::size_t i) const {
  if (i >= shape_.size()) {
    throw std::out_of_range("Tensor::dim: axis out of range");
  }
  return shape_[i];
}

std::size_t Tensor::flat_index(std::initializer_list<std::size_t> idx) const {
  if (idx.size() != shape_.size()) {
    throw std::invalid_argument("Tensor::at: rank mismatch");
  }
  std::size_t flat = 0;
  std::size_t axis = 0;
  for (const std::size_t i : idx) {
    if (i >= shape_[axis]) throw std::out_of_range("Tensor::at: index OOB");
    flat = flat * shape_[axis] + i;
    ++axis;
  }
  return flat;
}

float& Tensor::at(std::initializer_list<std::size_t> idx) {
  return data_[flat_index(idx)];
}

float Tensor::at(std::initializer_list<std::size_t> idx) const {
  return data_[flat_index(idx)];
}

void Tensor::reshape(Shape shape) {
  if (numel(shape) != data_.size()) {
    throw std::invalid_argument("Tensor::reshape: element count mismatch");
  }
  shape_ = std::move(shape);
}

void Tensor::resize(std::span<const std::size_t> shape) {
  // assign() may not read from the vector it writes.
  if (shape.data() != shape_.data()) shape_.assign(shape.begin(), shape.end());
  data_.resize(numel(shape_));
}

std::string Tensor::shape_str() const {
  std::ostringstream os;
  os << "(";
  for (std::size_t i = 0; i < shape_.size(); ++i) {
    if (i > 0) os << ", ";
    os << shape_[i];
  }
  os << ")";
  return os.str();
}

void check_same_shape(const Tensor& a, const Tensor& b, const char* op) {
  if (a.shape() != b.shape()) {
    throw std::invalid_argument(std::string(op) + ": shape mismatch " +
                                a.shape_str() + " vs " + b.shape_str());
  }
}

}  // namespace fedclust::tensor
