#pragma once

// Dense float32 tensor with contiguous row-major storage.
//
// This is a value type: copies are deep. At simulator scale (models of
// 10^4–10^6 parameters) deep copies are cheap relative to training compute,
// and value semantics keep the FL algorithms (which constantly snapshot and
// average parameter vectors) simple and alias-free.

#include <cstddef>
#include <initializer_list>
#include <span>
#include <string>
#include <vector>

namespace fedclust::tensor {

using Shape = std::vector<std::size_t>;

class Tensor {
 public:
  Tensor() = default;
  explicit Tensor(Shape shape);  // zero-initialized
  Tensor(Shape shape, std::vector<float> data);

  static Tensor zeros(Shape shape);
  static Tensor full(Shape shape, float value);
  // 1-D tensor from values.
  static Tensor from(std::initializer_list<float> values);

  const Shape& shape() const { return shape_; }
  std::size_t ndim() const { return shape_.size(); }
  std::size_t dim(std::size_t i) const;
  std::size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }
  std::vector<float>& vec() { return data_; }
  const std::vector<float>& vec() const { return data_; }

  float& operator[](std::size_t i) { return data_[i]; }
  float operator[](std::size_t i) const { return data_[i]; }

  // Bounds-checked multi-dimensional access (tests / debugging).
  float& at(std::initializer_list<std::size_t> idx);
  float at(std::initializer_list<std::size_t> idx) const;

  // In-place shape change; the element count must match.
  void reshape(Shape shape);

  // Takes `shape`, growing or shrinking the element count to match, in
  // place: the storage's capacity only grows, so a buffer reused across
  // calls allocates only when it must grow. Element values are left
  // unspecified; callers write every element before reading any.
  void resize(std::span<const std::size_t> shape);
  void resize(std::initializer_list<std::size_t> shape) {
    resize(std::span<const std::size_t>(shape.begin(), shape.size()));
  }

  std::string shape_str() const;

  static std::size_t numel(const Shape& shape);

 private:
  std::size_t flat_index(std::initializer_list<std::size_t> idx) const;

  Shape shape_;
  std::vector<float> data_;
};

// Throws std::invalid_argument unless the two tensors have identical shapes.
void check_same_shape(const Tensor& a, const Tensor& b, const char* op);

}  // namespace fedclust::tensor
