#include "tensor/tensor.h"

#include <gtest/gtest.h>

#include <cmath>

#include "tensor/tensor_ops.h"

namespace fedclust::tensor {
namespace {

TEST(Tensor, ZeroInitialized) {
  const Tensor t({2, 3});
  EXPECT_EQ(t.size(), 6u);
  EXPECT_EQ(t.ndim(), 2u);
  EXPECT_EQ(t.dim(0), 2u);
  EXPECT_EQ(t.dim(1), 3u);
  for (std::size_t i = 0; i < t.size(); ++i) EXPECT_EQ(t[i], 0.0f);
}

TEST(Tensor, FullAndFrom) {
  const Tensor f = Tensor::full({2, 2}, 1.5f);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(f[i], 1.5f);
  const Tensor v = Tensor::from({1.0f, 2.0f, 3.0f});
  EXPECT_EQ(v.ndim(), 1u);
  EXPECT_EQ(v[2], 3.0f);
}

TEST(Tensor, AtIsRowMajor) {
  Tensor t({2, 3});
  t.at({1, 2}) = 7.0f;
  EXPECT_EQ(t[5], 7.0f);
  t.at({0, 1}) = 3.0f;
  EXPECT_EQ(t[1], 3.0f);
}

TEST(Tensor, AtValidates) {
  Tensor t({2, 3});
  EXPECT_THROW(t.at({2, 0}), std::out_of_range);
  EXPECT_THROW(t.at({0}), std::invalid_argument);
}

TEST(Tensor, DataSizeMustMatchShape) {
  EXPECT_THROW(Tensor({2, 2}, {1.0f, 2.0f}), std::invalid_argument);
}

TEST(Tensor, ReshapePreservesData) {
  Tensor t({2, 3}, {1, 2, 3, 4, 5, 6});
  t.reshape({3, 2});
  EXPECT_EQ(t.at({2, 1}), 6.0f);
  EXPECT_THROW(t.reshape({4, 2}), std::invalid_argument);
}

TEST(Tensor, ShapeStr) {
  EXPECT_EQ(Tensor({2, 3, 4}).shape_str(), "(2, 3, 4)");
  EXPECT_EQ(Tensor().shape_str(), "()");
}

TEST(TensorOps, AxpyAndScale) {
  Tensor x({3}, {1, 2, 3});
  Tensor y({3}, {10, 20, 30});
  axpy(2.0f, x, y);
  EXPECT_EQ(y[0], 12.0f);
  EXPECT_EQ(y[2], 36.0f);
  scale_(y, 0.5f);
  EXPECT_EQ(y[0], 6.0f);
}

TEST(TensorOps, Add) {
  Tensor a({2}, {3, 4});
  const Tensor b({2}, {1, 2});
  add_(a, b);
  EXPECT_EQ(a[0], 4.0f);
  EXPECT_EQ(a[1], 6.0f);
}

TEST(TensorOps, ShapeMismatchThrows) {
  Tensor a({2});
  Tensor b({3});
  EXPECT_THROW(add_(a, b), std::invalid_argument);
  EXPECT_THROW(dot(a, b), std::invalid_argument);
}

TEST(TensorOps, DotAndNorm) {
  const Tensor a({3}, {1, 2, 3});
  const Tensor b({3}, {4, -5, 6});
  EXPECT_FLOAT_EQ(dot(a, b), 12.0f);
  EXPECT_FLOAT_EQ(nrm2(a), std::sqrt(14.0f));
}

TEST(TensorOps, L2Distance) {
  const std::vector<float> a = {0, 0, 0};
  const std::vector<float> b = {3, 4, 0};
  EXPECT_FLOAT_EQ(l2_distance(a, b), 5.0f);
  EXPECT_FLOAT_EQ(l2_distance(a, a), 0.0f);
}

TEST(TensorOps, CosineSimilarity) {
  const std::vector<float> a = {1, 0};
  const std::vector<float> b = {0, 1};
  const std::vector<float> c = {2, 0};
  const std::vector<float> z = {0, 0};
  EXPECT_NEAR(cosine_similarity(a, b), 0.0f, 1e-6);
  EXPECT_NEAR(cosine_similarity(a, c), 1.0f, 1e-6);
  EXPECT_EQ(cosine_similarity(a, z), 0.0f);
}

TEST(TensorOps, Sum) {
  const Tensor t({4}, {1, -5, 2, 0});
  EXPECT_FLOAT_EQ(sum(t), -2.0f);
}

TEST(TensorOps, SoftmaxRows) {
  Tensor logits({2, 3}, {0, 0, 0, 1000, 0, -1000});
  softmax_rows_(logits);
  EXPECT_NEAR(logits.at({0, 0}), 1.0f / 3.0f, 1e-6);
  EXPECT_NEAR(logits.at({1, 0}), 1.0f, 1e-6);  // stable under huge logits
  EXPECT_NEAR(logits.at({1, 2}), 0.0f, 1e-6);
  for (std::size_t r = 0; r < 2; ++r) {
    float s = 0.0f;
    for (std::size_t c = 0; c < 3; ++c) s += logits.at({r, c});
    EXPECT_NEAR(s, 1.0f, 1e-6);
  }
}

TEST(TensorOps, ArgmaxRows) {
  const Tensor m({2, 3}, {0.1f, 0.7f, 0.2f, 5.0f, 1.0f, 4.9f});
  const auto idx = argmax_rows(m);
  ASSERT_EQ(idx.size(), 2u);
  EXPECT_EQ(idx[0], 1u);
  EXPECT_EQ(idx[1], 0u);
}

}  // namespace
}  // namespace fedclust::tensor
