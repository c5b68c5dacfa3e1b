#pragma once

// Elementwise and BLAS-1 style operations over Tensors and raw float spans.
// In-place variants carry a trailing underscore, matching common DL-library
// convention.

#include <cstddef>
#include <vector>

#include "tensor/tensor.h"

namespace fedclust::tensor {

// y += alpha * x
void axpy(float alpha, const Tensor& x, Tensor& y);
void axpy(float alpha, const std::vector<float>& x, std::vector<float>& y);

void scale_(Tensor& t, float alpha);
void scale_(std::vector<float>& v, float alpha);

void fill_(Tensor& t, float value);

void add_(Tensor& y, const Tensor& x);        // y += x

float dot(const Tensor& a, const Tensor& b);
float dot(const std::vector<float>& a, const std::vector<float>& b);

// Euclidean norm.
float nrm2(const Tensor& t);
float nrm2(const std::vector<float>& v);

// ||a - b||_2 without materializing the difference.
float l2_distance(const std::vector<float>& a, const std::vector<float>& b);

// Cosine similarity; returns 0 when either vector is all-zero.
float cosine_similarity(const std::vector<float>& a,
                        const std::vector<float>& b);

float sum(const Tensor& t);

// Numerically stable row-wise softmax of an (n, k) matrix, in place.
void softmax_rows_(Tensor& logits);

// Index of the first largest of p[0..k); 0 when none compares larger than
// p[0] (k == 0 included).
std::size_t argmax(const float* p, std::size_t k);

// Row-wise argmax of an (n, k) matrix.
std::vector<std::size_t> argmax_rows(const Tensor& m);

}  // namespace fedclust::tensor
