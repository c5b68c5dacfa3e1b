#pragma once

// Single-precision GEMM: C = op(A) * op(B), or C += op(A) * op(B).
//
// Runs on the calling thread through the dispatched kernel table
// (tensor/simd.h); parallelism lives one level up, in the client loops.
// The kernel reads a transposed operand where it is stored, so no operand
// is copied first. This is the workhorse behind Linear layers and im2col
// convolution.

#include <cstddef>

#include "tensor/tensor.h"

namespace fedclust::tensor {

enum class Trans { kNo, kYes };
// kNo overwrites C with the product; kYes adds the product to C.
enum class Accumulate { kNo, kYes };

// Raw-pointer GEMM with row-major leading dimensions. op(A) is (m, k),
// op(B) is (k, n), C is (m, n) with leading dimension ldc. A transposed A
// is stored (k, m) with leading dimension lda, a transposed B (n, k) with
// leading dimension ldb.
void gemm(Trans trans_a, Trans trans_b, std::size_t m, std::size_t n,
          std::size_t k, const float* a, std::size_t lda, const float* b,
          std::size_t ldb, Accumulate accumulate, float* c, std::size_t ldc);

// Tensor-level matmul; a is (m, k), b is (k, n); returns (m, n).
Tensor matmul(const Tensor& a, const Tensor& b);
// a is (m, k) interpreted via trans flags: op(a) (m', k') etc.
Tensor matmul(const Tensor& a, Trans trans_a, const Tensor& b, Trans trans_b);

}  // namespace fedclust::tensor
