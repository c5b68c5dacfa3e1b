#include "tensor/gemm.h"

#include <algorithm>
#include <stdexcept>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "tensor/simd.h"
#include "util/cpu.h"

namespace fedclust::tensor {

void gemm(Trans trans_a, Trans trans_b, std::size_t m, std::size_t n,
          std::size_t k, const float* a, std::size_t lda, const float* b,
          std::size_t ldb, Accumulate accumulate, float* c, std::size_t ldc) {
  OBS_SPAN_ARG("gemm", m * n * k);
  OBS_COUNTER_ADD("gemm.calls", 1);
  OBS_COUNTER_ADD("gemm.madds", m * n * k);
  // Clear C first so the kernel can be pure accumulation. Contiguous C
  // (ldc == n) collapses to one fill over m*n.
  if (accumulate == Accumulate::kNo) {
    if (ldc == n) {
      std::fill(c, c + m * n, 0.0f);
    } else {
      for (std::size_t i = 0; i < m; ++i) {
        std::fill(c + i * ldc, c + i * ldc + n, 0.0f);
      }
    }
  }
  if (m == 0 || n == 0 || k == 0) return;

  // The kernel reads a transposed operand where it is stored. The exact
  // kernel is bit-identical to scalar at every ISA; the FMA-contracted
  // variant only runs under the --fast-math-kernels opt-in.
  const simd::KernelTable& kt = simd::kernels();
  const auto kernel = util::fast_math_kernels() ? kt.gemm_fma : kt.gemm;
  kernel(trans_a, trans_b, m, n, k, a, lda, b, ldb, c, ldc);
}

Tensor matmul(const Tensor& a, const Tensor& b) {
  return matmul(a, Trans::kNo, b, Trans::kNo);
}

Tensor matmul(const Tensor& a, Trans trans_a, const Tensor& b,
              Trans trans_b) {
  if (a.ndim() != 2 || b.ndim() != 2) {
    throw std::invalid_argument("matmul: expected 2-D tensors");
  }
  const std::size_t m = trans_a == Trans::kNo ? a.dim(0) : a.dim(1);
  const std::size_t ka = trans_a == Trans::kNo ? a.dim(1) : a.dim(0);
  const std::size_t kb = trans_b == Trans::kNo ? b.dim(0) : b.dim(1);
  const std::size_t n = trans_b == Trans::kNo ? b.dim(1) : b.dim(0);
  if (ka != kb) {
    throw std::invalid_argument("matmul: inner dimension mismatch " +
                                a.shape_str() + " x " + b.shape_str());
  }
  Tensor c({m, n});
  gemm(trans_a, trans_b, m, n, ka, a.data(), a.dim(1), b.data(), b.dim(1),
       Accumulate::kNo, c.data(), n);
  return c;
}

}  // namespace fedclust::tensor
