#include "tensor/gemm.h"

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "tensor/simd.h"
#include "util/cpu.h"
#include "util/thread_pool.h"

namespace fedclust::tensor {

namespace {

// Below this many multiply-adds, thread dispatch costs more than it saves.
constexpr std::size_t kParallelThreshold = 1u << 18;

// Reusable per-thread transpose scratch: transposed matmuls run in the
// training hot loop (conv backward does two per image), so the operand
// copies must not hit the allocator every call. Two slots because one gemm
// can transpose both A and B.
std::vector<float>& transpose_scratch(int slot) {
  thread_local std::vector<float> bufs[2];
  return bufs[slot];
}

// Materializes op(X) into `out` as a contiguous row-major (rows, cols)
// buffer; input is (cols, rows) with leading dim ldx.
const float* transpose_into(const simd::KernelTable& kt,
                            std::vector<float>& out, const float* x,
                            std::size_t rows, std::size_t cols,
                            std::size_t ldx) {
  out.resize(rows * cols);
  kt.transpose(x, rows, cols, ldx, out.data());
  return out.data();
}

}  // namespace

void gemm(Trans trans_a, Trans trans_b, std::size_t m, std::size_t n,
          std::size_t k, float alpha, const float* a, std::size_t lda,
          const float* b, std::size_t ldb, float beta, float* c,
          std::size_t ldc) {
  OBS_SPAN_ARG("gemm", m * n * k);
  OBS_COUNTER_ADD("gemm.calls", 1);
  OBS_COUNTER_ADD("gemm.madds", m * n * k);
  const simd::KernelTable& kt = simd::kernels();
  // Scale / clear C first so the kernel can be pure accumulation. The
  // common beta == 0 case is a straight fill; beta-scaling goes through the
  // dispatched elementwise kernel (bit-identical to the scalar loop at any
  // ISA). Contiguous C (ldc == n) collapses to one pass over m*n.
  if (beta == 0.0f) {
    if (ldc == n) {
      std::fill(c, c + m * n, 0.0f);
    } else {
      for (std::size_t i = 0; i < m; ++i) {
        std::fill(c + i * ldc, c + i * ldc + n, 0.0f);
      }
    }
  } else if (beta != 1.0f) {
    if (ldc == n) {
      kt.scale(c, m * n, beta);
    } else {
      for (std::size_t i = 0; i < m; ++i) kt.scale(c + i * ldc, n, beta);
    }
  }
  if (m == 0 || n == 0 || k == 0 || alpha == 0.0f) return;

  // Normalize to the NN case by materializing transposed operands into the
  // thread-local scratch, which keeps the hot loop unit-stride. The copies
  // are O(mk)/O(kn) against an O(mnk) kernel, but at the models' small m or
  // n that is not negligible, so they run the table's vector transpose.
  const float* an = a;
  std::size_t lda_n = lda;
  if (trans_a == Trans::kYes) {
    an = transpose_into(kt, transpose_scratch(0), a, m, k, lda);
    lda_n = k;
  }
  const float* bn = b;
  std::size_t ldb_n = ldb;
  if (trans_b == Trans::kYes) {
    bn = transpose_into(kt, transpose_scratch(1), b, k, n, ldb);
    ldb_n = n;
  }

  // The exact kernel is bit-identical to scalar at every ISA; the FMA-
  // contracted variant only runs under the --fast-math-kernels opt-in.
  const auto kernel = util::fast_math_kernels() ? kt.gemm_nn_range_fma
                                                : kt.gemm_nn_range;
  if (m * n * k >= kParallelThreshold && util::global_pool().size() > 0) {
    util::parallel_for_chunked(
        0, m, [&](std::size_t lo, std::size_t hi) {
          kernel(lo, hi, n, k, alpha, an, lda_n, bn, ldb_n, c, ldc);
        });
  } else {
    kernel(0, m, n, k, alpha, an, lda_n, bn, ldb_n, c, ldc);
  }
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
  gemm(trans_a, trans_b, m, n, ka, 1.0f, a.data(), a.dim(1), b.data(),
       b.dim(1), 0.0f, c.data(), n);
  return c;
}

}  // namespace fedclust::tensor
