// NEON kernel table (AArch64). Conservative: the GEMM inner loop and beta
// scale are vectorized with explicit mul-then-add (vmulq/vaddq — never
// vfmaq outside the _fma variant), everything else (the codec kernels and
// l2_distances among them) reuses the scalar kernels. Bit-identity with
// the scalar table holds by the same argument as the x86 tables: lanes
// perform the identical fl(mul) -> fl(add) per element in ascending-p
// order. Untested on this project's primary (x86) CI host, which cannot
// run AArch64 code — kept deliberately simple.

#if defined(__aarch64__)

#include <arm_neon.h>

#include <algorithm>
#include <vector>

#include "tensor/simd_tables.h"

namespace fedclust::tensor::simd {
namespace detail {

namespace {

// Same cache blocking as the scalar golden kernel; only the innermost
// j loop is widened to 4 lanes.
constexpr std::size_t kBlockM = 64;
constexpr std::size_t kBlockN = 64;
constexpr std::size_t kBlockK = 128;

template <bool kFma>
void gemm_nn_range_neon(std::size_t m0, std::size_t m1, std::size_t n,
                        std::size_t k, float alpha, const float* a,
                        std::size_t lda, const float* b, std::size_t ldb,
                        float* c, std::size_t ldc) {
  for (std::size_t ib = m0; ib < m1; ib += kBlockM) {
    const std::size_t ie = std::min(m1, ib + kBlockM);
    for (std::size_t kb = 0; kb < k; kb += kBlockK) {
      const std::size_t ke = std::min(k, kb + kBlockK);
      for (std::size_t jb = 0; jb < n; jb += kBlockN) {
        const std::size_t je = std::min(n, jb + kBlockN);
        for (std::size_t i = ib; i < ie; ++i) {
          const float* __restrict arow = a + i * lda;
          float* __restrict crow = c + i * ldc;
          for (std::size_t p = kb; p < ke; ++p) {
            const float av = alpha * arow[p];
            const float32x4_t vav = vdupq_n_f32(av);
            const float* __restrict brow = b + p * ldb;
            std::size_t j = jb;
            for (; j + 4 <= je; j += 4) {
              const float32x4_t bv = vld1q_f32(brow + j);
              float32x4_t cv = vld1q_f32(crow + j);
              if constexpr (kFma) {
                cv = vfmaq_f32(cv, vav, bv);
              } else {
                cv = vaddq_f32(cv, vmulq_f32(vav, bv));
              }
              vst1q_f32(crow + j, cv);
            }
            for (; j < je; ++j) crow[j] += av * brow[j];
          }
        }
      }
    }
  }
}

void scale_neon(float* c, std::size_t n, float beta) {
  const float32x4_t vb = vdupq_n_f32(beta);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    vst1q_f32(c + i, vmulq_f32(vld1q_f32(c + i), vb));
  }
  for (; i < n; ++i) c[i] *= beta;
}

}  // namespace

const KernelTable* neon_table() {
  static const KernelTable table = [] {
    KernelTable t = scalar_table();
    t.isa = util::SimdIsa::kNeon;
    t.gemm_nn_range = &gemm_nn_range_neon<false>;
    t.gemm_nn_range_fma = &gemm_nn_range_neon<true>;
    t.scale = &scale_neon;
    return t;
  }();
  return &table;
}

}  // namespace detail
}  // namespace fedclust::tensor::simd

#else  // non-AArch64 build: no NEON table

#include "tensor/simd_tables.h"

namespace fedclust::tensor::simd::detail {
const KernelTable* neon_table() { return nullptr; }
}  // namespace fedclust::tensor::simd::detail

#endif
