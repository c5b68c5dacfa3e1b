// NEON kernel table (AArch64). Conservative: the GEMM inner loop is
// vectorized with explicit mul-then-add (vmulq/vaddq — never vfmaq outside
// the _fma variant), everything else (the codec kernels and l2_distances
// among them) reuses the scalar kernels. Bit-identity with
// the scalar table holds by the same argument as the x86 tables: lanes
// perform the identical fl(mul) -> fl(add) per element in ascending-p
// order. Untested on this project's primary (x86) CI host, which cannot
// run AArch64 code — kept deliberately simple.

#if defined(__aarch64__)

#include <arm_neon.h>

#include <algorithm>

#include "tensor/simd_tables.h"

namespace fedclust::tensor::simd {
namespace detail {

namespace {

// Same cache blocking and strides as the scalar golden kernel; only the
// innermost j loop is widened to 4 lanes.
constexpr std::size_t kBlockM = 64;
constexpr std::size_t kBlockN = 64;
constexpr std::size_t kBlockK = 128;

// op(B)[p, j..j+3] from row p of op(B), whose columns lie b_col apart: one
// load when they are adjacent, four lane copies when B is transposed.
float32x4_t load_b4(const float* brow, std::size_t j, std::size_t b_col) {
  if (b_col == 1) return vld1q_f32(brow + j);
  const float lanes[4] = {brow[j * b_col], brow[(j + 1) * b_col],
                          brow[(j + 2) * b_col], brow[(j + 3) * b_col]};
  return vld1q_f32(lanes);
}

template <bool kFma>
void gemm_neon(Trans trans_a, Trans trans_b, std::size_t m, std::size_t n,
               std::size_t k, const float* a, std::size_t lda,
               const float* b, std::size_t ldb, float* c, std::size_t ldc) {
  const std::size_t a_row = trans_a == Trans::kNo ? lda : 1;
  const std::size_t a_col = trans_a == Trans::kNo ? 1 : lda;
  const std::size_t b_row = trans_b == Trans::kNo ? ldb : 1;
  const std::size_t b_col = trans_b == Trans::kNo ? 1 : ldb;
  for (std::size_t ib = 0; ib < m; ib += kBlockM) {
    const std::size_t ie = std::min(m, ib + kBlockM);
    for (std::size_t kb = 0; kb < k; kb += kBlockK) {
      const std::size_t ke = std::min(k, kb + kBlockK);
      for (std::size_t jb = 0; jb < n; jb += kBlockN) {
        const std::size_t je = std::min(n, jb + kBlockN);
        for (std::size_t i = ib; i < ie; ++i) {
          float* __restrict crow = c + i * ldc;
          for (std::size_t p = kb; p < ke; ++p) {
            const float av = a[i * a_row + p * a_col];
            const float32x4_t vav = vdupq_n_f32(av);
            const float* __restrict brow = b + p * b_row;
            std::size_t j = jb;
            for (; j + 4 <= je; j += 4) {
              const float32x4_t bv = load_b4(brow, j, b_col);
              float32x4_t cv = vld1q_f32(crow + j);
              if constexpr (kFma) {
                cv = vfmaq_f32(cv, vav, bv);
              } else {
                cv = vaddq_f32(cv, vmulq_f32(vav, bv));
              }
              vst1q_f32(crow + j, cv);
            }
            for (; j < je; ++j) crow[j] += av * brow[j * b_col];
          }
        }
      }
    }
  }
}

}  // namespace

const KernelTable* neon_table() {
  static const KernelTable table = [] {
    KernelTable t = scalar_table();
    t.isa = util::SimdIsa::kNeon;
    t.gemm = &gemm_neon<false>;
    t.gemm_fma = &gemm_neon<true>;
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
