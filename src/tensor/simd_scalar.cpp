// Scalar kernel table — the golden reference every SIMD table is tested
// against bit for bit. The gemm loop is the seed implementation of
// tensor::gemm's inner kernel, kept verbatim: for each C element the k
// terms fl(fl(alpha*a)*b) accumulate in ascending p with one rounding per
// multiply and one per add (-ffp-contract=off forbids FMA contraction).
// Do not "optimize" these loops; speed lives in the SIMD tables.

#include "tensor/simd.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "tensor/simd_tables.h"
#include "util/f16.h"

namespace fedclust::tensor::simd {
namespace detail {

namespace {

// Panel sizes tuned for a ~32 KiB L1 / 1 MiB L2 scalar core.
constexpr std::size_t kBlockM = 64;
constexpr std::size_t kBlockN = 64;
constexpr std::size_t kBlockK = 128;

void gemm_nn_range_scalar(std::size_t m0, std::size_t m1, std::size_t n,
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
          // No zero-skip on av: with real weights an exact zero is
          // vanishingly rare, and a branch here defeats vectorization of
          // the inner loop below.
          for (std::size_t p = kb; p < ke; ++p) {
            const float av = alpha * arow[p];
            const float* __restrict brow = b + p * ldb;
            for (std::size_t j = jb; j < je; ++j) {
              crow[j] += av * brow[j];
            }
          }
        }
      }
    }
  }
}

void scale_scalar(float* c, std::size_t n, float beta) {
  for (std::size_t i = 0; i < n; ++i) c[i] *= beta;
}

void transpose_scalar(const float* x, std::size_t rows, std::size_t cols,
                      std::size_t ldx, float* out) {
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) out[r * cols + c] = x[c * ldx + r];
  }
}

void f16_encode_scalar(const float* src, std::size_t n, std::uint16_t* dst) {
  for (std::size_t i = 0; i < n; ++i) dst[i] = util::f32_to_f16(src[i]);
}

void f16_decode_scalar(const std::uint16_t* src, std::size_t n, float* dst) {
  for (std::size_t i = 0; i < n; ++i) dst[i] = util::f16_to_f32(src[i]);
}

void minmax_finite_scalar(const float* src, std::size_t n, float* lo,
                          float* hi, bool* finite) {
  float mn = std::numeric_limits<float>::infinity();
  float mx = -std::numeric_limits<float>::infinity();
  bool ok = true;
  for (std::size_t i = 0; i < n; ++i) {
    if (!std::isfinite(src[i])) ok = false;
    mn = std::min(mn, src[i]);
    mx = std::max(mx, src[i]);
  }
  // +0.0 canonicalization: min/max of {+0.0, -0.0} is scan-order dependent
  // (both compare equal), and lo/hi become wire bytes — adding +0.0 maps
  // both zeros to +0.0 so every scan order and every ISA agrees.
  *lo = mn + 0.0f;
  *hi = mx + 0.0f;
  *finite = ok;
}

void qint8_quantize_scalar(const float* src, std::size_t n, float lo,
                           float scale, std::uint8_t* dst) {
  for (std::size_t i = 0; i < n; ++i) {
    const float t = (src[i] - lo) / scale;
    const long r = std::lroundf(t);
    dst[i] = static_cast<std::uint8_t>(r < 0 ? 0 : (r > 255 ? 255 : r));
  }
}

void qint8_dequantize_scalar(const std::uint8_t* src, std::size_t n,
                             float lo, float scale, float* dst) {
  for (std::size_t i = 0; i < n; ++i) {
    dst[i] = lo + scale * static_cast<float>(src[i]);
  }
}

void qint8_accumulate_scalar(std::int64_t* acc, const std::uint8_t* q,
                             std::size_t n, std::int32_t m) {
  const auto m64 = static_cast<std::int64_t>(m);
  for (std::size_t i = 0; i < n; ++i) {
    acc[i] += m64 * static_cast<std::int64_t>(q[i]);
  }
}

// Each row runs tensor::l2_distance's loop term for term. The rows of a
// block advance together as independent chains, which changes no rounding
// and reads the feature-major block in order (one row at a time through
// the block's stride ran ~28% slower than the per-pair loop).
void l2_distances_scalar(const float* q, std::size_t dim, const float* packed,
                         std::size_t rows, float* out) {
  for (std::size_t t0 = 0; t0 < rows; t0 += kL2Block) {
    const float* block = packed + t0 * dim;
    double s[kL2Block] = {};  // every chain starts at +0.0
    for (std::size_t i = 0; i < dim; ++i) {
      const double qi = static_cast<double>(q[i]);
      for (std::size_t r = 0; r < kL2Block; ++r) {
        const double x = qi - static_cast<double>(block[i * kL2Block + r]);
        s[r] += x * x;
      }
    }
    for (std::size_t r = 0; r < kL2Block && t0 + r < rows; ++r) {
      out[t0 + r] = static_cast<float>(std::sqrt(s[r]));
    }
  }
}

}  // namespace

const KernelTable& scalar_table() {
  static const KernelTable table = {
      util::SimdIsa::kScalar,
      &gemm_nn_range_scalar,
      &gemm_nn_range_scalar,  // no reassociation to exploit without vectors
      &scale_scalar,
      &transpose_scalar,
      &f16_encode_scalar,
      &f16_decode_scalar,
      &minmax_finite_scalar,
      &qint8_quantize_scalar,
      &qint8_dequantize_scalar,
      &qint8_accumulate_scalar,
      &l2_distances_scalar,
  };
  return table;
}

}  // namespace detail
}  // namespace fedclust::tensor::simd
