// AVX-512 kernel table (avx512f+bw+vl plus the AVX2 baseline at runtime;
// built with the matching -mavx512* flags and -ffp-contract=off, entered
// only through simd_dispatch.cpp). Same bit-identity contract as the AVX2
// table — see simd_avx2.cpp for the per-kernel equivalence arguments; this
// file is the 16-lane analogue with mask registers instead of movemasks.

#if defined(__x86_64__) || defined(__i386__)

#include <immintrin.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <utility>
#include <vector>

#include "tensor/simd_tables.h"
#include "util/f16.h"

namespace fedclust::tensor::simd {
namespace detail {

namespace {

// ------------------------------------------------------------------ gemm
//
// One register-blocked microkernel serves every tile: its live rows
// (1..kMr) and its 16-lane column vectors (1 or 2) are template
// parameters, so a partial tile holds its C block in zmm registers for the
// whole kc panel just as a full one does. Rows past the live count are
// never loaded, computed or stored. A tile whose width is not a multiple
// of 16 masks its last vector on every B load and on the C load and store,
// so a masked-off lane is never read from or written to memory; full tiles
// run a mask-free instantiation. For each C element the k terms still
// accumulate in ascending p with mul and add rounded separately — the
// scalar kernel's order (see simd_avx2.cpp).

constexpr std::size_t kMr = 8;
constexpr std::size_t kLanes = 16;
constexpr std::size_t kNr = 2 * kLanes;  // two __m512 per row
constexpr std::size_t kKc = 256;

// Rows [0, mr) of the panel; the microkernel never reads rows past mr.
void pack_a(const float* a, std::size_t lda, std::size_t i0, std::size_t mr,
            std::size_t kb, std::size_t kc, float alpha, float* apack) {
  for (std::size_t p = 0; p < kc; ++p) {
    for (std::size_t r = 0; r < mr; ++r) {
      apack[p * kMr + r] = alpha * a[(i0 + r) * lda + kb + p];
    }
  }
}

// Vector v of a kVecs-wide tile row; only the last vector may be masked.
template <std::size_t kVecs, bool kMasked>
__m512 load_vec(const float* row, std::size_t v, __mmask16 tail) {
  if (kMasked && v + 1 == kVecs) {
    return _mm512_maskz_loadu_ps(tail, row + v * kLanes);
  }
  return _mm512_loadu_ps(row + v * kLanes);
}

template <std::size_t kVecs, bool kMasked>
void store_vec(float* row, std::size_t v, __mmask16 tail, __m512 x) {
  if (kMasked && v + 1 == kVecs) {
    _mm512_mask_storeu_ps(row + v * kLanes, tail, x);
  } else {
    _mm512_storeu_ps(row + v * kLanes, x);
  }
}

// C tile (kRows x nr) += packed A panel x B panel over kc steps.
template <bool kFma, std::size_t kRows, std::size_t kVecs, bool kMasked>
void microkernel(const float* apack, std::size_t kc, const float* b,
                 std::size_t ldb, float* c, std::size_t ldc, std::size_t nr) {
  const auto mask =
      static_cast<__mmask16>((1u << (nr - (kVecs - 1) * kLanes)) - 1u);
  __m512 acc[kRows][kVecs];
  for (std::size_t r = 0; r < kRows; ++r) {
    for (std::size_t v = 0; v < kVecs; ++v) {
      acc[r][v] = load_vec<kVecs, kMasked>(c + r * ldc, v, mask);
    }
  }
  for (std::size_t p = 0; p < kc; ++p) {
    __m512 bv[kVecs];
    for (std::size_t v = 0; v < kVecs; ++v) {
      bv[v] = load_vec<kVecs, kMasked>(b + p * ldb, v, mask);
    }
    const float* ap = apack + p * kMr;
    for (std::size_t r = 0; r < kRows; ++r) {
      const __m512 av = _mm512_set1_ps(ap[r]);
      for (std::size_t v = 0; v < kVecs; ++v) {
        if constexpr (kFma) {
          acc[r][v] = _mm512_fmadd_ps(av, bv[v], acc[r][v]);
        } else {
          acc[r][v] = _mm512_add_ps(acc[r][v], _mm512_mul_ps(av, bv[v]));
        }
      }
    }
  }
  for (std::size_t r = 0; r < kRows; ++r) {
    for (std::size_t v = 0; v < kVecs; ++v) {
      store_vec<kVecs, kMasked>(c + r * ldc, v, mask, acc[r][v]);
    }
  }
}

using Tile = void (*)(const float*, std::size_t, const float*, std::size_t,
                      float*, std::size_t, std::size_t);

template <bool kFma, std::size_t kVecs, bool kMasked, std::size_t... kR>
constexpr std::array<Tile, kMr> tiles_by_rows(std::index_sequence<kR...>) {
  return {&microkernel<kFma, kR + 1, kVecs, kMasked>...};
}

// The instantiation for an mr x nr tile (1 <= mr <= kMr, 1 <= nr <= kNr).
template <bool kFma>
Tile tile_for(std::size_t mr, std::size_t nr) {
  constexpr auto rows = std::make_index_sequence<kMr>{};
  static constexpr std::array<Tile, kMr> kTiles[2][2] = {
      {tiles_by_rows<kFma, 1, false>(rows),
       tiles_by_rows<kFma, 1, true>(rows)},
      {tiles_by_rows<kFma, 2, false>(rows),
       tiles_by_rows<kFma, 2, true>(rows)},
  };
  return kTiles[(nr - 1) / kLanes][nr % kLanes != 0][mr - 1];
}

template <bool kFma>
void gemm_nn_range_avx512(std::size_t m0, std::size_t m1, std::size_t n,
                          std::size_t k, float alpha, const float* a,
                          std::size_t lda, const float* b, std::size_t ldb,
                          float* c, std::size_t ldc) {
  thread_local std::vector<float> apack_buf;
  apack_buf.resize(kMr * kKc);
  float* apack = apack_buf.data();

  for (std::size_t i0 = m0; i0 < m1; i0 += kMr) {
    const std::size_t mr = std::min(kMr, m1 - i0);
    for (std::size_t kb = 0; kb < k; kb += kKc) {
      const std::size_t kc = std::min(kKc, k - kb);
      pack_a(a, lda, i0, mr, kb, kc, alpha, apack);
      for (std::size_t j0 = 0; j0 < n; j0 += kNr) {
        const std::size_t nr = std::min(kNr, n - j0);
        tile_for<kFma>(mr, nr)(apack, kc, b + kb * ldb + j0, ldb,
                               c + i0 * ldc + j0, ldc, nr);
      }
    }
  }
}

// ----------------------------------------------------------------- scale

void scale_avx512(float* c, std::size_t n, float beta) {
  const __m512 vb = _mm512_set1_ps(beta);
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    _mm512_storeu_ps(c + i, _mm512_mul_ps(_mm512_loadu_ps(c + i), vb));
  }
  for (; i < n; ++i) c[i] *= beta;
}

// ------------------------------------------------------------------- f16

void f16_encode_avx512(const float* src, std::size_t n, std::uint16_t* dst) {
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m512 v = _mm512_loadu_ps(src + i);
    _mm256_storeu_si256(
        reinterpret_cast<__m256i*>(dst + i),
        _mm512_cvtps_ph(v, _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC));
    const __mmask16 nan_lanes = _mm512_cmp_ps_mask(v, v, _CMP_UNORD_Q);
    if (nan_lanes != 0) {
      for (int l = 0; l < 16; ++l) {
        if (nan_lanes & (1u << l)) dst[i + l] = util::f32_to_f16(src[i + l]);
      }
    }
  }
  for (; i < n; ++i) dst[i] = util::f32_to_f16(src[i]);
}

void f16_decode_avx512(const std::uint16_t* src, std::size_t n, float* dst) {
  const __m256i mag_mask = _mm256_set1_epi16(0x7fff);
  const __m256i inf16 = _mm256_set1_epi16(0x7c00);
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m256i h =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
    _mm512_storeu_ps(dst + i, _mm512_cvtph_ps(h));
    const __mmask16 nan_lanes =
        _mm256_cmpgt_epi16_mask(_mm256_and_si256(h, mag_mask), inf16);
    if (nan_lanes != 0) {
      for (int l = 0; l < 16; ++l) {
        if (nan_lanes & (1u << l)) dst[i + l] = util::f16_to_f32(src[i + l]);
      }
    }
  }
  for (; i < n; ++i) dst[i] = util::f16_to_f32(src[i]);
}

// ----------------------------------------------------------------- qint8

void minmax_finite_avx512(const float* src, std::size_t n, float* lo,
                          float* hi, bool* finite) {
  const float inf = std::numeric_limits<float>::infinity();
  float mn = inf;
  float mx = -inf;
  bool ok = true;
  std::size_t i = 0;
  if (n >= 16) {
    const __m512 vinf = _mm512_set1_ps(inf);
    __m512 vmn = vinf;
    __m512 vmx = _mm512_set1_ps(-inf);
    __mmask16 vok = 0xffffu;
    for (; i + 16 <= n; i += 16) {
      const __m512 v = _mm512_loadu_ps(src + i);
      vok &= _mm512_cmp_ps_mask(_mm512_abs_ps(v), vinf, _CMP_LT_OQ);
      vmn = _mm512_min_ps(vmn, v);
      vmx = _mm512_max_ps(vmx, v);
    }
    ok = vok == 0xffffu;
    alignas(64) float lanes[16];
    _mm512_store_ps(lanes, vmn);
    for (float lane : lanes) mn = std::min(mn, lane);
    _mm512_store_ps(lanes, vmx);
    for (float lane : lanes) mx = std::max(mx, lane);
  }
  for (; i < n; ++i) {
    if (!std::isfinite(src[i])) ok = false;
    mn = std::min(mn, src[i]);
    mx = std::max(mx, src[i]);
  }
  *lo = mn + 0.0f;
  *hi = mx + 0.0f;
  *finite = ok;
}

void qint8_quantize_avx512(const float* src, std::size_t n, float lo,
                           float scale, std::uint8_t* dst) {
  const __m512 vlo = _mm512_set1_ps(lo);
  const __m512 vs = _mm512_set1_ps(scale);
  const __m512 vhalf = _mm512_set1_ps(0.5f);
  const __m512 vone = _mm512_set1_ps(1.0f);
  const __m512 vzero = _mm512_setzero_ps();
  const __m512 v255 = _mm512_set1_ps(255.0f);
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m512 t =
        _mm512_div_ps(_mm512_sub_ps(_mm512_loadu_ps(src + i), vlo), vs);
    const __m512 tr =
        _mm512_roundscale_ps(t, _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC);
    const __mmask16 bump =
        _mm512_cmp_ps_mask(_mm512_sub_ps(t, tr), vhalf, _CMP_GE_OQ);
    __m512 r = _mm512_mask_add_ps(tr, bump, tr, vone);
    r = _mm512_min_ps(_mm512_max_ps(r, vzero), v255);
    const __m512i q = _mm512_cvtps_epi32(r);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + i),
                     _mm512_cvtepi32_epi8(q));  // 0..255: truncation is exact
  }
  for (; i < n; ++i) {
    const float t = (src[i] - lo) / scale;
    const long r = std::lroundf(t);
    dst[i] = static_cast<std::uint8_t>(r < 0 ? 0 : (r > 255 ? 255 : r));
  }
}

void qint8_dequantize_avx512(const std::uint8_t* src, std::size_t n,
                             float lo, float scale, float* dst) {
  const __m512 vlo = _mm512_set1_ps(lo);
  const __m512 vs = _mm512_set1_ps(scale);
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m512i q32 = _mm512_cvtepu8_epi32(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + i)));
    const __m512 qf = _mm512_cvtepi32_ps(q32);
    _mm512_storeu_ps(dst + i, _mm512_add_ps(vlo, _mm512_mul_ps(vs, qf)));
  }
  for (; i < n; ++i) dst[i] = lo + scale * static_cast<float>(src[i]);
}

void qint8_accumulate_avx512(std::int64_t* acc, const std::uint8_t* q,
                             std::size_t n, std::int32_t m) {
  const __m512i vm = _mm512_set1_epi32(m);
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m512i q32 = _mm512_cvtepu8_epi32(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(q + i)));
    const __m512i prod = _mm512_mullo_epi32(q32, vm);
    const __m512i p0 =
        _mm512_cvtepi32_epi64(_mm512_extracti64x4_epi64(prod, 0));
    const __m512i p1 =
        _mm512_cvtepi32_epi64(_mm512_extracti64x4_epi64(prod, 1));
    auto* a0 = reinterpret_cast<__m512i*>(acc + i);
    _mm512_storeu_si512(a0, _mm512_add_epi64(_mm512_loadu_si512(a0), p0));
    auto* a1 = reinterpret_cast<__m512i*>(acc + i + 8);
    _mm512_storeu_si512(a1, _mm512_add_epi64(_mm512_loadu_si512(a1), p1));
  }
  const auto m64 = static_cast<std::int64_t>(m);
  for (; i < n; ++i) acc[i] += m64 * static_cast<std::int64_t>(q[i]);
}

// ------------------------------------------------------------- l2 rows
//
// One zmm of 8 doubles per packed block: lane r runs row r's scalar chain
// (widen, subtract, square, add in ascending i), so every lane rounds
// exactly as tensor::l2_distance does. The blocks of a pass share each
// q[i] broadcast and keep independent add chains in flight.

template <std::size_t kBlocks>
void l2_pass(const float* q, std::size_t dim, const float* blocks,
             std::size_t live, float* out) {
  const std::size_t stride = dim * kL2Block;
  __m512d acc[kBlocks];
  for (std::size_t b = 0; b < kBlocks; ++b) acc[b] = _mm512_setzero_pd();
  for (std::size_t i = 0; i < dim; ++i) {
    const __m512d qv = _mm512_set1_pd(static_cast<double>(q[i]));
    for (std::size_t b = 0; b < kBlocks; ++b) {
      const __m512d r = _mm512_cvtps_pd(
          _mm256_loadu_ps(blocks + b * stride + i * kL2Block));
      const __m512d x = _mm512_sub_pd(qv, r);
      acc[b] = _mm512_add_pd(acc[b], _mm512_mul_pd(x, x));
    }
  }
  alignas(32) float d[kBlocks * kL2Block];
  for (std::size_t b = 0; b < kBlocks; ++b) {
    _mm256_store_ps(d + b * kL2Block, _mm512_cvtpd_ps(_mm512_sqrt_pd(acc[b])));
  }
  std::copy_n(d, std::min(live, kBlocks * kL2Block), out);
}

// Passes of kBlocks blocks from block b on while whole passes remain;
// returns the first block left over.
template <std::size_t kBlocks>
std::size_t l2_passes(const float* q, std::size_t dim, const float* packed,
                      std::size_t rows, std::size_t b, float* out) {
  const std::size_t n_blocks = (rows + kL2Block - 1) / kL2Block;
  for (; b + kBlocks <= n_blocks; b += kBlocks) {
    l2_pass<kBlocks>(q, dim, packed + b * dim * kL2Block,
                     rows - b * kL2Block, out + b * kL2Block);
  }
  return b;
}

// Eight blocks (64 rows) per pass, then 4, 2 and 1 for what is left.
void l2_distances_avx512(const float* q, std::size_t dim, const float* packed,
                         std::size_t rows, float* out) {
  std::size_t b = l2_passes<8>(q, dim, packed, rows, 0, out);
  b = l2_passes<4>(q, dim, packed, rows, b, out);
  b = l2_passes<2>(q, dim, packed, rows, b, out);
  l2_passes<1>(q, dim, packed, rows, b, out);
}

}  // namespace

const KernelTable* avx512_table() {
  static const KernelTable table = {
      util::SimdIsa::kAvx512,
      &gemm_nn_range_avx512<false>,
      &gemm_nn_range_avx512<true>,
      &scale_avx512,
      avx2_table()->transpose,  // a copy gains nothing from 16 lanes
      &f16_encode_avx512,
      &f16_decode_avx512,
      &minmax_finite_avx512,
      &qint8_quantize_avx512,
      &qint8_dequantize_avx512,
      &qint8_accumulate_avx512,
      &l2_distances_avx512,
  };
  return &table;
}

}  // namespace detail
}  // namespace fedclust::tensor::simd

#else  // non-x86 build: no AVX-512 table

#include "tensor/simd_tables.h"

namespace fedclust::tensor::simd::detail {
const KernelTable* avx512_table() { return nullptr; }
}  // namespace fedclust::tensor::simd::detail

#endif
