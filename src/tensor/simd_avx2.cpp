// AVX2 kernel table (requires avx2+fma+f16c at runtime; this TU is built
// with -mavx2 -mfma -mf16c -ffp-contract=off and must only be entered
// through the dispatch in simd_dispatch.cpp).
//
// Every kernel except the _fma GEMM variant is bit-identical to the scalar
// table: vector lanes perform the same fl(mul) -> fl(add) sequence per
// element in the same order the scalar loops do, F16C NaN lanes are patched
// through the scalar converter (hardware quietizes sNaN payloads), and the
// qint8 round-half-away is emulated exactly (see qint8_quantize below).

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
// Register-blocked microkernel: an MR x NR C tile held in ymm registers, A
// packed (alpha pre-applied — same fl(alpha*a) the scalar kernel computes
// per use) into an MR-interleaved KC panel, B read in place. For a fixed C
// element the k terms still accumulate in ascending p with mul and add
// rounded separately, so the result is bit-identical to the scalar loop.
//
// The same microkernel serves partial tiles: its live rows (1..kMr) and its
// 8-lane column vectors (1 or 2) are template parameters. Rows past the
// live count are never loaded, computed or stored. A tile whose width is
// not a multiple of 8 masks its last vector on every B load and on the C
// load and store (vmaskmov never touches a masked-off lane's memory); full
// tiles run a mask-free instantiation.

constexpr std::size_t kMr = 6;
constexpr std::size_t kLanes = 8;
constexpr std::size_t kNr = 2 * kLanes;  // two __m256 per row
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
__m256 load_vec(const float* row, std::size_t v, __m256i tail) {
  if (kMasked && v + 1 == kVecs) {
    return _mm256_maskload_ps(row + v * kLanes, tail);
  }
  return _mm256_loadu_ps(row + v * kLanes);
}

template <std::size_t kVecs, bool kMasked>
void store_vec(float* row, std::size_t v, __m256i tail, __m256 x) {
  if (kMasked && v + 1 == kVecs) {
    _mm256_maskstore_ps(row + v * kLanes, tail, x);
  } else {
    _mm256_storeu_ps(row + v * kLanes, x);
  }
}

// C tile (kRows x nr) += packed A panel x B panel over kc steps.
template <bool kFma, std::size_t kRows, std::size_t kVecs, bool kMasked>
void microkernel(const float* apack, std::size_t kc, const float* b,
                 std::size_t ldb, float* c, std::size_t ldc, std::size_t nr) {
  const __m256i mask = _mm256_cmpgt_epi32(
      _mm256_set1_epi32(static_cast<int>(nr - (kVecs - 1) * kLanes)),
      _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
  __m256 acc[kRows][kVecs];
  for (std::size_t r = 0; r < kRows; ++r) {
    for (std::size_t v = 0; v < kVecs; ++v) {
      acc[r][v] = load_vec<kVecs, kMasked>(c + r * ldc, v, mask);
    }
  }
  for (std::size_t p = 0; p < kc; ++p) {
    __m256 bv[kVecs];
    for (std::size_t v = 0; v < kVecs; ++v) {
      bv[v] = load_vec<kVecs, kMasked>(b + p * ldb, v, mask);
    }
    const float* ap = apack + p * kMr;
    for (std::size_t r = 0; r < kRows; ++r) {
      const __m256 av = _mm256_broadcast_ss(ap + r);
      for (std::size_t v = 0; v < kVecs; ++v) {
        if constexpr (kFma) {
          acc[r][v] = _mm256_fmadd_ps(av, bv[v], acc[r][v]);
        } else {
          acc[r][v] = _mm256_add_ps(acc[r][v], _mm256_mul_ps(av, bv[v]));
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
void gemm_nn_range_avx2(std::size_t m0, std::size_t m1, std::size_t n,
                        std::size_t k, float alpha, const float* a,
                        std::size_t lda, const float* b, std::size_t ldb,
                        float* c, std::size_t ldc) {
  // Thread-local pack panel: ~6 KiB, reused across calls, one per worker.
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

// ------------------------------------------------------------- transpose
//
// 8 x 8 blocks transposed in registers (unpack, shuffle, permute2f128),
// scalar copies for the ragged edges. Pure data movement: every output
// float is a copy of one input float, so the bits cannot change.

void transpose8x8(const float* src, std::size_t lds, float* dst,
                  std::size_t ldd) {
  __m256 r[8];
  for (std::size_t i = 0; i < 8; ++i) r[i] = _mm256_loadu_ps(src + i * lds);
  __m256 t[8];
  for (std::size_t i = 0; i < 8; i += 2) {
    t[i] = _mm256_unpacklo_ps(r[i], r[i + 1]);
    t[i + 1] = _mm256_unpackhi_ps(r[i], r[i + 1]);
  }
  // s[h + i] holds column i (low half) and column i + 4 (high half) of
  // rows h..h+3.
  __m256 s[8];
  for (std::size_t h = 0; h < 8; h += 4) {
    s[h + 0] = _mm256_shuffle_ps(t[h + 0], t[h + 2], _MM_SHUFFLE(1, 0, 1, 0));
    s[h + 1] = _mm256_shuffle_ps(t[h + 0], t[h + 2], _MM_SHUFFLE(3, 2, 3, 2));
    s[h + 2] = _mm256_shuffle_ps(t[h + 1], t[h + 3], _MM_SHUFFLE(1, 0, 1, 0));
    s[h + 3] = _mm256_shuffle_ps(t[h + 1], t[h + 3], _MM_SHUFFLE(3, 2, 3, 2));
  }
  for (std::size_t i = 0; i < 4; ++i) {
    _mm256_storeu_ps(dst + i * ldd,
                     _mm256_permute2f128_ps(s[i], s[i + 4], 0x20));
    _mm256_storeu_ps(dst + (i + 4) * ldd,
                     _mm256_permute2f128_ps(s[i], s[i + 4], 0x31));
  }
}

void transpose_avx2(const float* x, std::size_t rows, std::size_t cols,
                    std::size_t ldx, float* out) {
  const std::size_t rows8 = rows - rows % 8;
  const std::size_t cols8 = cols - cols % 8;
  for (std::size_t r0 = 0; r0 < rows8; r0 += 8) {
    for (std::size_t c0 = 0; c0 < cols8; c0 += 8) {
      transpose8x8(x + c0 * ldx + r0, ldx, out + r0 * cols + c0, cols);
    }
    for (std::size_t r = r0; r < r0 + 8; ++r) {
      for (std::size_t c = cols8; c < cols; ++c) {
        out[r * cols + c] = x[c * ldx + r];
      }
    }
  }
  for (std::size_t r = rows8; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) out[r * cols + c] = x[c * ldx + r];
  }
}

// ----------------------------------------------------------------- scale

void scale_avx2(float* c, std::size_t n, float beta) {
  const __m256 vb = _mm256_set1_ps(beta);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(c + i, _mm256_mul_ps(_mm256_loadu_ps(c + i), vb));
  }
  for (; i < n; ++i) c[i] *= beta;
}

// ------------------------------------------------------------------- f16

void f16_encode_avx2(const float* src, std::size_t n, std::uint16_t* dst) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 v = _mm256_loadu_ps(src + i);
    _mm_storeu_si128(
        reinterpret_cast<__m128i*>(dst + i),
        _mm256_cvtps_ph(v, _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC));
    const int nan_lanes =
        _mm256_movemask_ps(_mm256_cmp_ps(v, v, _CMP_UNORD_Q));
    if (nan_lanes != 0) {
      // vcvtps2ph quietizes sNaN payloads; the wire format preserves the
      // scalar converter's payload bits, so NaN lanes go the scalar way.
      for (int l = 0; l < 8; ++l) {
        if (nan_lanes & (1 << l)) dst[i + l] = util::f32_to_f16(src[i + l]);
      }
    }
  }
  for (; i < n; ++i) dst[i] = util::f32_to_f16(src[i]);
}

void f16_decode_avx2(const std::uint16_t* src, std::size_t n, float* dst) {
  const __m128i mag_mask = _mm_set1_epi16(0x7fff);
  const __m128i inf16 = _mm_set1_epi16(0x7c00);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m128i h =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + i));
    _mm256_storeu_ps(dst + i, _mm256_cvtph_ps(h));
    // NaN halves: (h & 0x7fff) > 0x7c00 (both operands are non-negative in
    // the signed 16-bit compare).
    const int nan_bytes = _mm_movemask_epi8(
        _mm_cmpgt_epi16(_mm_and_si128(h, mag_mask), inf16));
    if (nan_bytes != 0) {
      for (int l = 0; l < 8; ++l) {
        if (nan_bytes & (1 << (2 * l))) dst[i + l] = util::f16_to_f32(src[i + l]);
      }
    }
  }
  for (; i < n; ++i) dst[i] = util::f16_to_f32(src[i]);
}

// ----------------------------------------------------------------- qint8

void minmax_finite_avx2(const float* src, std::size_t n, float* lo,
                        float* hi, bool* finite) {
  const float inf = std::numeric_limits<float>::infinity();
  float mn = inf;
  float mx = -inf;
  bool ok = true;
  std::size_t i = 0;
  if (n >= 8) {
    const __m256 vinf = _mm256_set1_ps(inf);
    const __m256 abs_mask =
        _mm256_castsi256_ps(_mm256_set1_epi32(0x7fffffff));
    __m256 vmn = vinf;
    __m256 vmx = _mm256_set1_ps(-inf);
    __m256 vok = _mm256_castsi256_ps(_mm256_set1_epi32(-1));
    for (; i + 8 <= n; i += 8) {
      const __m256 v = _mm256_loadu_ps(src + i);
      // |v| < inf is false for NaN (unordered) and for inf itself.
      vok = _mm256_and_ps(
          vok, _mm256_cmp_ps(_mm256_and_ps(v, abs_mask), vinf, _CMP_LT_OQ));
      vmn = _mm256_min_ps(vmn, v);
      vmx = _mm256_max_ps(vmx, v);
    }
    ok = _mm256_movemask_ps(vok) == 0xff;
    alignas(32) float lanes[8];
    _mm256_store_ps(lanes, vmn);
    for (float lane : lanes) mn = std::min(mn, lane);
    _mm256_store_ps(lanes, vmx);
    for (float lane : lanes) mx = std::max(mx, lane);
  }
  for (; i < n; ++i) {
    if (!std::isfinite(src[i])) ok = false;
    mn = std::min(mn, src[i]);
    mx = std::max(mx, src[i]);
  }
  *lo = mn + 0.0f;  // canonicalize -0.0 (see scalar kernel)
  *hi = mx + 0.0f;
  *finite = ok;
}

void qint8_quantize_avx2(const float* src, std::size_t n, float lo,
                         float scale, std::uint8_t* dst) {
  const __m256 vlo = _mm256_set1_ps(lo);
  const __m256 vs = _mm256_set1_ps(scale);
  const __m256 vhalf = _mm256_set1_ps(0.5f);
  const __m256 vone = _mm256_set1_ps(1.0f);
  const __m256 vzero = _mm256_setzero_ps();
  const __m256 v255 = _mm256_set1_ps(255.0f);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 t =
        _mm256_div_ps(_mm256_sub_ps(_mm256_loadu_ps(src + i), vlo), vs);
    // lroundf emulation (round half away from zero, t >= -0 here): split
    // t into trunc + exact fraction (Sterbenz: tr <= t <= 2*tr), bump when
    // the fraction reaches one half, then clamp. Bit-identical to the
    // scalar kernel's lroundf+clamp over the codec's domain.
    const __m256 tr =
        _mm256_round_ps(t, _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC);
    const __m256 frac = _mm256_sub_ps(t, tr);
    const __m256 bump =
        _mm256_and_ps(_mm256_cmp_ps(frac, vhalf, _CMP_GE_OQ), vone);
    __m256 r = _mm256_add_ps(tr, bump);
    r = _mm256_min_ps(_mm256_max_ps(r, vzero), v255);
    const __m256i q = _mm256_cvtps_epi32(r);  // integral-valued -> exact
    const __m128i p16 = _mm_packus_epi32(_mm256_castsi256_si128(q),
                                         _mm256_extracti128_si256(q, 1));
    const __m128i p8 = _mm_packus_epi16(p16, p16);
    _mm_storel_epi64(reinterpret_cast<__m128i*>(dst + i), p8);
  }
  for (; i < n; ++i) {
    const float t = (src[i] - lo) / scale;
    const long r = std::lroundf(t);
    dst[i] = static_cast<std::uint8_t>(r < 0 ? 0 : (r > 255 ? 255 : r));
  }
}

void qint8_dequantize_avx2(const std::uint8_t* src, std::size_t n, float lo,
                           float scale, float* dst) {
  const __m256 vlo = _mm256_set1_ps(lo);
  const __m256 vs = _mm256_set1_ps(scale);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i q32 = _mm256_cvtepu8_epi32(
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(src + i)));
    const __m256 qf = _mm256_cvtepi32_ps(q32);
    _mm256_storeu_ps(dst + i, _mm256_add_ps(vlo, _mm256_mul_ps(vs, qf)));
  }
  for (; i < n; ++i) dst[i] = lo + scale * static_cast<float>(src[i]);
}

void qint8_accumulate_avx2(std::int64_t* acc, const std::uint8_t* q,
                           std::size_t n, std::int32_t m) {
  const __m256i vm = _mm256_set1_epi32(m);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i q32 = _mm256_cvtepu8_epi32(
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(q + i)));
    const __m256i prod = _mm256_mullo_epi32(q32, vm);  // |m|*255 < 2^31
    const __m256i p0 =
        _mm256_cvtepi32_epi64(_mm256_castsi256_si128(prod));
    const __m256i p1 =
        _mm256_cvtepi32_epi64(_mm256_extracti128_si256(prod, 1));
    auto* a = reinterpret_cast<__m256i*>(acc + i);
    _mm256_storeu_si256(a, _mm256_add_epi64(_mm256_loadu_si256(a), p0));
    auto* a1 = reinterpret_cast<__m256i*>(acc + i + 4);
    _mm256_storeu_si256(a1, _mm256_add_epi64(_mm256_loadu_si256(a1), p1));
  }
  const auto m64 = static_cast<std::int64_t>(m);
  for (; i < n; ++i) acc[i] += m64 * static_cast<std::int64_t>(q[i]);
}

// ------------------------------------------------------------- l2 rows
//
// Two ymm of 4 doubles per packed block (rows 0-3 and 4-7): lane r runs
// row r's scalar chain (widen, subtract, square, add in ascending i), so
// every lane rounds exactly as tensor::l2_distance does. The blocks of a
// pass share each q[i] broadcast and keep independent add chains in
// flight.

template <std::size_t kBlocks>
void l2_pass(const float* q, std::size_t dim, const float* blocks,
             std::size_t live, float* out) {
  const std::size_t stride = dim * kL2Block;
  __m256d acc[kBlocks][2];
  for (std::size_t b = 0; b < kBlocks; ++b) {
    acc[b][0] = _mm256_setzero_pd();
    acc[b][1] = _mm256_setzero_pd();
  }
  for (std::size_t i = 0; i < dim; ++i) {
    const __m256d qv = _mm256_set1_pd(static_cast<double>(q[i]));
    for (std::size_t b = 0; b < kBlocks; ++b) {
      const float* r = blocks + b * stride + i * kL2Block;
      for (std::size_t h = 0; h < 2; ++h) {
        const __m256d x =
            _mm256_sub_pd(qv, _mm256_cvtps_pd(_mm_loadu_ps(r + 4 * h)));
        acc[b][h] = _mm256_add_pd(acc[b][h], _mm256_mul_pd(x, x));
      }
    }
  }
  alignas(16) float d[kBlocks * kL2Block];
  for (std::size_t b = 0; b < kBlocks; ++b) {
    for (std::size_t h = 0; h < 2; ++h) {
      _mm_store_ps(d + b * kL2Block + 4 * h,
                   _mm256_cvtpd_ps(_mm256_sqrt_pd(acc[b][h])));
    }
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

// Two blocks (16 rows, four add chains) per pass, then one.
void l2_distances_avx2(const float* q, std::size_t dim, const float* packed,
                       std::size_t rows, float* out) {
  const std::size_t b = l2_passes<2>(q, dim, packed, rows, 0, out);
  l2_passes<1>(q, dim, packed, rows, b, out);
}

}  // namespace

const KernelTable* avx2_table() {
  static const KernelTable table = {
      util::SimdIsa::kAvx2,
      &gemm_nn_range_avx2<false>,
      &gemm_nn_range_avx2<true>,
      &scale_avx2,
      &transpose_avx2,
      &f16_encode_avx2,
      &f16_decode_avx2,
      &minmax_finite_avx2,
      &qint8_quantize_avx2,
      &qint8_dequantize_avx2,
      &qint8_accumulate_avx2,
      &l2_distances_avx2,
  };
  return &table;
}

}  // namespace detail
}  // namespace fedclust::tensor::simd

#else  // non-x86 build: no AVX2 table

#include "tensor/simd_tables.h"

namespace fedclust::tensor::simd::detail {
const KernelTable* avx2_table() { return nullptr; }
}  // namespace fedclust::tensor::simd::detail

#endif
