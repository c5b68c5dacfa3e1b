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
#include <cstdint>
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
//
// Transposed operands are read where they are stored, while they are
// packed: pack_a reads either layout of A, and a transposed B is packed
// one kc x kNr panel at a time (pack_bt); an untransposed B is read in
// place.

constexpr std::size_t kMr = 8;
constexpr std::size_t kLanes = 16;
constexpr std::size_t kNr = 2 * kLanes;  // two __m512 per row
constexpr std::size_t kKc = 256;
constexpr std::size_t kMc = 8 * kMr;  // rows of A packed per block

// A per-thread pack buffer of at least n floats starting on a cache line,
// grown on demand and reused across calls.
float* pack_buffer(std::vector<float>& buf, std::size_t n) {
  constexpr std::size_t kLine = 64 / sizeof(float);
  if (buf.size() < n + kLine) buf.resize(n + kLine);
  const auto misalign = reinterpret_cast<std::uintptr_t>(buf.data()) % 64;
  return buf.data() + (64 - misalign) % 64 / sizeof(float);
}

// Rows [i0, i0 + mr) of op(A) over columns [kb, kb + kc), kMr-interleaved:
// apack[p * kMr + r] = op(A)[i0 + r, kb + p]. A transposed A holds the mr
// floats of each p side by side; rows past mr are written as zeros and
// never read.
void pack_a(Trans trans_a, const float* a, std::size_t lda, std::size_t i0,
            std::size_t mr, std::size_t kb, std::size_t kc, float* apack) {
  if (trans_a == Trans::kNo) {
    for (std::size_t p = 0; p < kc; ++p) {
      for (std::size_t r = 0; r < mr; ++r) {
        apack[p * kMr + r] = a[(i0 + r) * lda + kb + p];
      }
    }
    return;
  }
  const auto live = static_cast<__mmask8>((1u << mr) - 1u);
  for (std::size_t p = 0; p < kc; ++p) {
    _mm256_storeu_ps(apack + p * kMr,
                     _mm256_maskz_loadu_ps(live, a + (kb + p) * lda + i0));
  }
}

// Stands in for the stored rows of B past a ragged column group.
alignas(64) constexpr float kZeroRow[kKc] = {};

// dst[i * ldd + r] = rows[r][p + i] for i < 8 and r < 16: two 8 x 8 blocks
// transposed side by side in registers (unpack, shuffle, then a two-source
// permute), rows[0..7] in the low half of each zmm and rows[8..15] in the
// high half, so every output row is one 16-float store.
void transpose8x16(const float* const* rows, std::size_t p, float* dst,
                   std::size_t ldd) {
  __m512 r[8];
  for (std::size_t i = 0; i < 8; ++i) {
    // insertf64x4 moves the 8 floats as 4 doubles (avx512f, no dq).
    r[i] = _mm512_castpd_ps(_mm512_insertf64x4(
        _mm512_castps_pd(_mm512_castps256_ps512(_mm256_loadu_ps(rows[i] + p))),
        _mm256_castps_pd(_mm256_loadu_ps(rows[i + 8] + p)), 1));
  }
  __m512 t[8];
  for (std::size_t i = 0; i < 8; i += 2) {
    t[i] = _mm512_unpacklo_ps(r[i], r[i + 1]);
    t[i + 1] = _mm512_unpackhi_ps(r[i], r[i + 1]);
  }
  // In each half, s[h + i] holds column i (low 128 bits) and column i + 4
  // (high 128 bits) of rows h..h+3.
  __m512 s[8];
  for (std::size_t h = 0; h < 8; h += 4) {
    s[h + 0] = _mm512_shuffle_ps(t[h + 0], t[h + 2], _MM_SHUFFLE(1, 0, 1, 0));
    s[h + 1] = _mm512_shuffle_ps(t[h + 0], t[h + 2], _MM_SHUFFLE(3, 2, 3, 2));
    s[h + 2] = _mm512_shuffle_ps(t[h + 1], t[h + 3], _MM_SHUFFLE(1, 0, 1, 0));
    s[h + 3] = _mm512_shuffle_ps(t[h + 1], t[h + 3], _MM_SHUFFLE(3, 2, 3, 2));
  }
  const __m512i lo = _mm512_setr_epi32(0, 1, 2, 3, 16, 17, 18, 19, 8, 9, 10,
                                       11, 24, 25, 26, 27);
  const __m512i hi = _mm512_setr_epi32(4, 5, 6, 7, 20, 21, 22, 23, 12, 13,
                                       14, 15, 28, 29, 30, 31);
  for (std::size_t i = 0; i < 4; ++i) {
    _mm512_storeu_ps(dst + i * ldd,
                     _mm512_permutex2var_ps(s[i], lo, s[i + 4]));
    _mm512_storeu_ps(dst + (i + 4) * ldd,
                     _mm512_permutex2var_ps(s[i], hi, s[i + 4]));
  }
}

// Rows [kb, kb + kc) and columns [j0, j0 + nr) of op(B) for a B stored
// transposed, packed kNr floats a row: bpack[p * kNr + j] =
// b[(j0 + j) * ldb + kb + p]. Each group of 16 columns is transposed from
// 16 stored rows of B, 8 rows of the panel at a time; a group of fewer
// than 16 columns reads the zero row in place of the missing ones, and the
// kc % 8 rows past the last block are copied one float at a time. Columns
// past nr are never read.
void pack_bt(const float* b, std::size_t ldb, std::size_t j0, std::size_t nr,
             std::size_t kb, std::size_t kc, float* bpack) {
  const std::size_t kc8 = kc - kc % 8;
  for (std::size_t g = 0; g < nr; g += kLanes) {
    const std::size_t live = std::min(kLanes, nr - g);
    const float* rows[kLanes];
    for (std::size_t r = 0; r < kLanes; ++r) {
      rows[r] = r < live ? b + (j0 + g + r) * ldb + kb : kZeroRow;
    }
    float* dst = bpack + g;
    for (std::size_t p = 0; p < kc8; p += 8) {
      transpose8x16(rows, p, dst + p * kNr, kNr);
    }
    for (std::size_t p = kc8; p < kc; ++p) {
      for (std::size_t r = 0; r < live; ++r) dst[p * kNr + r] = rows[r][p];
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

// For each C element the k terms still run in ascending p: kc slabs run
// in ascending kb, and each stores its partial sums as floats. Per block
// of mc rows and kc slab, the block's A tiles are packed once, then each
// column panel runs every tile of the block. A B read in place makes the
// block one tile, which runs across every panel while it is hot; a
// transposed B is packed once per panel and shared by the kMc / kMr tiles
// of a block.
template <bool kFma>
void gemm_avx512(Trans trans_a, Trans trans_b, std::size_t m, std::size_t n,
                 std::size_t k, const float* a, std::size_t lda,
                 const float* b, std::size_t ldb, float* c, std::size_t ldc) {
  const bool pack_b = trans_b == Trans::kYes;
  const std::size_t mc = pack_b ? kMc : kMr;
  const std::size_t kc_max = std::min(k, kKc);
  thread_local std::vector<float> apack_buf;
  thread_local std::vector<float> bpack_buf;
  float* apack = pack_buffer(
      apack_buf, (std::min(m, mc) + kMr - 1) / kMr * kMr * kc_max);
  float* bpack = pack_b ? pack_buffer(bpack_buf, kc_max * kNr) : nullptr;
  for (std::size_t ib = 0; ib < m; ib += mc) {
    const std::size_t mb = std::min(mc, m - ib);
    for (std::size_t kb = 0; kb < k; kb += kKc) {
      const std::size_t kc = std::min(kKc, k - kb);
      // Tile t's panel starts at apack + t * kc (t is a multiple of kMr).
      for (std::size_t t = 0; t < mb; t += kMr) {
        pack_a(trans_a, a, lda, ib + t, std::min(kMr, mb - t), kb, kc,
               apack + t * kc);
      }
      for (std::size_t j0 = 0; j0 < n; j0 += kNr) {
        const std::size_t nr = std::min(kNr, n - j0);
        const float* panel = b + kb * ldb + j0;
        std::size_t ldp = ldb;
        if (pack_b) {
          pack_bt(b, ldb, j0, nr, kb, kc, bpack);
          panel = bpack;
          ldp = kNr;
        }
        for (std::size_t t = 0; t < mb; t += kMr) {
          tile_for<kFma>(std::min(kMr, mb - t), nr)(
              apack + t * kc, kc, panel, ldp, c + (ib + t) * ldc + j0, ldc,
              nr);
        }
      }
    }
  }
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
      &gemm_avx512<false>,
      &gemm_avx512<true>,
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
