#pragma once

// Runtime-dispatched SIMD kernel layer.
//
// One KernelTable per ISA (scalar / AVX2 / AVX-512 / NEON), selected once
// at startup by util::active_isa() (env FEDCLUST_ISA overrides; see
// util/cpu.h). The scalar table is the golden reference: every kernel in a
// SIMD table except gemm_nn_range_fma must produce bit-identical output to
// its scalar counterpart for all inputs — same accumulation order, same
// rounding per operation (mul then add, never contracted to FMA), same
// NaN payloads (docs/INVARIANTS.md §Kernels). simd_kernel_test sweeps every
// host-reachable table against scalar and asserts exact equality.
//
// gemm_nn_range_fma is the one exception: it contracts mul+add into FMA
// (one rounding instead of two) and only runs under the opt-in
// --fast-math-kernels flag. In the scalar and NEON tables it aliases the
// exact kernel.
//
// All kernel translation units are compiled with -ffp-contract=off so the
// compiler cannot fuse the explicitly separate multiply and add either in
// the scalar loops or around the intrinsics.

#include <cstddef>
#include <cstdint>

#include "util/cpu.h"

namespace fedclust::tensor::simd {

// Rows per block of the l2_distances layout (tensor::PackedRows).
inline constexpr std::size_t kL2Block = 8;

struct KernelTable {
  util::SimdIsa isa;

  // C[i,j] += fl(fl(alpha*A[i,p]) * B[p,j]) accumulated in ascending p,
  // rows [m0, m1); A is row-major (m, k) stride lda, B row-major (k, n)
  // stride ldb, C stride ldc. Pure accumulation — the caller applies beta.
  void (*gemm_nn_range)(std::size_t m0, std::size_t m1, std::size_t n,
                        std::size_t k, float alpha, const float* a,
                        std::size_t lda, const float* b, std::size_t ldb,
                        float* c, std::size_t ldc);
  // Same contract with FMA contraction allowed (fast-math opt-in only).
  void (*gemm_nn_range_fma)(std::size_t m0, std::size_t m1, std::size_t n,
                            std::size_t k, float alpha, const float* a,
                            std::size_t lda, const float* b, std::size_t ldb,
                            float* c, std::size_t ldc);

  // c[i] = fl(c[i] * beta) for i in [0, n) — gemm's beta prologue.
  void (*scale)(float* c, std::size_t n, float beta);

  // out[r * cols + c] = x[c * ldx + r] for r < rows, c < cols: the
  // contiguous row-major (rows, cols) transpose of a (cols, rows) matrix
  // with leading dimension ldx — gemm's transposed-operand copy. Pure data
  // movement, so every table matches scalar by construction.
  void (*transpose)(const float* x, std::size_t rows, std::size_t cols,
                    std::size_t ldx, float* out);

  // IEEE binary16 conversions, elementwise util::f32_to_f16 / f16_to_f32
  // (round-to-nearest-even; NaN payload bits preserved — SIMD tables patch
  // NaN lanes through the scalar functions because hardware converts
  // quietize sNaNs).
  void (*f16_encode)(const float* src, std::size_t n, std::uint16_t* dst);
  void (*f16_decode)(const std::uint16_t* src, std::size_t n, float* dst);

  // qint8 per-chunk min/max scan: *finite = all values finite; when finite,
  // *lo/*hi are min/max with -0.0 canonicalized to +0.0 (so the result is
  // independent of scan order — lo/hi become wire bytes). When not finite
  // *lo/*hi are unspecified (the codec poisons the chunk).
  void (*minmax_finite)(const float* src, std::size_t n, float* lo,
                        float* hi, bool* finite);

  // q[i] = clamp_0_255(lroundf(fl(fl(src[i] - lo) / scale))); requires
  // scale > 0 (the codec zero-fills degenerate chunks itself).
  void (*qint8_quantize)(const float* src, std::size_t n, float lo,
                         float scale, std::uint8_t* dst);
  // dst[i] = fl(lo + fl(scale * float(src[i]))).
  void (*qint8_dequantize)(const std::uint8_t* src, std::size_t n, float lo,
                           float scale, float* dst);

  // acc[i] += int64(m) * q[i] — fixed-point int8 cohort accumulation for
  // the fast-math aggregation path. Caller guarantees |m| < 2^23 so every
  // product fits int32 before widening.
  void (*qint8_accumulate)(std::int64_t* acc, const std::uint8_t* q,
                           std::size_t n, std::int32_t m);

  // out[t] = ||q - row t||_2 for t in [0, rows), each exactly what
  // tensor::l2_distance(q, row t) returns: s starts at +0.0, then for i in
  // ascending order x = double(q[i]) - double(row t[i]) and s = s + x*x
  // (multiply and add rounded separately), and out[t] = float(sqrt(s)).
  // `packed` holds ceil(rows / kL2Block) blocks of kL2Block rows,
  // feature-major: element i of row b*kL2Block + r sits at
  // packed[(b*dim + i)*kL2Block + r]. Padding rows of the last block are
  // read but never reported. SIMD tables run one row per double lane.
  void (*l2_distances)(const float* q, std::size_t dim, const float* packed,
                       std::size_t rows, float* out);
};

// Table for util::active_isa() — re-reads the (atomic) active ISA on every
// call so force_isa_for_testing takes effect immediately.
const KernelTable& kernels();

// Exact table for one ISA. The ISA must be host-supported
// (util::isa_supported); requesting an unsupported one throws
// std::runtime_error rather than returning a table that would SIGILL.
const KernelTable& kernels_for(util::SimdIsa isa);

}  // namespace fedclust::tensor::simd
