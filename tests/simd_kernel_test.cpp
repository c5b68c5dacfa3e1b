// Kernel-parity property tests: every SIMD kernel table must be bit-exact
// against the scalar golden table on every ISA reachable on the host —
// GEMM (all shapes, leading dims, transposes, odd tails), f16 and qint8
// codec kernels, CRC32C, and the packed L2 distances behind FedClust's
// proximity matrix and nearest-landmark search — and the conv lowering
// (im2col, col2im) bit for bit against per-element references. The FMA
// variants and the int8-domain aggregation are approximate by contract and
// are checked against documented tolerances instead.

#include "tensor/simd.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "clustering/distance.h"
#include "fl/codec.h"
#include "fl/federation.h"
#include "fl/landmark.h"
#include "tensor/gemm.h"
#include "tensor/im2col.h"
#include "tensor/packed_rows.h"
#include "tensor/tensor_ops.h"
#include "util/cpu.h"
#include "util/rng.h"
#include "util/serialization.h"

namespace fedclust {
namespace {

namespace simd = tensor::simd;

std::vector<util::SimdIsa> reachable_isas() {
  std::vector<util::SimdIsa> isas;
  for (std::size_t i = 0; i < util::kNumIsas; ++i) {
    const auto isa = static_cast<util::SimdIsa>(i);
    if (util::isa_supported(isa)) isas.push_back(isa);
  }
  return isas;
}

// Restores the dispatched ISA after tests that force it.
struct IsaGuard {
  util::SimdIsa prev = util::active_isa();
  ~IsaGuard() { util::force_isa_for_testing(prev); }
};

std::vector<float> random_floats(std::size_t n, util::Rng& rng,
                                 float scale = 1.0f) {
  std::vector<float> v(n);
  for (auto& x : v) x = rng.normalf(0.0f, scale);
  return v;
}

bool bit_equal(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

// ---------------------------------------------------------------- GEMM

struct GemmCase {
  std::size_t m, n, k;
  std::size_t pad_a, pad_b, pad_c;  // extra leading-dimension slack
  float alpha;
};

const GemmCase kGemmCases[] = {
    {1, 1, 1, 0, 0, 0, 1.0f},     {3, 5, 7, 0, 0, 0, 1.0f},
    {8, 32, 16, 0, 0, 0, 1.0f},   {17, 33, 65, 3, 1, 2, 0.5f},
    {64, 64, 64, 0, 0, 0, 1.0f},  {65, 63, 130, 0, 5, 0, 1.0f},
    {128, 17, 200, 2, 0, 3, 1.0f}, {6, 16, 256, 0, 0, 0, -0.75f},
    {12, 48, 300, 1, 1, 1, 1.0f}, {9, 100, 31, 0, 0, 0, 2.0f},
    // The per-image GEMMs of LeNet-5 and ResNet-9 (bench/micro_kernels.cpp,
    // BM_GemmModelShapes), as the NN kernel sees them after the transpose.
    {6, 256, 75, 0, 0, 0, 1.0f},  {6, 75, 256, 0, 0, 0, 1.0f},
    {16, 16, 150, 0, 0, 0, 1.0f}, {150, 16, 16, 0, 0, 0, 1.0f},
    {10, 84, 120, 0, 0, 0, 1.0f}, {32, 16, 288, 0, 0, 0, 1.0f},
    {288, 16, 32, 0, 0, 0, 1.0f}, {16, 144, 64, 0, 0, 0, 1.0f},
    {16, 256, 72, 0, 0, 0, 1.0f},
};

TEST(SimdKernel, GemmBitExactAcrossIsas) {
  util::Rng rng(42);
  for (const GemmCase& gc : kGemmCases) {
    const std::size_t lda = gc.k + gc.pad_a;
    const std::size_t ldb = gc.n + gc.pad_b;
    const std::size_t ldc = gc.n + gc.pad_c;
    const auto a = random_floats(gc.m * lda, rng);
    const auto b = random_floats(gc.k * ldb, rng);
    const auto c0 = random_floats(gc.m * ldc, rng);

    std::vector<float> want = c0;
    simd::kernels_for(util::SimdIsa::kScalar)
        .gemm_nn_range(0, gc.m, gc.n, gc.k, gc.alpha, a.data(), lda, b.data(),
                       ldb, want.data(), ldc);
    for (const auto isa : reachable_isas()) {
      std::vector<float> got = c0;
      simd::kernels_for(isa).gemm_nn_range(0, gc.m, gc.n, gc.k, gc.alpha,
                                           a.data(), lda, b.data(), ldb,
                                           got.data(), ldc);
      EXPECT_TRUE(bit_equal(want, got))
          << "isa=" << util::isa_name(isa) << " m=" << gc.m << " n=" << gc.n
          << " k=" << gc.k;
    }
  }
}

TEST(SimdKernel, GemmEveryTileShapeBitExactAndInBounds) {
  // Every live-row count and every column tail of both SIMD tiles (8 x 32
  // and 6 x 16), with k = 257 crossing the 256-deep panel. A and B are
  // exact-size buffers, so an over-read past a masked lane is caught by the
  // asan preset; C has three NaN canary columns per row and a canary row
  // after the last, which a store past a masked lane would overwrite.
  util::Rng rng(48);
  const float canary = std::numeric_limits<float>::quiet_NaN();
  std::uint32_t canary_bits;
  std::memcpy(&canary_bits, &canary, sizeof canary_bits);
  const auto canaries_intact = [&](const std::vector<float>& c,
                                   std::size_t m, std::size_t n,
                                   std::size_t ldc) {
    for (std::size_t i = 0; i < c.size(); ++i) {
      if (i < m * ldc && i % ldc < n) continue;
      std::uint32_t bits;
      std::memcpy(&bits, &c[i], sizeof bits);
      if (bits != canary_bits) return false;
    }
    return true;
  };
  for (const std::size_t k : {std::size_t{1}, std::size_t{31},
                              std::size_t{257}}) {
    for (std::size_t m = 1; m <= 17; ++m) {
      for (std::size_t n = 1; n <= 65; ++n) {
        const auto a = random_floats(m * k, rng);
        const auto b = random_floats(k * n, rng);
        const std::size_t ldc = n + 3;
        std::vector<float> c0((m + 1) * ldc, canary);
        for (std::size_t i = 0; i < m; ++i) {
          for (std::size_t j = 0; j < n; ++j) {
            c0[i * ldc + j] = rng.normalf(0, 1);
          }
        }
        for (const float alpha : {1.0f, -0.75f}) {
          std::vector<float> want = c0;
          simd::kernels_for(util::SimdIsa::kScalar)
              .gemm_nn_range(0, m, n, k, alpha, a.data(), k, b.data(), n,
                             want.data(), ldc);
          for (const auto isa : reachable_isas()) {
            std::vector<float> got = c0;
            simd::kernels_for(isa).gemm_nn_range(0, m, n, k, alpha, a.data(),
                                                 k, b.data(), n, got.data(),
                                                 ldc);
            ASSERT_TRUE(bit_equal(want, got) && canaries_intact(got, m, n, ldc))
                << "isa=" << util::isa_name(isa) << " m=" << m << " n=" << n
                << " k=" << k << " alpha=" << alpha;
          }
        }
      }
    }
  }
}

TEST(SimdKernel, GemmRowRangeSplitIsBitExact) {
  // Row-chunked execution (what the thread pool does) must equal one call.
  util::Rng rng(43);
  const std::size_t m = 23, n = 37, k = 65;
  const auto a = random_floats(m * k, rng);
  const auto b = random_floats(k * n, rng);
  const auto c0 = random_floats(m * n, rng);
  for (const auto isa : reachable_isas()) {
    const auto& kt = simd::kernels_for(isa);
    std::vector<float> whole = c0;
    kt.gemm_nn_range(0, m, n, k, 1.0f, a.data(), k, b.data(), n, whole.data(),
                     n);
    std::vector<float> split = c0;
    for (std::size_t lo = 0; lo < m; lo += 5) {
      kt.gemm_nn_range(lo, std::min(m, lo + 5), n, k, 1.0f, a.data(), k,
                       b.data(), n, split.data(), n);
    }
    EXPECT_TRUE(bit_equal(whole, split)) << "isa=" << util::isa_name(isa);
  }
}

TEST(SimdKernel, GemmFmaVariantWithinTolerance) {
  util::Rng rng(44);
  const std::size_t m = 33, n = 65, k = 127;
  const auto a = random_floats(m * k, rng);
  const auto b = random_floats(k * n, rng);
  std::vector<float> want(m * n, 0.0f);
  simd::kernels_for(util::SimdIsa::kScalar)
      .gemm_nn_range(0, m, n, k, 1.0f, a.data(), k, b.data(), n, want.data(),
                     n);
  for (const auto isa : reachable_isas()) {
    std::vector<float> got(m * n, 0.0f);
    simd::kernels_for(isa).gemm_nn_range_fma(0, m, n, k, 1.0f, a.data(), k,
                                             b.data(), n, got.data(), n);
    for (std::size_t i = 0; i < want.size(); ++i) {
      ASSERT_NEAR(want[i], got[i], 1e-3f)
          << "isa=" << util::isa_name(isa) << " at " << i;
    }
  }
}

TEST(SimdKernel, TensorGemmTransposesMatchScalarDispatch) {
  // tensor::gemm end to end (transpose scratch + beta prologue + dispatch):
  // every (trans_a, trans_b) combination under every ISA must equal the
  // forced-scalar NN result bit for bit. The shapes hit full 8 x 8
  // transpose blocks and both ragged edges (LeNet-5's conv1 dW and conv2
  // dcol among them).
  IsaGuard guard;
  util::Rng rng(45);
  struct Shape { std::size_t m, n, k; };
  for (const Shape sh : {Shape{21, 34, 55}, Shape{6, 75, 256},
                         Shape{150, 16, 16}}) {
    const std::size_t m = sh.m, n = sh.n, k = sh.k;
    const auto a = random_floats(m * k, rng);
    const auto at = [&] {  // a transposed, (k, m)
      std::vector<float> t(k * m);
      for (std::size_t i = 0; i < m; ++i)
        for (std::size_t p = 0; p < k; ++p) t[p * m + i] = a[i * k + p];
      return t;
    }();
    const auto b = random_floats(k * n, rng);
    const auto bt = [&] {  // b transposed, (n, k)
      std::vector<float> t(n * k);
      for (std::size_t p = 0; p < k; ++p)
        for (std::size_t j = 0; j < n; ++j) t[j * k + p] = b[p * n + j];
      return t;
    }();
    const auto c0 = random_floats(m * n, rng);
    for (const float beta : {0.0f, 1.0f, 0.5f}) {
      using tensor::Trans;
      ASSERT_TRUE(util::force_isa_for_testing(util::SimdIsa::kScalar));
      std::vector<float> want = c0;
      tensor::gemm(Trans::kNo, Trans::kNo, m, n, k, 1.0f, a.data(), k,
                   b.data(), n, beta, want.data(), n);
      for (const auto isa : reachable_isas()) {
        ASSERT_TRUE(util::force_isa_for_testing(isa));
        for (const Trans ta : {Trans::kNo, Trans::kYes}) {
          for (const Trans tb : {Trans::kNo, Trans::kYes}) {
            const bool ya = ta == Trans::kYes, yb = tb == Trans::kYes;
            std::vector<float> got = c0;
            tensor::gemm(ta, tb, m, n, k, 1.0f, ya ? at.data() : a.data(),
                         ya ? m : k, yb ? bt.data() : b.data(), yb ? k : n,
                         beta, got.data(), n);
            EXPECT_TRUE(bit_equal(want, got))
                << "isa=" << util::isa_name(isa) << " m=" << m << " n=" << n
                << " k=" << k << " ta=" << ya << " tb=" << yb
                << " beta=" << beta;
          }
        }
      }
    }
  }
}

TEST(SimdKernel, TransposeMatchesScalarWithPaddedStride) {
  util::Rng rng(49);
  for (const std::size_t rows : {1, 7, 8, 9, 17, 75, 256}) {
    for (const std::size_t cols : {1, 5, 8, 16, 33}) {
      for (const std::size_t pad : {0, 3}) {
        const std::size_t ldx = rows + pad;
        const auto x = random_floats(cols * ldx, rng);
        std::vector<float> want(rows * cols);
        simd::kernels_for(util::SimdIsa::kScalar)
            .transpose(x.data(), rows, cols, ldx, want.data());
        for (std::size_t r = 0; r < rows; ++r) {
          for (std::size_t c = 0; c < cols; ++c) {
            ASSERT_EQ(want[r * cols + c], x[c * ldx + r]);
          }
        }
        for (const auto isa : reachable_isas()) {
          std::vector<float> got(rows * cols, -1.0f);
          simd::kernels_for(isa).transpose(x.data(), rows, cols, ldx,
                                           got.data());
          EXPECT_TRUE(bit_equal(want, got))
              << "isa=" << util::isa_name(isa) << " rows=" << rows
              << " cols=" << cols << " ldx=" << ldx;
        }
      }
    }
  }
}

// ------------------------------------------------------- im2col / col2im

// Convolution geometries for the lowering tests: every input shape
// LeNet-5 and ResNet-9 lower, stride 2, h != w, and padding as wide as a
// row or wider than the kernel, at run widths with and without a
// fixed-width instantiation.
struct ConvCase {
  std::size_t c, h, w, k, stride, pad;
};
const ConvCase kConvCases[] = {
    {3, 16, 16, 5, 1, 2}, {6, 8, 8, 5, 1, 0},    // LeNet-5 conv1, conv2
    {8, 16, 16, 3, 1, 1}, {16, 8, 8, 3, 1, 1},   // ResNet-9 conv2, res1
    {32, 4, 4, 3, 1, 1},                         // ResNet-9 res2
    {2, 9, 9, 3, 2, 1},   {4, 16, 16, 3, 2, 0},  // stride 2
    {1, 3, 3, 3, 1, 2},                          // pad wider than a row
    {3, 12, 16, 5, 1, 2}, {2, 7, 10, 3, 2, 1},   // h != w
    {2, 4, 4, 3, 1, 3},   {1, 6, 11, 2, 1, 3},   // pad >= kernel
    {1, 5, 3, 3, 2, 3},
};

// A quiet NaN with a payload no kernel produces: a prefill that shows any
// element a kernel leaves unwritten, and the canary value around buffers.
float nan_payload() {
  const std::uint32_t bits = 0x7fc0beefu;
  float f;
  std::memcpy(&f, &bits, sizeof f);
  return f;
}
constexpr std::size_t kCanaries = 17;

// Pixel (ch, iy, ix) that column (row, oy, ox) of the column matrix reads,
// or nothing when it falls in the padding.
std::optional<std::size_t> conv_source(const ConvCase& p, std::size_t ch,
                                       std::size_t ky, std::size_t kx,
                                       std::size_t oy, std::size_t ox) {
  const auto iy = static_cast<std::ptrdiff_t>(oy * p.stride + ky) -
                  static_cast<std::ptrdiff_t>(p.pad);
  const auto ix = static_cast<std::ptrdiff_t>(ox * p.stride + kx) -
                  static_cast<std::ptrdiff_t>(p.pad);
  if (iy < 0 || ix < 0 || iy >= static_cast<std::ptrdiff_t>(p.h) ||
      ix >= static_cast<std::ptrdiff_t>(p.w)) {
    return std::nullopt;
  }
  return (ch * p.h + static_cast<std::size_t>(iy)) * p.w +
         static_cast<std::size_t>(ix);
}

std::string conv_case_str(const ConvCase& p) {
  return "c=" + std::to_string(p.c) + " h=" + std::to_string(p.h) +
         " w=" + std::to_string(p.w) + " k=" + std::to_string(p.k) +
         " stride=" + std::to_string(p.stride) +
         " pad=" + std::to_string(p.pad);
}

TEST(SimdKernel, Im2colMatchesPerElementReference) {
  // im2col is pure data movement: each element of the column matrix must
  // be, bit for bit, the pixel a per-element loop reads, or +0.0f where
  // that pixel is padding. The column buffer starts as a NaN payload, so an
  // element left unwritten shows, and canaries past its end catch a write
  // beyond it.
  util::Rng rng(51);
  const float payload = nan_payload();
  for (const ConvCase& p : kConvCases) {
    const std::size_t oh = tensor::conv_out_dim(p.h, p.k, p.stride, p.pad);
    const std::size_t ow = tensor::conv_out_dim(p.w, p.k, p.stride, p.pad);
    const std::size_t n = p.c * p.k * p.k * oh * ow;
    const auto img = random_floats(p.c * p.h * p.w, rng);
    std::vector<float> want(n + kCanaries, payload);
    std::size_t row = 0;
    for (std::size_t ch = 0; ch < p.c; ++ch) {
      for (std::size_t ky = 0; ky < p.k; ++ky) {
        for (std::size_t kx = 0; kx < p.k; ++kx, ++row) {
          for (std::size_t oy = 0; oy < oh; ++oy) {
            for (std::size_t ox = 0; ox < ow; ++ox) {
              const auto src = conv_source(p, ch, ky, kx, oy, ox);
              want[(row * oh + oy) * ow + ox] = src ? img[*src] : 0.0f;
            }
          }
        }
      }
    }
    std::vector<float> got(n + kCanaries, payload);
    tensor::im2col(img.data(), p.c, p.h, p.w, p.k, p.k, p.stride, p.pad,
                   got.data());
    EXPECT_TRUE(bit_equal(want, got)) << conv_case_str(p);
  }
}

TEST(SimdKernel, Col2imMatchesPerElementReference) {
  // col2im must add into each pixel exactly what the per-element loop adds,
  // in the same order. Random non-integer values in both the column matrix
  // and the image make any reordering visible; canaries on both sides of
  // the image catch a write outside it.
  util::Rng rng(50);
  const float payload = nan_payload();
  for (const ConvCase& p : kConvCases) {
    const std::size_t oh = tensor::conv_out_dim(p.h, p.k, p.stride, p.pad);
    const std::size_t ow = tensor::conv_out_dim(p.w, p.k, p.stride, p.pad);
    const auto col = random_floats(p.c * p.k * p.k * oh * ow, rng);
    const auto img = random_floats(p.c * p.h * p.w, rng);
    std::vector<float> want(kCanaries, payload);
    want.insert(want.end(), img.begin(), img.end());
    want.insert(want.end(), kCanaries, payload);
    std::vector<float> got = want;
    std::size_t row = 0;
    for (std::size_t ch = 0; ch < p.c; ++ch) {
      for (std::size_t ky = 0; ky < p.k; ++ky) {
        for (std::size_t kx = 0; kx < p.k; ++kx, ++row) {
          for (std::size_t oy = 0; oy < oh; ++oy) {
            for (std::size_t ox = 0; ox < ow; ++ox) {
              if (const auto dst = conv_source(p, ch, ky, kx, oy, ox)) {
                want[kCanaries + *dst] += col[(row * oh + oy) * ow + ox];
              }
            }
          }
        }
      }
    }
    tensor::col2im(col.data(), p.c, p.h, p.w, p.k, p.k, p.stride, p.pad,
                   got.data() + kCanaries);
    EXPECT_TRUE(bit_equal(want, got)) << conv_case_str(p);
  }
}

// ----------------------------------------------------------- f16 / qint8

std::vector<float> f16_edge_values(util::Rng& rng) {
  std::vector<float> v;
  const std::uint32_t bits[] = {
      0x00000000u, 0x80000000u,  // +/- 0
      0x3f800000u, 0xbf800000u,  // +/- 1
      0x7f800000u, 0xff800000u,  // +/- inf
      0x7fc00000u, 0x7f800001u,  // qNaN, sNaN (quantized lanes must match)
      0xffc01234u, 0x7f812345u,  // NaN payloads
      0x477fe000u, 0x477ff000u,  // 65504 (f16 max), 65520 (ties to inf)
      0x47800000u,               // 65536 (overflow)
      0x38800000u, 0x38000000u,  // smallest normal half, largest subnormal
      0x33800000u, 0x33000000u,  // near the subnormal rounding boundary
      0x00000001u, 0x007fffffu,  // float subnormals (underflow to 0)
      0x3f801000u, 0x3f802fffu,  // RNE ties on the dropped mantissa bits
      0xb8802000u, 0x35800000u,
  };
  for (const std::uint32_t b : bits) {
    float f;
    std::memcpy(&f, &b, sizeof(f));
    v.push_back(f);
  }
  // Random coverage across the whole half-precision range plus tails that
  // exercise the vector remainder loops.
  for (int e = -30; e <= 18; ++e) {
    for (int i = 0; i < 9; ++i) {
      v.push_back(std::ldexp(rng.normalf(0.0f, 1.0f), e));
    }
  }
  return v;
}

TEST(SimdKernel, F16EncodeDecodeBitExactAcrossIsas) {
  util::Rng rng(48);
  const auto values = f16_edge_values(rng);
  const auto& scalar = simd::kernels_for(util::SimdIsa::kScalar);
  // Sub-lengths exercise every partial-vector tail.
  for (const std::size_t n : {values.size(), std::size_t{1}, std::size_t{7},
                              std::size_t{16}, std::size_t{33}}) {
    std::vector<std::uint16_t> want_h(n);
    scalar.f16_encode(values.data(), n, want_h.data());
    std::vector<float> want_f(n);
    scalar.f16_decode(want_h.data(), n, want_f.data());
    for (const auto isa : reachable_isas()) {
      const auto& kt = simd::kernels_for(isa);
      std::vector<std::uint16_t> got_h(n, 0xffffu);
      kt.f16_encode(values.data(), n, got_h.data());
      EXPECT_EQ(0, std::memcmp(want_h.data(), got_h.data(), n * 2))
          << "encode isa=" << util::isa_name(isa) << " n=" << n;
      std::vector<float> got_f(n);
      kt.f16_decode(want_h.data(), n, got_f.data());
      EXPECT_TRUE(bit_equal(want_f, got_f))
          << "decode isa=" << util::isa_name(isa) << " n=" << n;
    }
  }
}

TEST(SimdKernel, MinmaxFiniteParity) {
  util::Rng rng(49);
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  std::vector<std::vector<float>> chunks = {
      {0.0f}, {-0.0f}, {-0.0f, 0.0f}, {0.0f, -0.0f, 0.0f},
      {1.0f, -2.0f, 3.0f, -4.0f, 5.0f},
      {nan, 1.0f}, {1.0f, 2.0f, nan}, {inf, 0.0f}, {-inf},
      random_floats(256, rng), random_floats(255, rng),
      random_floats(17, rng), random_floats(33, rng),
  };
  // A non-finite value hiding inside an otherwise clean vector lane.
  auto poisoned = random_floats(100, rng);
  poisoned[77] = -inf;
  chunks.push_back(poisoned);
  const auto& scalar = simd::kernels_for(util::SimdIsa::kScalar);
  for (const auto& chunk : chunks) {
    float wl, wh;
    bool wf;
    scalar.minmax_finite(chunk.data(), chunk.size(), &wl, &wh, &wf);
    if (wf) {
      // The kernel contract canonicalizes signed zero bounds to +0.0.
      EXPECT_FALSE(wl == 0.0f && std::signbit(wl));
      EXPECT_FALSE(wh == 0.0f && std::signbit(wh));
    }
    for (const auto isa : reachable_isas()) {
      float gl, gh;
      bool gf;
      simd::kernels_for(isa).minmax_finite(chunk.data(), chunk.size(), &gl,
                                           &gh, &gf);
      EXPECT_EQ(wf, gf) << "isa=" << util::isa_name(isa);
      if (wf) {
        // lo/hi are unspecified when non-finite (the codec poisons the
        // chunk without reading them).
        EXPECT_EQ(0, std::memcmp(&wl, &gl, 4)) << util::isa_name(isa);
        EXPECT_EQ(0, std::memcmp(&wh, &gh, 4)) << util::isa_name(isa);
      }
    }
  }
}

TEST(SimdKernel, Qint8QuantizeDequantizeParity) {
  util::Rng rng(50);
  for (const std::size_t n : {std::size_t{1}, std::size_t{7}, std::size_t{16},
                              std::size_t{100}, std::size_t{255},
                              std::size_t{256}}) {
    auto v = random_floats(n, rng, 2.0f);
    // Force exact halfway points: with lo = -4 and scale picked so that
    // (x - lo) / scale lands on k + 0.5 for a few k.
    const float lo = -4.0f;
    const float scale = 0.03125f;  // power of two: ties are representable
    if (n >= 4) {
      v[0] = lo + scale * 2.5f;
      v[1] = lo + scale * 3.5f;   // RNE would differ from half-away here
      v[2] = lo;                  // exact 0
      v[3] = lo + scale * 255.0f; // exact top of range
    }
    const auto& scalar = simd::kernels_for(util::SimdIsa::kScalar);
    std::vector<std::uint8_t> want_q(n);
    scalar.qint8_quantize(v.data(), n, lo, scale, want_q.data());
    std::vector<float> want_d(n);
    scalar.qint8_dequantize(want_q.data(), n, lo, scale, want_d.data());
    for (const auto isa : reachable_isas()) {
      const auto& kt = simd::kernels_for(isa);
      std::vector<std::uint8_t> got_q(n, 0xAA);
      kt.qint8_quantize(v.data(), n, lo, scale, got_q.data());
      EXPECT_EQ(want_q, got_q) << "isa=" << util::isa_name(isa) << " n=" << n;
      std::vector<float> got_d(n);
      kt.qint8_dequantize(want_q.data(), n, lo, scale, got_d.data());
      EXPECT_TRUE(bit_equal(want_d, got_d))
          << "isa=" << util::isa_name(isa) << " n=" << n;
    }
  }
}

TEST(SimdKernel, Qint8AccumulateParity) {
  util::Rng rng(51);
  for (const std::size_t n : {std::size_t{1}, std::size_t{15},
                              std::size_t{16}, std::size_t{100},
                              std::size_t{256}}) {
    std::vector<std::uint8_t> q(n);
    for (auto& b : q) b = static_cast<std::uint8_t>(rng.next_u64() & 0xff);
    const std::int32_t multipliers[] = {1, -1, 255, -255, 8388607, -8388607,
                                        12345, 0};
    std::vector<std::int64_t> want(n);
    for (auto& x : want) {
      x = static_cast<std::int64_t>(rng.next_u64());  // nonzero starting state
    }
    for (const auto isa : reachable_isas()) {
      std::vector<std::int64_t> got = want;
      std::vector<std::int64_t> ref = want;
      for (const std::int32_t m : multipliers) {
        simd::kernels_for(isa).qint8_accumulate(got.data(), q.data(), n, m);
        for (std::size_t i = 0; i < n; ++i) {
          ref[i] += static_cast<std::int64_t>(m) * q[i];
        }
      }
      EXPECT_EQ(ref, got) << "isa=" << util::isa_name(isa) << " n=" << n;
    }
  }
}

// ------------------------------------------------------------- l2 rows

float from_bits(std::uint32_t b) {
  float f;
  std::memcpy(&f, &b, sizeof(f));
  return f;
}

std::uint32_t bits_of(float f) {
  std::uint32_t b;
  std::memcpy(&b, &f, sizeof(b));
  return b;
}

// Normal floats; with `specials`, about one in five replaced by a signed
// zero, a float subnormal, a magnitude whose square overflows float (never
// double), or a NaN. The NaNs share one payload: which of two NaN operands
// an add returns follows the operand order the compiler picks, in
// tensor::l2_distance and the scalar table alike, so two payloads would
// make the bitwise comparison depend on the build rather than the kernel.
std::vector<float> l2_values(std::size_t n, util::Rng& rng, bool specials) {
  auto v = random_floats(n, rng);
  if (!specials) return v;
  const float special[] = {
      0.0f, -0.0f, from_bits(0x00000001u), -1e-40f,
      from_bits(0x007fffffu), 1e20f, -3e38f,
      std::numeric_limits<float>::quiet_NaN(),
  };
  for (std::size_t i = 0; i < n; ++i) {
    if (rng.next_u64() % 5 == 0) {
      v[i] = special[rng.next_u64() % std::size(special)];
    }
  }
  return v;
}

std::vector<std::vector<float>> l2_rows(std::size_t rows, std::size_t dim,
                                        util::Rng& rng, bool specials) {
  std::vector<std::vector<float>> out;
  for (std::size_t t = 0; t < rows; ++t) {
    // Every third row carries specials; the rest stay finite, so a block
    // mixes NaN, overflowing and ordinary lanes.
    out.push_back(l2_values(dim, rng, specials && t % 3 == 1));
  }
  return out;
}

// The scalar table equals tensor::l2_distance bit for bit, and every
// reachable ISA equals scalar, from every block-aligned first row.
TEST(SimdKernel, L2DistancesBitExactAcrossIsas) {
  IsaGuard guard;
  util::Rng rng(53);
  for (const std::size_t rows : {1, 7, 8, 9, 31, 33, 256}) {
    for (const std::size_t dim : {1, 3, 8, 17, 850}) {
      const auto data = l2_rows(rows, dim, rng, /*specials=*/true);
      const tensor::PackedRows packed(data);
      ASSERT_EQ(packed.size(), rows);
      ASSERT_EQ(packed.dim(), dim);
      for (const bool specials : {false, true}) {
        const auto q = l2_values(dim, rng, specials);
        std::vector<float> want(rows);
        for (std::size_t t = 0; t < rows; ++t) {
          want[t] = tensor::l2_distance(q, data[t]);
        }
        constexpr std::size_t kBlock = tensor::PackedRows::kBlock;
        for (const auto isa : reachable_isas()) {
          ASSERT_TRUE(util::force_isa_for_testing(isa));
          // Every block-aligned first row up to 16, then every 7th block.
          for (std::size_t first = 0; first < rows;
               first += first < 16 ? kBlock : 7 * kBlock) {
            // NaN canary past the last reported row.
            std::vector<float> got(rows - first + 1,
                                   from_bits(0x7fc0beefu));
            packed.l2_distances(q.data(), first, got.data());
            EXPECT_EQ(0, std::memcmp(want.data() + first, got.data(),
                                     (rows - first) * sizeof(float)))
                << "isa=" << util::isa_name(isa) << " rows=" << rows
                << " dim=" << dim << " first=" << first
                << " specials=" << specials;
            EXPECT_EQ(0x7fc0beefu, bits_of(got.back()))
                << "wrote past the last row, isa=" << util::isa_name(isa);
          }
          std::vector<float> row(dim);
          for (std::size_t t = 0; t < rows; ++t) {
            packed.copy_row(t, row.data());
            ASSERT_TRUE(bit_equal(row, data[t])) << "row " << t;
          }
        }
      }
    }
  }
  EXPECT_THROW(tensor::PackedRows({{1.0f, 2.0f}, {3.0f}}),
               std::invalid_argument);
}

// A crafted row whose float distance moves if the chain changes at all:
// fusing x*x into the sum (one rounding), adding in reverse order or
// splitting into two partial sums each round to a float one ulp lower.
// Random rows almost never reach a float rounding boundary, so this row
// is what holds every table to the exact two-rounding, ascending chain,
// in every lane of three blocks and after 846 zero elements.
TEST(SimdKernel, L2DistancesKeepTheExactChain) {
  IsaGuard guard;
  const std::vector<float> q = {from_bits(0x3f81f138u), from_bits(0x3f84839fu),
                                0.0f, 0.0f};
  const std::vector<float> r = {from_bits(0x349a8348u), from_bits(0x34af9468u),
                                from_bits(0x38de6b26u), 0.0f};
  const float want = tensor::l2_distance(q, r);
  double fused = 0.0;
  double reversed = 0.0;
  for (std::size_t i = 0; i < q.size(); ++i) {
    const double x = double(q[i]) - double(r[i]);
    fused = std::fma(x, x, fused);
    const std::size_t j = q.size() - 1 - i;
    const volatile double y = double(q[j]) - double(r[j]);
    const volatile double yy = y * y;
    reversed = reversed + yy;
  }
  ASSERT_NE(bits_of(want), bits_of(static_cast<float>(std::sqrt(fused))));
  ASSERT_NE(bits_of(want), bits_of(static_cast<float>(std::sqrt(reversed))));
  for (const std::size_t dim : {std::size_t{4}, std::size_t{850}}) {
    std::vector<float> qd = q;
    std::vector<float> rd = r;
    qd.resize(dim, 0.0f);
    rd.resize(dim, 0.0f);
    const tensor::PackedRows packed(
        std::vector<std::vector<float>>(3 * tensor::PackedRows::kBlock, rd));
    for (const auto isa : reachable_isas()) {
      ASSERT_TRUE(util::force_isa_for_testing(isa));
      std::vector<float> got(packed.size());
      packed.l2_distances(qd.data(), 0, got.data());
      for (std::size_t t = 0; t < got.size(); ++t) {
        EXPECT_EQ(bits_of(want), bits_of(got[t]))
            << "isa=" << util::isa_name(isa) << " dim=" << dim
            << " row=" << t;
      }
    }
  }
}

// The search compares float distances with a strict <, in ascending
// landmark index: two rows whose double sums differ (1 + 2^-40 against 1)
// round to the same float distance 1.0f, and the lower index wins. A
// double comparison would pick the higher one.
TEST(SimdKernel, NearestLandmarkFloatTieKeepsLowerIndex) {
  IsaGuard guard;
  util::Rng rng(54);
  auto landmarks = l2_rows(33, 17, rng, /*specials=*/false);
  for (auto& row : landmarks) {
    for (auto& x : row) x += 100.0f;  // far from the query
  }
  std::vector<float> q(17, 0.0f);
  std::vector<float> farther(17, 0.0f);
  farther[0] = 1.0f;
  farther[5] = std::ldexp(1.0f, -20);  // sum 1 + 2^-40
  std::vector<float> nearer(17, 0.0f);
  nearer[0] = 1.0f;  // sum 1
  ASSERT_EQ(tensor::l2_distance(q, farther), tensor::l2_distance(q, nearer));
  landmarks[9] = farther;
  landmarks[26] = nearer;
  const tensor::PackedRows packed(landmarks);
  for (const auto isa : reachable_isas()) {
    ASSERT_TRUE(util::force_isa_for_testing(isa));
    EXPECT_EQ(fl::nearest_landmark(q, packed), 9u) << util::isa_name(isa);
    EXPECT_EQ(fl::nearest_landmark(q, landmarks, tensor::l2_distance), 9u);
  }
}

// Duplicate rows: the first copy wins. A NaN distance never wins, even at
// index 0, and a wrong-length query is refused.
TEST(SimdKernel, NearestLandmarkDuplicatesAndNaN) {
  IsaGuard guard;
  util::Rng rng(55);
  auto landmarks = l2_rows(20, 850, rng, /*specials=*/false);
  const auto q = l2_values(850, rng, /*specials=*/false);
  landmarks[11] = landmarks[17] = q;
  landmarks[0][3] = std::numeric_limits<float>::quiet_NaN();
  const tensor::PackedRows packed(landmarks);
  for (const auto isa : reachable_isas()) {
    ASSERT_TRUE(util::force_isa_for_testing(isa));
    EXPECT_EQ(fl::nearest_landmark(q, packed), 11u) << util::isa_name(isa);
    EXPECT_EQ(fl::nearest_landmark(q, landmarks, tensor::l2_distance), 11u);
    landmarks[11][0] += 1.0f;
    landmarks[17][0] += 1.0f;
    const std::size_t want =
        fl::nearest_landmark(q, landmarks, tensor::l2_distance);
    EXPECT_NE(want, 0u);
    EXPECT_EQ(fl::nearest_landmark(q, tensor::PackedRows(landmarks)), want)
        << util::isa_name(isa);
    landmarks[11][0] -= 1.0f;
    landmarks[17][0] -= 1.0f;
  }
  EXPECT_THROW(fl::nearest_landmark(std::vector<float>(849), packed),
               std::invalid_argument);
}

// The packed proximity matrix equals the pairwise one bit for bit:
// symmetric, zero diagonal, entry (i, j) = l2_distance(v_i, v_j) for i < j.
TEST(SimdKernel, L2ProximityMatrixMatchesPairwise) {
  IsaGuard guard;
  util::Rng rng(56);
  for (const std::size_t n : {1, 2, 7, 8, 9, 100, 256}) {
    const auto vectors = l2_rows(n, 850, rng, /*specials=*/false);
    const tensor::Tensor want = clustering::distance_matrix(
        n, [&](std::size_t i, std::size_t j) {
          return tensor::l2_distance(vectors[i], vectors[j]);
        });
    for (const auto isa : reachable_isas()) {
      ASSERT_TRUE(util::force_isa_for_testing(isa));
      EXPECT_TRUE(bit_equal(want.vec(),
                            clustering::l2_distance_matrix(vectors).vec()))
          << "isa=" << util::isa_name(isa) << " n=" << n;
      fl::L2Proximity proximity;
      proximity.index(vectors);
      EXPECT_TRUE(bit_equal(want.vec(), proximity.matrix().vec()))
          << "isa=" << util::isa_name(isa) << " n=" << n;
    }
  }
}

// -------------------------------------------------- codec-level parity

TEST(SimdKernel, CodecPayloadsBitExactAcrossIsas) {
  IsaGuard guard;
  util::Rng rng(52);
  auto v = random_floats(1000, rng);
  v[300] = std::numeric_limits<float>::quiet_NaN();  // poisons chunk 1
  v[999] = std::numeric_limits<float>::infinity();   // poisons the tail
  using fl::wire::CodecId;
  for (const auto codec :
       {CodecId::kRawF32, CodecId::kF16, CodecId::kQInt8}) {
    ASSERT_TRUE(util::force_isa_for_testing(util::SimdIsa::kScalar));
    const auto want_bytes = fl::wire::encode_payload(codec, v.data(),
                                                     v.size());
    const auto want_floats = fl::wire::decode_payload(
        codec, want_bytes.data(), want_bytes.size(), v.size());
    for (const auto isa : reachable_isas()) {
      ASSERT_TRUE(util::force_isa_for_testing(isa));
      const auto got_bytes = fl::wire::encode_payload(codec, v.data(),
                                                      v.size());
      EXPECT_EQ(want_bytes, got_bytes)
          << "codec=" << fl::wire::codec_name(codec)
          << " isa=" << util::isa_name(isa);
      const auto got_floats = fl::wire::decode_payload(
          codec, want_bytes.data(), want_bytes.size(), v.size());
      ASSERT_EQ(want_floats.size(), got_floats.size());
      EXPECT_EQ(0, std::memcmp(want_floats.data(), got_floats.data(),
                               want_floats.size() * sizeof(float)))
          << "codec=" << fl::wire::codec_name(codec)
          << " isa=" << util::isa_name(isa);
    }
  }
}

TEST(SimdKernel, Crc32cHardwareMatchesTable) {
  if (!util::crc32c_hw_compiled()) {
    GTEST_SKIP() << "no CRC32C hardware path in this build";
  }
  util::Rng rng(53);
  std::vector<std::uint8_t> data(300);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.next_u64() & 0xff);
  for (std::size_t len = 0; len <= data.size();
       len += (len < 20 ? 1 : 23)) {
    for (const std::uint32_t seed : {0u, 0xffffffffu, 0xdeadbeefu}) {
      EXPECT_EQ(util::crc32c_raw_table(seed, data.data(), len),
                util::crc32c_raw_hw(seed, data.data(), len))
          << "len=" << len;
    }
  }
  // Envelope-level golden: the public CRC over "123456789" is the RFC 3720
  // check value regardless of which implementation ran.
  const char* s = "123456789";
  EXPECT_EQ(0xE3069283u,
            util::crc32c(reinterpret_cast<const std::uint8_t*>(s), 9));
}

TEST(SimdKernel, Qint8WeightedAverageWithinTolerance) {
  util::Rng rng(54);
  const std::size_t n = 1000;
  const std::size_t clients = 7;
  std::vector<std::vector<float>> params;
  std::vector<std::vector<std::uint8_t>> encoded;
  std::vector<std::vector<float>> decoded;
  std::vector<double> weights;
  double total = 0.0;
  for (std::size_t c = 0; c < clients; ++c) {
    params.push_back(random_floats(n, rng));
    encoded.push_back(fl::wire::encode_payload(fl::wire::CodecId::kQInt8,
                                               params.back().data(), n));
    decoded.push_back(fl::wire::decode_payload(fl::wire::CodecId::kQInt8,
                                               encoded.back().data(),
                                               encoded.back().size(), n));
    weights.push_back(static_cast<double>(10 + 5 * c));
    total += weights.back();
  }
  std::vector<std::pair<const std::vector<float>*, double>> float_entries;
  std::vector<std::pair<const std::vector<std::uint8_t>*, double>>
      byte_entries;
  for (std::size_t c = 0; c < clients; ++c) {
    float_entries.emplace_back(&decoded[c], weights[c]);
    byte_entries.emplace_back(&encoded[c], weights[c] / total);
  }
  const auto want = fl::weighted_average(float_entries);
  const auto got = fl::wire::qint8_weighted_average(byte_entries, n);
  ASSERT_EQ(want.size(), got.size());
  for (std::size_t i = 0; i < n; ++i) {
    // Fixed-point multiplier error <= 2^-25 per q step, 255 steps, per
    // client, plus float decode rounding — 1e-4 absolute is generous.
    ASSERT_NEAR(want[i], got[i], 1e-4f) << "at " << i;
  }
}

TEST(SimdKernel, Qint8WeightedAveragePropagatesPoison) {
  util::Rng rng(55);
  const std::size_t n = 600;  // chunks of 256, 256, 88
  auto clean = random_floats(n, rng);
  auto dirty = random_floats(n, rng);
  dirty[300] = std::numeric_limits<float>::quiet_NaN();  // poisons chunk 1
  const auto e0 = fl::wire::encode_payload(fl::wire::CodecId::kQInt8,
                                           clean.data(), n);
  const auto e1 = fl::wire::encode_payload(fl::wire::CodecId::kQInt8,
                                           dirty.data(), n);
  const auto avg = fl::wire::qint8_weighted_average(
      {{&e0, 0.5}, {&e1, 0.5}}, n);
  for (std::size_t i = 0; i < n; ++i) {
    if (i >= 256 && i < 512) {
      EXPECT_TRUE(std::isnan(avg[i])) << "at " << i;
    } else {
      EXPECT_FALSE(std::isnan(avg[i])) << "at " << i;
    }
  }
}

TEST(SimdKernel, ForceIsaRejectsUnsupported) {
  IsaGuard guard;
  for (std::size_t i = 0; i < util::kNumIsas; ++i) {
    const auto isa = static_cast<util::SimdIsa>(i);
    EXPECT_EQ(util::isa_supported(isa), util::force_isa_for_testing(isa))
        << util::isa_name(isa);
    if (util::isa_supported(isa)) {
      EXPECT_EQ(isa, util::active_isa());
      EXPECT_EQ(isa, simd::kernels().isa);
    }
  }
}

}  // namespace
}  // namespace fedclust
