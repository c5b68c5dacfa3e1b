#include "tensor/im2col.h"

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "obs/trace.h"

namespace fedclust::tensor {

std::size_t conv_out_dim(std::size_t in, std::size_t kernel,
                         std::size_t stride, std::size_t pad) {
  const std::size_t padded = in + 2 * pad;
  if (padded < kernel) {
    throw std::invalid_argument("conv_out_dim: kernel larger than input");
  }
  return (padded - kernel) / stride + 1;
}

namespace {

// At stride 1 a kernel column offset d = kx - pad maps output column ox to
// input column ox + d; returns the span [lo, hi) of ox that lands inside
// [0, w), clamped to [0, ow] (empty when lo >= hi).
std::pair<std::size_t, std::size_t> unit_stride_span(std::ptrdiff_t d,
                                                     std::size_t w,
                                                     std::size_t ow) {
  const auto lo = static_cast<std::size_t>(std::max<std::ptrdiff_t>(0, -d));
  const auto hi = static_cast<std::size_t>(std::clamp<std::ptrdiff_t>(
      static_cast<std::ptrdiff_t>(w) - d, 0,
      static_cast<std::ptrdiff_t>(ow)));
  return {lo, hi};
}

// dst[j] += src[j]; the buffers never overlap, so the loop vectorizes.
void add_span(float* __restrict dst, const float* __restrict src,
              std::size_t n) {
  for (std::size_t j = 0; j < n; ++j) dst[j] += src[j];
}

}  // namespace

void im2col(const float* img, std::size_t c, std::size_t h, std::size_t w,
            std::size_t kh, std::size_t kw, std::size_t stride,
            std::size_t pad, float* col) {
  OBS_SPAN("im2col");
  const std::size_t oh = conv_out_dim(h, kh, stride, pad);
  const std::size_t ow = conv_out_dim(w, kw, stride, pad);
  const std::size_t out_area = oh * ow;
  // Row (channel, ky, kx) of the column matrix, column (oy, ox).
  std::size_t row = 0;
  for (std::size_t ch = 0; ch < c; ++ch) {
    const float* plane = img + ch * h * w;
    for (std::size_t ky = 0; ky < kh; ++ky) {
      for (std::size_t kx = 0; kx < kw; ++kx, ++row) {
        float* out_row = col + row * out_area;
        for (std::size_t oy = 0; oy < oh; ++oy) {
          const std::ptrdiff_t iy =
              static_cast<std::ptrdiff_t>(oy * stride + ky) -
              static_cast<std::ptrdiff_t>(pad);
          float* dst = out_row + oy * ow;
          if (iy < 0 || iy >= static_cast<std::ptrdiff_t>(h)) {
            std::memset(dst, 0, ow * sizeof(float));
            continue;
          }
          const float* in_row = plane + static_cast<std::size_t>(iy) * w;
          if (stride == 1) {
            // Unit stride: ix = ox + (kx - pad), so the in-bounds ox span
            // [lo, hi) is one contiguous copy framed by zero fill.
            const std::ptrdiff_t d = static_cast<std::ptrdiff_t>(kx) -
                                     static_cast<std::ptrdiff_t>(pad);
            const auto [lo, hi] = unit_stride_span(d, w, ow);
            if (lo > 0) std::memset(dst, 0, lo * sizeof(float));
            if (hi > lo) {
              std::memcpy(dst + lo,
                          in_row + static_cast<std::ptrdiff_t>(lo) + d,
                          (hi - lo) * sizeof(float));
            }
            if (hi < ow) std::memset(dst + hi, 0, (ow - hi) * sizeof(float));
            continue;
          }
          for (std::size_t ox = 0; ox < ow; ++ox) {
            const std::ptrdiff_t ix =
                static_cast<std::ptrdiff_t>(ox * stride + kx) -
                static_cast<std::ptrdiff_t>(pad);
            dst[ox] = (ix < 0 || ix >= static_cast<std::ptrdiff_t>(w))
                          ? 0.0f
                          : in_row[static_cast<std::size_t>(ix)];
          }
        }
      }
    }
  }
}

void col2im(const float* col, std::size_t c, std::size_t h, std::size_t w,
            std::size_t kh, std::size_t kw, std::size_t stride,
            std::size_t pad, float* img) {
  OBS_SPAN("col2im");
  const std::size_t oh = conv_out_dim(h, kh, stride, pad);
  const std::size_t ow = conv_out_dim(w, kw, stride, pad);
  const std::size_t out_area = oh * ow;
  std::size_t row = 0;
  for (std::size_t ch = 0; ch < c; ++ch) {
    float* plane = img + ch * h * w;
    for (std::size_t ky = 0; ky < kh; ++ky) {
      for (std::size_t kx = 0; kx < kw; ++kx, ++row) {
        const float* in_row = col + row * out_area;
        for (std::size_t oy = 0; oy < oh; ++oy) {
          const std::ptrdiff_t iy =
              static_cast<std::ptrdiff_t>(oy * stride + ky) -
              static_cast<std::ptrdiff_t>(pad);
          if (iy < 0 || iy >= static_cast<std::ptrdiff_t>(h)) continue;
          float* dst_row = plane + static_cast<std::size_t>(iy) * w;
          if (stride == 1) {
            // Unit stride: the in-bounds ox span [lo, hi) maps onto
            // contiguous ix = ox + d, one add per pixel as below, in the
            // same (row, oy) order — so each pixel's sum is unchanged.
            const std::ptrdiff_t d = static_cast<std::ptrdiff_t>(kx) -
                                     static_cast<std::ptrdiff_t>(pad);
            const auto [lo, hi] = unit_stride_span(d, w, ow);
            if (hi > lo) {
              add_span(dst_row + (static_cast<std::ptrdiff_t>(lo) + d),
                       in_row + oy * ow + lo, hi - lo);
            }
            continue;
          }
          for (std::size_t ox = 0; ox < ow; ++ox) {
            const std::ptrdiff_t ix =
                static_cast<std::ptrdiff_t>(ox * stride + kx) -
                static_cast<std::ptrdiff_t>(pad);
            if (ix < 0 || ix >= static_cast<std::ptrdiff_t>(w)) continue;
            dst_row[static_cast<std::size_t>(ix)] += in_row[oy * ow + ox];
          }
        }
      }
    }
  }
}

}  // namespace fedclust::tensor
