#include "tensor/im2col.h"

#include <algorithm>
#include <stdexcept>
#include <vector>

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

// Both functions lower through one zero-padded copy of each channel plane,
// (h + 2 pad) x (w + 2 pad) floats, so row (ch, ky, kx) of the column matrix
// is the plain oh x ow window at (ky, kx) of that plane, sampled every
// `stride`: no bounds arithmetic is left. Without padding the image plane
// itself serves as the padded plane.

// The per-thread padded plane for one call, zeroed, so neither function
// allocates per call (the idiom of the GEMM kernels' pack buffers). Channels
// refill only its interior, so its frame stays zero in im2col; col2im's
// out-of-image adds land in the frame, which is never read back. im2col and
// col2im never nest, so they share it.
float* padded_plane(std::size_t h, std::size_t w, std::size_t pad) {
  thread_local std::vector<float> buf;
  buf.assign((h + 2 * pad) * (w + 2 * pad), 0.0f);
  return buf.data();
}

// Moves `rows` runs of `width` floats between a plane and a packed buffer:
// run r reads src + r * src_pitch and writes dst + r * dst_pitch.
//   kCopy: dst[j] = src[j * step]   (plane -> packed, or plane -> plane)
//   kAdd:  dst[j * step] += src[j]  (packed -> plane)
// The buffers never overlap, and no cell is written twice by one call.
enum class Move { kCopy, kAdd };
using RunsFn = void (*)(const float* __restrict src, std::size_t src_pitch,
                        float* __restrict dst, std::size_t dst_pitch,
                        std::size_t rows, std::size_t width,
                        std::size_t step);

// Unit step at a width fixed at compile time: each run is a few vector
// moves rather than a libc call.
template <Move M, std::size_t W>
void runs_fixed(const float* __restrict src, std::size_t src_pitch,
                float* __restrict dst, std::size_t dst_pitch,
                std::size_t rows, std::size_t /*width*/,
                std::size_t /*step*/) {
  for (std::size_t r = 0; r < rows; ++r) {
    const float* s = src + r * src_pitch;
    float* d = dst + r * dst_pitch;
    for (std::size_t j = 0; j < W; ++j) {
      if constexpr (M == Move::kCopy) {
        d[j] = s[j];
      } else {
        d[j] += s[j];
      }
    }
  }
}

// Any width, any step.
template <Move M>
void runs_any(const float* __restrict src, std::size_t src_pitch,
              float* __restrict dst, std::size_t dst_pitch, std::size_t rows,
              std::size_t width, std::size_t step) {
  for (std::size_t r = 0; r < rows; ++r) {
    const float* s = src + r * src_pitch;
    float* d = dst + r * dst_pitch;
    for (std::size_t j = 0; j < width; ++j) {
      if constexpr (M == Move::kCopy) {
        d[j] = s[j * step];
      } else {
        d[j * step] += s[j];
      }
    }
  }
}

// Every dataset is 16 x 16 and the models keep or halve that, so their
// convs issue runs 16, 8 and 4 floats wide; other widths take the loop.
template <Move M>
RunsFn runs_for(std::size_t width, std::size_t step) {
  if (step == 1) {
    switch (width) {
      case 16: return runs_fixed<M, 16>;
      case 8: return runs_fixed<M, 8>;
      case 4: return runs_fixed<M, 4>;
      default: break;
    }
  }
  return runs_any<M>;
}

}  // namespace

void im2col(const float* img, std::size_t c, std::size_t h, std::size_t w,
            std::size_t kh, std::size_t kw, std::size_t stride,
            std::size_t pad, float* col) {
  OBS_SPAN("im2col");
  const std::size_t oh = conv_out_dim(h, kh, stride, pad);
  const std::size_t ow = conv_out_dim(w, kw, stride, pad);
  const std::size_t out_area = oh * ow;
  const std::size_t pitch = w + 2 * pad;
  const RunsFn window = runs_for<Move::kCopy>(ow, stride);
  const RunsFn fill = runs_for<Move::kCopy>(w, 1);
  float* padded = pad > 0 ? padded_plane(h, w, pad) : nullptr;
  // Row (channel, ky, kx) of the column matrix, column (oy, ox).
  float* out_row = col;
  for (std::size_t ch = 0; ch < c; ++ch) {
    const float* plane = img + ch * h * w;
    if (pad > 0) {
      fill(plane, w, padded + pad * pitch + pad, pitch, h, w, 1);
      plane = padded;
    }
    for (std::size_t ky = 0; ky < kh; ++ky) {
      for (std::size_t kx = 0; kx < kw; ++kx, out_row += out_area) {
        window(plane + ky * pitch + kx, stride * pitch, out_row, ow, oh, ow,
               stride);
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
  const std::size_t pitch = w + 2 * pad;
  const RunsFn window = runs_for<Move::kAdd>(ow, stride);
  const RunsFn copy = runs_for<Move::kCopy>(w, 1);
  float* padded = pad > 0 ? padded_plane(h, w, pad) : nullptr;
  // Each pixel starts from its incoming value and receives its adds in
  // (row, oy, ox) order, as a per-element loop adds them.
  const float* in_row = col;
  for (std::size_t ch = 0; ch < c; ++ch) {
    float* image = img + ch * h * w;
    float* plane = image;
    if (pad > 0) {
      plane = padded;
      copy(image, w, plane + pad * pitch + pad, pitch, h, w, 1);
    }
    for (std::size_t ky = 0; ky < kh; ++ky) {
      for (std::size_t kx = 0; kx < kw; ++kx, in_row += out_area) {
        window(in_row, ow, plane + ky * pitch + kx, stride * pitch, oh, ow,
               stride);
      }
    }
    if (pad > 0) copy(plane + pad * pitch + pad, pitch, image, w, h, w, 1);
  }
}

}  // namespace fedclust::tensor
