#pragma once

// im2col / col2im lowering, turning 2-D convolution into GEMM.
//
// Layouts: images are CHW; the column matrix is (C*kh*kw, OH*OW) row-major,
// so conv forward is W_mat(out_c, C*kh*kw) x col = out(out_c, OH*OW).

#include <cstddef>

namespace fedclust::tensor {

std::size_t conv_out_dim(std::size_t in, std::size_t kernel,
                         std::size_t stride, std::size_t pad);

// Expands one CHW image into the column matrix (zero padding).
void im2col(const float* img, std::size_t c, std::size_t h, std::size_t w,
            std::size_t kh, std::size_t kw, std::size_t stride,
            std::size_t pad, float* col);

// Adjoint of im2col: scatters-and-accumulates the column matrix back into a
// CHW image buffer. The caller must zero `img` first; overlapping patches
// accumulate, which is exactly the gradient of im2col.
void col2im(const float* col, std::size_t c, std::size_t h, std::size_t w,
            std::size_t kh, std::size_t kw, std::size_t stride,
            std::size_t pad, float* img);

}  // namespace fedclust::tensor
