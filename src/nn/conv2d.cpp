#include "nn/conv2d.h"

#include <stdexcept>
#include <vector>

#include "obs/trace.h"
#include "tensor/gemm.h"
#include "tensor/im2col.h"
#include "tensor/tensor_ops.h"

namespace fedclust::nn {

Conv2d::Conv2d(std::size_t in_channels, std::size_t out_channels,
               std::size_t kernel, std::size_t stride, std::size_t pad,
               std::string name)
    : in_c_(in_channels),
      out_c_(out_channels),
      kernel_(kernel),
      stride_(stride),
      pad_(pad),
      name_(std::move(name)),
      weight_(name_ + ".weight",
              Tensor({out_channels, in_channels * kernel * kernel})),
      bias_(name_ + ".bias", Tensor({out_channels})) {}

namespace {

// One image's column matrix (an eval forward's, or a backward's dcol): dead
// once its GEMM or col2im is done, so one buffer per thread serves every
// conv layer of every replica that thread runs.
std::vector<float>& image_cols(std::size_t size) {
  thread_local std::vector<float> cols;
  cols.resize(size);
  return cols;
}

}  // namespace

void Conv2d::forward_into(const Tensor& x, Tensor& y, bool train) {
  OBS_SPAN("conv2d.forward");
  if (x.ndim() != 4 || x.dim(1) != in_c_) {
    throw std::invalid_argument(name_ + ": expected input (N, " +
                                std::to_string(in_c_) + ", H, W), got " +
                                x.shape_str());
  }
  const std::size_t n = x.dim(0);
  const std::size_t h = x.dim(2);
  const std::size_t w = x.dim(3);
  const std::size_t oh = tensor::conv_out_dim(h, kernel_, stride_, pad_);
  const std::size_t ow = tensor::conv_out_dim(w, kernel_, stride_, pad_);
  const std::size_t col_rows = in_c_ * kernel_ * kernel_;
  const std::size_t out_area = oh * ow;

  // One lowering in both modes: per image, im2col into a column buffer, then
  // out(out_c, out_area) = W(out_c, col_rows) x col(col_rows, out_area).
  // Training keeps every image's columns in cached_cols_ for backward's dW
  // and dcol GEMMs. Inference reuses the per-thread image buffer, so an
  // eval forward leaves the training cache as the last training forward
  // set it. im2col writes every element, padding zeros included, and the
  // GEMM (beta = 0) every output, so reused buffers need no clearing.
  y.resize({n, out_c_, oh, ow});
  float* cols = nullptr;
  std::size_t col_stride = 0;
  if (train) {
    cached_cols_.resize({n, col_rows, out_area});
    cols = cached_cols_.data();
    col_stride = col_rows * out_area;
  } else {
    cols = image_cols(col_rows * out_area).data();
  }

  for (std::size_t i = 0; i < n; ++i) {
    float* col = cols + i * col_stride;
    float* out = y.data() + i * out_c_ * out_area;
    tensor::im2col(x.data() + i * in_c_ * h * w, in_c_, h, w, kernel_,
                   kernel_, stride_, pad_, col);
    tensor::gemm(tensor::Trans::kNo, tensor::Trans::kNo, out_c_, out_area,
                 col_rows, 1.0f, weight_.value.data(), col_rows, col,
                 out_area, 0.0f, out, out_area);
    for (std::size_t oc = 0; oc < out_c_; ++oc) {
      const float b = bias_.value[oc];
      float* plane = out + oc * out_area;
      for (std::size_t p = 0; p < out_area; ++p) plane[p] += b;
    }
  }

  if (train) {
    cached_n_ = n;
    cached_h_ = h;
    cached_w_ = w;
  }
}

void Conv2d::backward_into(const Tensor& grad_out, Tensor& grad_in) {
  OBS_SPAN("conv2d.backward");
  if (cached_n_ == 0 || grad_out.ndim() != 4 || grad_out.dim(0) != cached_n_ ||
      grad_out.dim(1) != out_c_) {
    throw std::logic_error(name_ + ": backward without matching forward");
  }
  const std::size_t n = cached_n_;
  const std::size_t h = cached_h_;
  const std::size_t w = cached_w_;
  const std::size_t oh = grad_out.dim(2);
  const std::size_t ow = grad_out.dim(3);
  const std::size_t out_area = oh * ow;
  const std::size_t col_rows = in_c_ * kernel_ * kernel_;

  // Without an input gradient (a model's first layer) the W^T x gy GEMM and
  // col2im are skipped and grad_in is left untouched.
  const bool input_grad = needs_input_grad();
  float* grad_col = nullptr;
  if (input_grad) {
    // col2im accumulates overlapping patches, so grad_in starts at zero.
    grad_in.resize({n, in_c_, h, w});
    tensor::fill_(grad_in, 0.0f);
    grad_col = image_cols(col_rows * out_area).data();
  }

  for (std::size_t i = 0; i < n; ++i) {
    const float* gy = grad_out.data() + i * out_c_ * out_area;
    const float* col = cached_cols_.data() + i * col_rows * out_area;
    // dW += gy(out_c, out_area) x col^T(out_area, col_rows)
    tensor::gemm(tensor::Trans::kNo, tensor::Trans::kYes, out_c_, col_rows,
                 out_area, 1.0f, gy, out_area, col, out_area, 1.0f,
                 weight_.grad.data(), col_rows);
    // db += spatial sums of gy
    for (std::size_t oc = 0; oc < out_c_; ++oc) {
      const float* plane = gy + oc * out_area;
      double s = 0.0;
      for (std::size_t p = 0; p < out_area; ++p) s += plane[p];
      bias_.grad[oc] += static_cast<float>(s);
    }
    if (!input_grad) continue;
    // dcol = W^T(col_rows, out_c) x gy(out_c, out_area), then scatter back.
    tensor::gemm(tensor::Trans::kYes, tensor::Trans::kNo, col_rows, out_area,
                 out_c_, 1.0f, weight_.value.data(), col_rows, gy, out_area,
                 0.0f, grad_col, out_area);
    tensor::col2im(grad_col, in_c_, h, w, kernel_, kernel_, stride_, pad_,
                   grad_in.data() + i * in_c_ * h * w);
  }
}

}  // namespace fedclust::nn
