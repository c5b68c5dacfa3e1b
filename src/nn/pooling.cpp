#include "nn/pooling.h"

#include <limits>
#include <stdexcept>

#include "tensor/im2col.h"

namespace fedclust::nn {

namespace {

void check_nchw(const Tensor& x, const char* who) {
  if (x.ndim() != 4) {
    throw std::invalid_argument(std::string(who) + ": expected NCHW input, got " +
                                x.shape_str());
  }
}

}  // namespace

MaxPool2d::MaxPool2d(std::size_t kernel, std::size_t stride)
    : kernel_(kernel), stride_(stride == 0 ? kernel : stride) {}

Tensor MaxPool2d::forward(const Tensor& x, bool train) {
  check_nchw(x, "maxpool");
  const std::size_t n = x.dim(0);
  const std::size_t c = x.dim(1);
  const std::size_t h = x.dim(2);
  const std::size_t w = x.dim(3);
  const std::size_t oh = tensor::conv_out_dim(h, kernel_, stride_, 0);
  const std::size_t ow = tensor::conv_out_dim(w, kernel_, stride_, 0);

  Tensor y({n, c, oh, ow});
  if (train) argmax_.assign(y.size(), 0);

  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t ch = 0; ch < c; ++ch) {
      const std::size_t plane_off = (i * c + ch) * h * w;
      const float* plane = x.data() + plane_off;
      const std::size_t out_off = (i * c + ch) * oh * ow;
      for (std::size_t oy = 0; oy < oh; ++oy) {
        for (std::size_t ox = 0; ox < ow; ++ox) {
          float best = -std::numeric_limits<float>::infinity();
          std::size_t best_idx = 0;
          for (std::size_t ky = 0; ky < kernel_; ++ky) {
            for (std::size_t kx = 0; kx < kernel_; ++kx) {
              const std::size_t iy = oy * stride_ + ky;
              const std::size_t ix = ox * stride_ + kx;
              const float v = plane[iy * w + ix];
              if (v > best) {
                best = v;
                best_idx = plane_off + iy * w + ix;
              }
            }
          }
          const std::size_t out_idx = out_off + oy * ow + ox;
          y[out_idx] = best;
          if (train) argmax_[out_idx] = best_idx;
        }
      }
    }
  }
  if (train) {
    cached_in_shape_ = x.shape();
    cached_out_shape_ = y.shape();
  }
  return y;
}

Tensor MaxPool2d::backward(const Tensor& grad_out) {
  if (argmax_.empty() || grad_out.shape() != cached_out_shape_) {
    throw std::logic_error("maxpool: backward without matching forward");
  }
  Tensor grad_in(cached_in_shape_);
  for (std::size_t i = 0; i < grad_out.size(); ++i) {
    grad_in[argmax_[i]] += grad_out[i];
  }
  return grad_in;
}

Tensor GlobalAvgPool2d::forward(const Tensor& x, bool train) {
  check_nchw(x, "gap");
  const std::size_t n = x.dim(0);
  const std::size_t c = x.dim(1);
  const std::size_t area = x.dim(2) * x.dim(3);
  const float inv = 1.0f / static_cast<float>(area);
  Tensor y({n, c});
  for (std::size_t i = 0; i < n * c; ++i) {
    const float* plane = x.data() + i * area;
    double s = 0.0;
    for (std::size_t p = 0; p < area; ++p) s += plane[p];
    y[i] = static_cast<float>(s) * inv;
  }
  if (train) cached_in_shape_ = x.shape();
  return y;
}

Tensor GlobalAvgPool2d::backward(const Tensor& grad_out) {
  if (cached_in_shape_.empty()) {
    throw std::logic_error("gap: backward without matching forward");
  }
  const std::size_t area = cached_in_shape_[2] * cached_in_shape_[3];
  const float inv = 1.0f / static_cast<float>(area);
  Tensor grad_in(cached_in_shape_);
  for (std::size_t i = 0; i < grad_out.size(); ++i) {
    const float g = grad_out[i] * inv;
    float* plane = grad_in.data() + i * area;
    for (std::size_t p = 0; p < area; ++p) plane[p] = g;
  }
  return grad_in;
}

Tensor Flatten::forward(const Tensor& x, bool train) {
  if (x.ndim() < 2) {
    throw std::invalid_argument("flatten: expected at least 2-D input");
  }
  if (train) cached_in_shape_ = x.shape();
  Tensor y = x;
  y.reshape({x.dim(0), x.size() / x.dim(0)});
  return y;
}

Tensor Flatten::backward(const Tensor& grad_out) {
  if (cached_in_shape_.empty()) {
    throw std::logic_error("flatten: backward without matching forward");
  }
  Tensor g = grad_out;
  g.reshape(cached_in_shape_);
  return g;
}

}  // namespace fedclust::nn
