#include "nn/norm.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace fedclust::nn {

GroupNorm::GroupNorm(std::size_t groups, std::size_t channels, float eps,
                     std::string name)
    : groups_(groups),
      channels_(channels),
      eps_(eps),
      name_(std::move(name)),
      gamma_(name_ + ".gamma", Tensor::full({channels}, 1.0f)),
      beta_(name_ + ".beta", Tensor({channels})) {
  if (groups == 0 || channels % groups != 0) {
    throw std::invalid_argument(name_ +
                                ": channels must be divisible by groups");
  }
}

void GroupNorm::forward_into(const Tensor& x, Tensor& y, bool train) {
  if (x.ndim() != 4 || x.dim(1) != channels_) {
    throw std::invalid_argument(name_ + ": expected (N, " +
                                std::to_string(channels_) + ", H, W), got " +
                                x.shape_str());
  }
  const std::size_t n = x.dim(0);
  const std::size_t area = x.dim(2) * x.dim(3);
  const std::size_t ch_per_group = channels_ / groups_;
  const std::size_t group_size = ch_per_group * area;

  y.resize(x.shape());
  // Only a training forward writes the caches; an eval forward computes
  // the same normalized values and keeps them in registers.
  if (train) {
    cached_xhat_.resize(x.shape());
    cached_inv_std_.resize(n * groups_);
    cached_shape_ = x.shape();
  }

  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t g = 0; g < groups_; ++g) {
      const std::size_t base = (i * channels_ + g * ch_per_group) * area;
      const float* in = x.data() + base;
      double sum = 0.0;
      double sq = 0.0;
      for (std::size_t p = 0; p < group_size; ++p) {
        sum += in[p];
        sq += static_cast<double>(in[p]) * in[p];
      }
      const double mean = sum / static_cast<double>(group_size);
      const double var = sq / static_cast<double>(group_size) - mean * mean;
      const float inv_std =
          static_cast<float>(1.0 / std::sqrt(std::max(var, 0.0) + eps_));
      const float mean_f = static_cast<float>(mean);

      float* out = y.data() + base;
      float* xh = train ? cached_xhat_.data() + base : nullptr;
      if (train) cached_inv_std_[i * groups_ + g] = inv_std;
      for (std::size_t c = 0; c < ch_per_group; ++c) {
        const float gm = gamma_.value[g * ch_per_group + c];
        const float bt = beta_.value[g * ch_per_group + c];
        const std::size_t off = c * area;
        if (xh != nullptr) {
          for (std::size_t p = 0; p < area; ++p) {
            const float h = (in[off + p] - mean_f) * inv_std;
            xh[off + p] = h;
            out[off + p] = gm * h + bt;
          }
        } else {
          for (std::size_t p = 0; p < area; ++p) {
            const float h = (in[off + p] - mean_f) * inv_std;
            out[off + p] = gm * h + bt;
          }
        }
      }
    }
  }
}

void GroupNorm::backward_into(const Tensor& grad_out, Tensor& grad_in) {
  if (cached_shape_.empty() || grad_out.shape() != cached_shape_) {
    throw std::logic_error(name_ + ": backward without matching forward");
  }
  const std::size_t n = cached_shape_[0];
  const std::size_t area = cached_shape_[2] * cached_shape_[3];
  const std::size_t ch_per_group = channels_ / groups_;
  const std::size_t group_size = ch_per_group * area;

  grad_in.resize(cached_shape_);

  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t g = 0; g < groups_; ++g) {
      const std::size_t base = (i * channels_ + g * ch_per_group) * area;
      const float* gy = grad_out.data() + base;
      const float* xh = cached_xhat_.data() + base;
      const float inv_std = cached_inv_std_[i * groups_ + g];

      // Per-channel parameter grads + group-level sums for the input grad.
      double sum_gxhat = 0.0;
      double sum_gxhat_xhat = 0.0;
      for (std::size_t c = 0; c < ch_per_group; ++c) {
        const float gm = gamma_.value[g * ch_per_group + c];
        double dgamma = 0.0;
        double dbeta = 0.0;
        for (std::size_t p = 0; p < area; ++p) {
          const std::size_t idx = c * area + p;
          dgamma += static_cast<double>(gy[idx]) * xh[idx];
          dbeta += gy[idx];
          const double gxh = static_cast<double>(gy[idx]) * gm;
          sum_gxhat += gxh;
          sum_gxhat_xhat += gxh * xh[idx];
        }
        gamma_.grad[g * ch_per_group + c] += static_cast<float>(dgamma);
        beta_.grad[g * ch_per_group + c] += static_cast<float>(dbeta);
      }

      const float mean_gxhat =
          static_cast<float>(sum_gxhat / static_cast<double>(group_size));
      const float mean_gxhat_xhat =
          static_cast<float>(sum_gxhat_xhat / static_cast<double>(group_size));

      float* gx = grad_in.data() + base;
      for (std::size_t c = 0; c < ch_per_group; ++c) {
        const float gm = gamma_.value[g * ch_per_group + c];
        for (std::size_t p = 0; p < area; ++p) {
          const std::size_t idx = c * area + p;
          const float gxhat = gy[idx] * gm;
          gx[idx] = inv_std *
                    (gxhat - mean_gxhat - xh[idx] * mean_gxhat_xhat);
        }
      }
    }
  }
}

}  // namespace fedclust::nn
