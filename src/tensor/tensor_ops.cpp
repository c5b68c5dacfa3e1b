#include "tensor/tensor_ops.h"

#include <cmath>
#include <stdexcept>

namespace fedclust::tensor {

void axpy(float alpha, const Tensor& x, Tensor& y) {
  check_same_shape(x, y, "axpy");
  axpy(alpha, x.vec(), y.vec());
}

void axpy(float alpha, const std::vector<float>& x, std::vector<float>& y) {
  if (x.size() != y.size()) throw std::invalid_argument("axpy: size mismatch");
  const float* __restrict xp = x.data();
  float* __restrict yp = y.data();
  for (std::size_t i = 0; i < x.size(); ++i) yp[i] += alpha * xp[i];
}

void scale_(Tensor& t, float alpha) { scale_(t.vec(), alpha); }

void scale_(std::vector<float>& v, float alpha) {
  for (auto& x : v) x *= alpha;
}

void fill_(Tensor& t, float value) {
  for (auto& x : t.vec()) x = value;
}

void add_(Tensor& y, const Tensor& x) { axpy(1.0f, x, y); }


float dot(const Tensor& a, const Tensor& b) {
  check_same_shape(a, b, "dot");
  return dot(a.vec(), b.vec());
}

float dot(const std::vector<float>& a, const std::vector<float>& b) {
  if (a.size() != b.size()) throw std::invalid_argument("dot: size mismatch");
  // Accumulate in double: parameter vectors reach ~10^6 elements and float
  // accumulation would lose ~3 digits.
  double s = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    s += static_cast<double>(a[i]) * static_cast<double>(b[i]);
  }
  return static_cast<float>(s);
}

float nrm2(const Tensor& t) { return nrm2(t.vec()); }

float nrm2(const std::vector<float>& v) {
  double s = 0.0;
  for (const float x : v) s += static_cast<double>(x) * x;
  return static_cast<float>(std::sqrt(s));
}

float l2_distance(const std::vector<float>& a, const std::vector<float>& b) {
  if (a.size() != b.size()) {
    throw std::invalid_argument("l2_distance: size mismatch");
  }
  double s = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = static_cast<double>(a[i]) - b[i];
    s += d * d;
  }
  return static_cast<float>(std::sqrt(s));
}

float cosine_similarity(const std::vector<float>& a,
                        const std::vector<float>& b) {
  const float na = nrm2(a);
  const float nb = nrm2(b);
  if (na == 0.0f || nb == 0.0f) return 0.0f;
  return dot(a, b) / (na * nb);
}

float sum(const Tensor& t) {
  double s = 0.0;
  for (const float x : t.vec()) s += x;
  return static_cast<float>(s);
}

void softmax_rows_(Tensor& logits) {
  if (logits.ndim() != 2) {
    throw std::invalid_argument("softmax_rows_: expected a 2-D tensor");
  }
  const std::size_t n = logits.dim(0);
  const std::size_t k = logits.dim(1);
  float* p = logits.data();
  for (std::size_t r = 0; r < n; ++r, p += k) {
    float mx = p[0];
    for (std::size_t j = 1; j < k; ++j) mx = std::max(mx, p[j]);
    double denom = 0.0;
    for (std::size_t j = 0; j < k; ++j) {
      p[j] = std::exp(p[j] - mx);
      denom += p[j];
    }
    const float inv = static_cast<float>(1.0 / denom);
    for (std::size_t j = 0; j < k; ++j) p[j] *= inv;
  }
}

std::size_t argmax(const float* p, std::size_t k) {
  std::size_t best = 0;
  for (std::size_t j = 1; j < k; ++j) {
    if (p[j] > p[best]) best = j;
  }
  return best;
}

std::vector<std::size_t> argmax_rows(const Tensor& m) {
  if (m.ndim() != 2) {
    throw std::invalid_argument("argmax_rows: expected a 2-D tensor");
  }
  const std::size_t n = m.dim(0);
  const std::size_t k = m.dim(1);
  std::vector<std::size_t> out(n);
  const float* p = m.data();
  for (std::size_t r = 0; r < n; ++r, p += k) out[r] = argmax(p, k);
  return out;
}

}  // namespace fedclust::tensor
