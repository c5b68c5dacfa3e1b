// Gradient-checks every layer's backward pass against central finite
// differences, plus forward-pass spot checks on known values.

#include <gtest/gtest.h>

#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <limits>
#include <memory>
#include <stdexcept>
#include <vector>

#include "nn/activations.h"
#include "nn/conv2d.h"
#include "nn/init.h"
#include "nn/linear.h"
#include "nn/norm.h"
#include "nn/pooling.h"
#include "nn/residual.h"
#include "tensor/gemm.h"
#include "tensor/im2col.h"
#include "util/cpu.h"
#include "util/rng.h"

namespace fedclust::nn {
namespace {

using tensor::Tensor;

Tensor random_input(tensor::Shape shape, util::Rng& rng, float scale = 1.0f) {
  Tensor t(std::move(shape));
  for (auto& x : t.vec()) x = rng.normalf(0.0f, scale);
  return t;
}

// Smooth activation for the composed gradient checks below, where a
// ReLU kink inside the finite-difference step would break the check.
class Tanh : public Module {
 public:
  void forward_into(const Tensor& x, Tensor& y, bool train) override {
    y = x;
    for (auto& v : y.vec()) v = std::tanh(v);
    if (train) cached_output_ = y;
  }
  void backward_into(const Tensor& grad_out, Tensor& grad_in) override {
    if (cached_output_.shape() != grad_out.shape()) {
      throw std::logic_error("tanh: backward without matching forward");
    }
    grad_in = grad_out;
    for (std::size_t i = 0; i < grad_in.size(); ++i) {
      const float t = cached_output_[i];
      grad_in[i] *= 1.0f - t * t;
    }
  }
  std::string name() const override { return "tanh"; }

 private:
  Tensor cached_output_;
};

// Scalarizes the module output with fixed random projection weights so we
// can finite-difference a single number.
struct GradCheck {
  Module& module;
  Tensor input;
  Tensor proj;  // same shape as module output

  explicit GradCheck(Module& m, Tensor in, util::Rng& rng)
      : module(m), input(std::move(in)) {
    const Tensor out = module.forward(input, /*train=*/false);
    proj = Tensor(out.shape());
    for (auto& x : proj.vec()) x = rng.normalf(0.0f, 1.0f);
  }

  double scalar_loss() {
    const Tensor out = module.forward(input, /*train=*/false);
    double s = 0.0;
    for (std::size_t i = 0; i < out.size(); ++i) {
      s += static_cast<double>(out[i]) * proj[i];
    }
    return s;
  }

  // Analytic grads: one backward pass with grad_out = proj.
  Tensor analytic_input_grad() {
    module.zero_grad();
    module.forward(input, /*train=*/true);
    return module.backward(proj);
  }

  void check_input_grad(double eps = 1e-3, double tol = 2e-2) {
    const Tensor gx = analytic_input_grad();
    for (std::size_t i = 0; i < input.size(); ++i) {
      const float saved = input[i];
      input[i] = saved + static_cast<float>(eps);
      const double lp = scalar_loss();
      input[i] = saved - static_cast<float>(eps);
      const double lm = scalar_loss();
      input[i] = saved;
      const double num = (lp - lm) / (2.0 * eps);
      EXPECT_NEAR(gx[i], num, tol * (std::abs(num) + 1.0))
          << "input grad mismatch at " << i;
    }
  }

  void check_param_grads(double eps = 1e-3, double tol = 2e-2) {
    analytic_input_grad();  // fills parameter grads
    for (Parameter* p : module.parameters()) {
      // Copy analytic grads before the FD loop perturbs state.
      const Tensor g = p->grad;
      for (std::size_t i = 0; i < p->value.size(); ++i) {
        const float saved = p->value[i];
        p->value[i] = saved + static_cast<float>(eps);
        const double lp = scalar_loss();
        p->value[i] = saved - static_cast<float>(eps);
        const double lm = scalar_loss();
        p->value[i] = saved;
        const double num = (lp - lm) / (2.0 * eps);
        EXPECT_NEAR(g[i], num, tol * (std::abs(num) + 1.0))
            << p->name << " grad mismatch at " << i;
      }
    }
  }
};

// ----------------------------------------------------------------- linear

TEST(Linear, ForwardKnown) {
  Linear fc(2, 2, "fc");
  fc.weight().value = Tensor({2, 2}, {1, 2, 3, 4});
  fc.bias().value = Tensor({2}, {10, 20});
  const Tensor x({1, 2}, {1, 1});
  const Tensor y = fc.forward(x, false);
  EXPECT_FLOAT_EQ(y[0], 13.0f);  // 1*1+2*1+10
  EXPECT_FLOAT_EQ(y[1], 27.0f);  // 3*1+4*1+20
}

TEST(Linear, RejectsWrongWidth) {
  Linear fc(3, 2);
  EXPECT_THROW(fc.forward(Tensor({1, 4}), false), std::invalid_argument);
  EXPECT_THROW(fc.backward(Tensor({1, 2})), std::logic_error);
}

TEST(Linear, GradCheck) {
  util::Rng rng(1);
  auto fc = make_linear(5, 4, rng, "fc");
  GradCheck gc(*fc, random_input({3, 5}, rng), rng);
  gc.check_input_grad();
  gc.check_param_grads();
}

TEST(Linear, GradAccumulatesAcrossBackwards) {
  util::Rng rng(2);
  auto fc = make_linear(3, 2, rng, "fc");
  const Tensor x = random_input({2, 3}, rng);
  const Tensor g = random_input({2, 2}, rng);
  fc->zero_grad();
  fc->forward(x, true);
  fc->backward(g);
  const Tensor once = fc->weight().grad;
  fc->forward(x, true);
  fc->backward(g);
  for (std::size_t i = 0; i < once.size(); ++i) {
    EXPECT_NEAR(fc->weight().grad[i], 2.0f * once[i], 1e-5);
  }
}

// ------------------------------------------------------------------ conv

TEST(Conv2d, ForwardKnownIdentityKernel) {
  Conv2d conv(1, 1, 1, 1, 0, "c");
  conv.weight().value = Tensor({1, 1}, {2.0f});
  conv.parameters()[1]->value = Tensor({1}, {1.0f});
  const Tensor x({1, 1, 2, 2}, {1, 2, 3, 4});
  const Tensor y = conv.forward(x, false);
  EXPECT_EQ(y.shape(), (tensor::Shape{1, 1, 2, 2}));
  EXPECT_FLOAT_EQ(y[0], 3.0f);
  EXPECT_FLOAT_EQ(y[3], 9.0f);
}

TEST(Conv2d, ForwardKnownSum) {
  // 2x2 all-ones kernel on 3x3 ramp, no pad: sliding window sums.
  Conv2d conv(1, 1, 2, 1, 0, "c");
  conv.weight().value = Tensor::full({1, 4}, 1.0f);
  const Tensor x({1, 1, 3, 3}, {1, 2, 3, 4, 5, 6, 7, 8, 9});
  const Tensor y = conv.forward(x, false);
  EXPECT_EQ(y.shape(), (tensor::Shape{1, 1, 2, 2}));
  EXPECT_FLOAT_EQ(y[0], 12.0f);
  EXPECT_FLOAT_EQ(y[1], 16.0f);
  EXPECT_FLOAT_EQ(y[2], 24.0f);
  EXPECT_FLOAT_EQ(y[3], 28.0f);
}

TEST(Conv2d, RejectsWrongChannels) {
  Conv2d conv(3, 4, 3, 1, 1);
  EXPECT_THROW(conv.forward(Tensor({1, 2, 8, 8}), false),
               std::invalid_argument);
}

TEST(Conv2d, GradCheckStride1Pad1) {
  util::Rng rng(3);
  auto conv = make_conv(2, 3, 3, 1, 1, rng, "c");
  GradCheck gc(*conv, random_input({2, 2, 5, 5}, rng), rng);
  gc.check_input_grad();
  gc.check_param_grads();
}

TEST(Conv2d, GradCheckStride2NoPad) {
  util::Rng rng(4);
  auto conv = make_conv(1, 2, 3, 2, 0, rng, "c");
  GradCheck gc(*conv, random_input({1, 1, 7, 7}, rng), rng);
  gc.check_input_grad();
  gc.check_param_grads();
}

bool same_bits(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

// Restores the dispatched ISA after a test that forces it.
struct IsaGuard {
  util::SimdIsa prev = util::active_isa();
  ~IsaGuard() { util::force_isa_for_testing(prev); }
};

std::unique_ptr<Conv2d> random_conv(std::size_t in_c, std::size_t out_c,
                                    std::size_t k, std::size_t stride,
                                    std::size_t pad, util::Rng& rng) {
  auto conv = std::make_unique<Conv2d>(in_c, out_c, k, stride, pad, "c");
  for (Parameter* p : conv->parameters()) {
    for (auto& v : p->value.vec()) v = rng.normalf(0.0f, 1.0f);
  }
  return conv;
}

// Eval and train forwards run one lowering (im2col, then tensor::gemm, then
// the bias), so at every ISA the host runs a batch's eval forward must
// equal, bit for bit, the scalar train forward and an im2col + gemm
// reference.
TEST(Conv2d, EvalForwardMatchesTrainForwardAcrossIsas) {
  IsaGuard guard;
  util::Rng rng(47);
  struct P { std::size_t c, h, w, oc, k, stride, pad; };
  const P cases[] = {
      {1, 8, 8, 4, 3, 1, 1},     {3, 12, 12, 8, 5, 1, 2},
      {2, 9, 9, 5, 3, 2, 1},     {4, 16, 16, 70, 3, 1, 0},
      {3, 16, 16, 6, 5, 1, 2},   // LeNet-5 conv1
      {8, 16, 16, 16, 3, 1, 1},  // ResNet-9 conv2
  };
  constexpr std::size_t kBatch = 3;
  for (const P& p : cases) {
    auto conv = random_conv(p.c, p.oc, p.k, p.stride, p.pad, rng);
    const Tensor x = random_input({kBatch, p.c, p.h, p.w}, rng);
    const std::size_t oh = tensor::conv_out_dim(p.h, p.k, p.stride, p.pad);
    const std::size_t ow = tensor::conv_out_dim(p.w, p.k, p.stride, p.pad);
    const std::size_t rows = p.c * p.k * p.k;
    const std::size_t area = oh * ow;

    ASSERT_TRUE(util::force_isa_for_testing(util::SimdIsa::kScalar));
    Tensor want({kBatch, p.oc, oh, ow});
    std::vector<float> col(rows * area);
    for (std::size_t i = 0; i < kBatch; ++i) {
      float* out = want.data() + i * p.oc * area;
      tensor::im2col(x.data() + i * p.c * p.h * p.w, p.c, p.h, p.w, p.k, p.k,
                     p.stride, p.pad, col.data());
      tensor::gemm(tensor::Trans::kNo, tensor::Trans::kNo, p.oc, area, rows,
                   1.0f, conv->weight().value.data(), rows, col.data(), area,
                   0.0f, out, area);
      for (std::size_t oc = 0; oc < p.oc; ++oc) {
        for (std::size_t q = 0; q < area; ++q) {
          out[oc * area + q] += conv->parameters()[1]->value[oc];
        }
      }
    }
    const Tensor train_y = conv->forward(x, /*train=*/true);
    EXPECT_TRUE(same_bits(want, train_y)) << "oc=" << p.oc;

    for (std::size_t i = 0; i < util::kNumIsas; ++i) {
      const auto isa = static_cast<util::SimdIsa>(i);
      if (!util::isa_supported(isa)) continue;
      ASSERT_TRUE(util::force_isa_for_testing(isa));
      EXPECT_TRUE(same_bits(train_y, conv->forward(x, /*train=*/false)))
          << "isa=" << util::isa_name(isa) << " oc=" << p.oc;
    }
  }
}

// An eval forward between a training forward and its backward must leave
// the training cache alone: backward still sees its own forward's columns.
// The eval inputs share the training batch's shape (or have more images),
// so an eval that wrote the cache would change the gradients, not throw.
TEST(Conv2d, EvalForwardLeavesTrainingCacheAlone) {
  util::Rng rng(48);
  const auto ref = random_conv(3, 4, 3, 1, 1, rng);
  const Tensor x = random_input({2, 3, 8, 8}, rng);
  const Tensor g = random_input({2, 4, 8, 8}, rng);
  ref->forward(x, /*train=*/true);
  const Tensor ref_gx = ref->backward(g);

  for (const std::size_t eval_batch : {std::size_t{2}, std::size_t{3}}) {
    Conv2d conv(3, 4, 3, 1, 1, "c");
    for (std::size_t k = 0; k < 2; ++k) {
      conv.parameters()[k]->value = ref->parameters()[k]->value;
    }
    conv.forward(x, /*train=*/true);
    conv.forward(random_input({eval_batch, 3, 8, 8}, rng), /*train=*/false);
    EXPECT_TRUE(same_bits(ref_gx, conv.backward(g)))
        << "eval batch " << eval_batch;
    for (std::size_t k = 0; k < 2; ++k) {
      EXPECT_TRUE(same_bits(ref->parameters()[k]->grad,
                            conv.parameters()[k]->grad))
          << ref->parameters()[k]->name << ", eval batch " << eval_batch;
    }
  }
}

// ---------------------------------------------------------------- pooling

TEST(MaxPool, ForwardKnown) {
  MaxPool2d pool(2);
  const Tensor x({1, 1, 4, 4},
                 {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16});
  const Tensor y = pool.forward(x, false);
  EXPECT_EQ(y.shape(), (tensor::Shape{1, 1, 2, 2}));
  EXPECT_FLOAT_EQ(y[0], 6.0f);
  EXPECT_FLOAT_EQ(y[3], 16.0f);
}

TEST(MaxPool, BackwardRoutesToArgmax) {
  MaxPool2d pool(2);
  const Tensor x({1, 1, 2, 2}, {1, 9, 3, 4});
  pool.forward(x, true);
  const Tensor g({1, 1, 1, 1}, {5.0f});
  const Tensor gx = pool.backward(g);
  EXPECT_FLOAT_EQ(gx[0], 0.0f);
  EXPECT_FLOAT_EQ(gx[1], 5.0f);
  EXPECT_FLOAT_EQ(gx[2], 0.0f);
}

TEST(MaxPool, GradCheck) {
  util::Rng rng(5);
  MaxPool2d pool(2);
  // Distinct values so the argmax is stable under the FD epsilon.
  Tensor x({1, 2, 4, 4});
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = static_cast<float>(i % 7) + 0.01f * static_cast<float>(i);
  }
  GradCheck gc(pool, x, rng);
  gc.check_input_grad();
}

TEST(GlobalAvgPool, ForwardAndGradCheck) {
  util::Rng rng(7);
  GlobalAvgPool2d gap;
  const Tensor x({1, 2, 2, 2}, {1, 2, 3, 4, 10, 20, 30, 40});
  const Tensor y = gap.forward(x, false);
  EXPECT_EQ(y.shape(), (tensor::Shape{1, 2}));
  EXPECT_FLOAT_EQ(y[0], 2.5f);
  EXPECT_FLOAT_EQ(y[1], 25.0f);
  GradCheck gc(gap, random_input({2, 3, 3, 3}, rng), rng);
  gc.check_input_grad();
}

TEST(Flatten, RoundTripsShape) {
  Flatten f;
  const Tensor x({2, 3, 4, 4});
  const Tensor y = f.forward(x, true);
  EXPECT_EQ(y.shape(), (tensor::Shape{2, 48}));
  const Tensor gx = f.backward(Tensor({2, 48}));
  EXPECT_EQ(gx.shape(), x.shape());
}

// ------------------------------------------------------------ activations

TEST(ReLUTest, ForwardClampsAndGradMasks) {
  ReLU relu;
  const Tensor x({1, 4}, {-1, 0, 2, -3});
  const Tensor y = relu.forward(x, true);
  EXPECT_FLOAT_EQ(y[0], 0.0f);
  EXPECT_FLOAT_EQ(y[2], 2.0f);
  const Tensor g({1, 4}, {1, 1, 1, 1});
  const Tensor gx = relu.backward(g);
  EXPECT_FLOAT_EQ(gx[0], 0.0f);
  EXPECT_FLOAT_EQ(gx[1], 0.0f);
  EXPECT_FLOAT_EQ(gx[2], 1.0f);
}

// ReLU is pinned bit for bit to `x > 0 ? x : +0.0f`: NaN and -0.0 map to
// +0.0, which std::max(x, 0.0f) would not do (it keeps both), and which
// EXPECT_FLOAT_EQ cannot see (it equates -0.0 with +0.0).

std::uint32_t bits(float f) { return std::bit_cast<std::uint32_t>(f); }

float relu_ref(float x) { return x > 0.0f ? x : 0.0f; }

// Signed zeros, two quiet-NaN payloads, infinities, the smallest
// denormals, the largest finites, then random values.
std::vector<float> relu_edge_values(util::Rng& rng) {
  std::vector<float> v = {0.0f,
                          -0.0f,
                          std::bit_cast<float>(0x7fc00001u),
                          std::bit_cast<float>(0xffc12345u),
                          std::numeric_limits<float>::infinity(),
                          -std::numeric_limits<float>::infinity(),
                          std::numeric_limits<float>::denorm_min(),
                          -std::numeric_limits<float>::denorm_min(),
                          FLT_MAX,
                          -FLT_MAX};
  while (v.size() < 48) v.push_back(rng.normalf(0.0f, 1.0f));
  return v;
}

// A gradient that carries NaN and -0.0 through the positive lanes too.
Tensor relu_edge_grad(std::size_t n, util::Rng& rng) {
  Tensor g({1, n});
  for (std::size_t i = 0; i < n; ++i) {
    switch (i % 4) {
      case 0: g[i] = -0.0f; break;
      case 1: g[i] = std::bit_cast<float>(0x7fc0abcdu); break;
      default: g[i] = rng.normalf(0.0f, 1.0f);
    }
  }
  return g;
}

void expect_bits_eq(const Tensor& got, const std::vector<float>& want,
                    const char* what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(bits(got[i]), bits(want[i]))
        << what << " at " << i << ": got " << got[i] << ", want " << want[i];
  }
}

TEST(ReLUTest, ForwardAndBackwardAreBitExactSelects) {
  util::Rng rng(16);
  const std::vector<float> xs = relu_edge_values(rng);
  const std::size_t n = xs.size();
  const Tensor x({1, n}, xs);
  const Tensor g = relu_edge_grad(n, rng);
  std::vector<float> want_y(n);
  std::vector<float> want_gx(n);
  for (std::size_t i = 0; i < n; ++i) {
    want_y[i] = relu_ref(xs[i]);
    want_gx[i] = xs[i] > 0.0f ? g[i] : 0.0f;
  }

  ReLU relu;
  expect_bits_eq(relu.forward(x, /*train=*/false), want_y, "eval forward");
  expect_bits_eq(relu.forward(x, /*train=*/true), want_y, "train forward");
  expect_bits_eq(relu.backward(g), want_gx, "backward");

  // An eval forward writes no mask: backward still applies the last
  // training forward's mask, not one built from the negated input.
  Tensor neg = x;
  for (auto& v : neg.vec()) v = -v;
  relu.forward(neg, /*train=*/false);
  expect_bits_eq(relu.backward(g), want_gx, "backward after eval forward");
}

// Outputs -0.0 everywhere, the additive identity, so the residual's
// post-add ReLU sees its input bits unchanged.
class NegZeroBody : public Module {
 public:
  void forward_into(const Tensor& x, Tensor& y, bool /*train*/) override {
    y = Tensor::full(x.shape(), -0.0f);
  }
  void backward_into(const Tensor& grad_out, Tensor& grad_in) override {
    grad_in = Tensor::full(grad_out.shape(), -0.0f);
  }
  std::string name() const override { return "negzero"; }
};

TEST(Residual, PostAddReLUIsBitExactSelect) {
  util::Rng rng(17);
  const std::vector<float> xs = relu_edge_values(rng);
  const std::size_t n = xs.size();
  const Tensor x({1, n}, xs);
  const Tensor g = relu_edge_grad(n, rng);
  std::vector<float> want_y(n);
  std::vector<float> want_gx(n);
  for (std::size_t i = 0; i < n; ++i) {
    want_y[i] = relu_ref(xs[i]);
    // Skip connection: body grad (-0.0) plus the ReLU-masked gradient.
    want_gx[i] = -0.0f + (xs[i] > 0.0f ? g[i] : 0.0f);
  }

  ResidualBlock res(std::make_unique<NegZeroBody>());
  expect_bits_eq(res.forward(x, /*train=*/false), want_y, "eval forward");
  expect_bits_eq(res.forward(x, /*train=*/true), want_y, "train forward");
  expect_bits_eq(res.backward(g), want_gx, "backward");

  Tensor neg = x;
  for (auto& v : neg.vec()) v = -v;
  res.forward(neg, /*train=*/false);
  expect_bits_eq(res.backward(g), want_gx, "backward after eval forward");
}

TEST(TanhTest, GradCheck) {
  util::Rng rng(8);
  Tanh tanh_layer;
  GradCheck gc(tanh_layer, random_input({3, 5}, rng), rng);
  gc.check_input_grad();
}

// -------------------------------------------------------------- groupnorm

TEST(GroupNormTest, NormalizesPerGroup) {
  GroupNorm gn(2, 4);  // 4 channels, 2 groups
  util::Rng rng(9);
  const Tensor x = random_input({2, 4, 3, 3}, rng, 3.0f);
  const Tensor y = gn.forward(x, false);
  // Each (sample, group) slab should have ~zero mean and ~unit variance.
  const std::size_t area = 9;
  for (std::size_t i = 0; i < 2; ++i) {
    for (std::size_t g = 0; g < 2; ++g) {
      double sum = 0.0;
      double sq = 0.0;
      for (std::size_t c = 0; c < 2; ++c) {
        const float* plane = y.data() + ((i * 4 + g * 2 + c) * area);
        for (std::size_t p = 0; p < area; ++p) {
          sum += plane[p];
          sq += static_cast<double>(plane[p]) * plane[p];
        }
      }
      const double mean = sum / 18.0;
      EXPECT_NEAR(mean, 0.0, 1e-4);
      EXPECT_NEAR(sq / 18.0 - mean * mean, 1.0, 1e-2);
    }
  }
}

TEST(GroupNormTest, RejectsIndivisibleChannels) {
  EXPECT_THROW(GroupNorm(3, 4), std::invalid_argument);
}

TEST(GroupNormTest, GradCheck) {
  util::Rng rng(10);
  GroupNorm gn(2, 4);
  // Non-trivial gamma/beta so their gradients are exercised.
  for (auto& v : gn.parameters()[0]->value.vec()) v = rng.normalf(1.0f, 0.2f);
  for (auto& v : gn.parameters()[1]->value.vec()) v = rng.normalf(0.0f, 0.2f);
  GradCheck gc(gn, random_input({2, 4, 3, 3}, rng), rng);
  gc.check_input_grad(1e-3, 5e-2);
  gc.check_param_grads(1e-3, 5e-2);
}

// --------------------------------------------------------------- residual

TEST(Residual, ForwardAddsSkip) {
  // Body that doubles the input: conv 1x1 with weight 2, no bias.
  auto body = std::make_unique<Conv2d>(1, 1, 1, 1, 0, "b");
  body->weight().value = Tensor({1, 1}, {2.0f});
  ResidualBlock res(std::move(body));
  const Tensor x({1, 1, 1, 2}, {1.0f, -1.0f});
  const Tensor y = res.forward(x, false);
  EXPECT_FLOAT_EQ(y[0], 3.0f);   // relu(2*1 + 1)
  EXPECT_FLOAT_EQ(y[1], 0.0f);   // relu(2*-1 + -1) = relu(-3)
}

TEST(Residual, RejectsShapeChangingBody) {
  util::Rng rng(11);
  auto body = make_conv(1, 2, 3, 1, 1, rng, "b");  // changes channel count
  ResidualBlock res(std::move(body));
  EXPECT_THROW(res.forward(Tensor({1, 1, 4, 4}), false),
               std::invalid_argument);
}

TEST(Residual, GradCheck) {
  util::Rng rng(12);
  auto body = std::make_unique<Sequential>();
  body->add(make_conv(2, 2, 3, 1, 1, rng, "a"));
  body->emplace<Tanh>();  // smooth body keeps FD well-behaved
  ResidualBlock res(std::move(body));
  GradCheck gc(res, random_input({1, 2, 4, 4}, rng), rng);
  gc.check_input_grad(1e-3, 5e-2);
  gc.check_param_grads(1e-3, 5e-2);
}

// ------------------------------------------------------------- sequential

TEST(SequentialTest, ComposedGradCheck) {
  util::Rng rng(13);
  Sequential net;
  net.add(make_conv(1, 2, 3, 1, 1, rng, "c1"));
  net.emplace<Tanh>();
  net.emplace<MaxPool2d>(2);
  net.emplace<Flatten>();
  net.add(make_linear(2 * 2 * 2, 3, rng, "fc"));
  GradCheck gc(net, random_input({2, 1, 4, 4}, rng), rng);
  gc.check_input_grad(1e-3, 5e-2);
  gc.check_param_grads(1e-3, 5e-2);
}

TEST(SequentialTest, ParameterOrderIsStable) {
  util::Rng rng(14);
  Sequential net;
  net.add(make_linear(2, 3, rng, "fc1"));
  net.add(make_linear(3, 4, rng, "fc2"));
  const auto params = net.parameters();
  ASSERT_EQ(params.size(), 4u);
  EXPECT_EQ(params[0]->name, "fc1.weight");
  EXPECT_EQ(params[1]->name, "fc1.bias");
  EXPECT_EQ(params[2]->name, "fc2.weight");
  EXPECT_EQ(params[3]->name, "fc2.bias");
}

TEST(SequentialTest, ZeroGradClearsAll) {
  util::Rng rng(15);
  Sequential net;
  net.add(make_linear(2, 2, rng, "fc"));
  net.forward(random_input({1, 2}, rng), true);
  net.backward(Tensor({1, 2}, {1, 1}));
  net.zero_grad();
  for (Parameter* p : net.parameters()) {
    for (const float g : p->grad.vec()) EXPECT_EQ(g, 0.0f);
  }
}

// ------------------------------------------------------ reused buffers

// Every pass writes its whole destination and reads nothing stale: a
// module that has already run a larger all-NaN batch, writing into
// destinations pre-filled with NaN, gives bit for bit what a fresh module
// gives through the by-value forms (whose destinations start empty).
TEST(ReusedBuffers, EveryPassWritesItsWholeDestination) {
  using Factory = std::function<std::unique_ptr<Module>()>;
  struct Case {
    const char* name;
    Factory make;
    tensor::Shape in;
  };
  const auto seeded = [](auto build) {
    return [build] {
      util::Rng rng(91);
      return build(rng);
    };
  };
  const Case cases[] = {
      {"conv", seeded([](util::Rng& r) -> std::unique_ptr<Module> {
         return make_conv(2, 3, 3, 1, 1, r, "c");
       }),
       {2, 2, 5, 5}},
      {"conv_s2", seeded([](util::Rng& r) -> std::unique_ptr<Module> {
         return make_conv(2, 3, 3, 2, 0, r, "c");
       }),
       {2, 2, 7, 7}},
      {"linear", seeded([](util::Rng& r) -> std::unique_ptr<Module> {
         return make_linear(6, 4, r, "fc");
       }),
       {3, 6}},
      {"relu", [] { return std::make_unique<ReLU>(); }, {2, 3, 4, 4}},
      {"maxpool", [] { return std::make_unique<MaxPool2d>(2); }, {2, 3, 4, 4}},
      {"gap", [] { return std::make_unique<GlobalAvgPool2d>(); }, {2, 3, 4, 4}},
      {"flatten", [] { return std::make_unique<Flatten>(); }, {2, 3, 2, 2}},
      {"groupnorm", [] { return std::make_unique<GroupNorm>(2, 4); },
       {2, 4, 3, 3}},
      {"residual", seeded([](util::Rng& r) -> std::unique_ptr<Module> {
         return std::make_unique<ResidualBlock>(
             make_conv(3, 3, 3, 1, 1, r, "b"));
       }),
       {2, 3, 4, 4}},
      {"sequential", seeded([](util::Rng& r) -> std::unique_ptr<Module> {
         auto net = std::make_unique<Sequential>();
         net->add(make_conv(1, 2, 3, 1, 1, r, "c1"));
         net->emplace<ReLU>();
         net->emplace<MaxPool2d>(2);
         net->emplace<Flatten>();
         net->add(make_linear(8, 3, r, "fc"));
         return net;
       }),
       {2, 1, 4, 4}},
  };
  const float nan = std::numeric_limits<float>::quiet_NaN();
  util::Rng rng(92);
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const Tensor x = random_input(c.in, rng);
    const auto fresh = c.make();
    const Tensor want_y = fresh->forward(x, /*train=*/true);
    const Tensor g = random_input(want_y.shape(), rng);
    const Tensor want_gx = fresh->backward(g);
    const Tensor want_eval = fresh->forward(x, /*train=*/false);

    const auto reused = c.make();
    tensor::Shape big = c.in;
    big[0] += 1;
    Tensor y;
    Tensor gx;
    reused->forward_into(Tensor::full(big, nan), y, /*train=*/true);
    reused->backward_into(Tensor::full(y.shape(), nan), gx);
    reused->zero_grad();
    y = Tensor::full({y.size() + 7}, nan);
    gx = Tensor::full({gx.size() + 7}, nan);
    reused->forward_into(x, y, /*train=*/true);
    reused->backward_into(g, gx);
    EXPECT_TRUE(same_bits(y, want_y)) << "train forward";
    EXPECT_TRUE(same_bits(gx, want_gx)) << "backward";
    const auto got_p = reused->parameters();
    const auto want_p = fresh->parameters();
    for (std::size_t k = 0; k < got_p.size(); ++k) {
      EXPECT_TRUE(same_bits(got_p[k]->grad, want_p[k]->grad))
          << got_p[k]->name;
    }
    std::fill(y.vec().begin(), y.vec().end(), nan);
    reused->forward_into(x, y, /*train=*/false);
    EXPECT_TRUE(same_bits(y, want_eval)) << "eval forward";
  }
}

}  // namespace
}  // namespace fedclust::nn
