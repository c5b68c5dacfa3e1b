// Model-level tests: flat parameter views, the classifier slice, the model
// zoo architectures, the optimizer, and end-to-end trainability on a toy
// classification problem.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "nn/init.h"
#include "nn/loss.h"
#include "nn/model.h"
#include "nn/model_zoo.h"
#include "nn/optimizer.h"
#include "obs/metrics.h"
#include "tensor/tensor_ops.h"
#include "util/rng.h"

namespace fedclust::nn {
namespace {

using tensor::Tensor;

// --------------------------------------------------------------- loss

TEST(Loss, UniformLogitsGiveLogK) {
  const Tensor logits({2, 4});  // all zeros -> uniform softmax
  const LossResult r = softmax_cross_entropy(logits, {0, 3});
  EXPECT_NEAR(r.loss, std::log(4.0f), 1e-5);
}

TEST(Loss, PerfectPredictionNearZeroLoss) {
  Tensor logits({1, 3}, {100.0f, 0.0f, 0.0f});
  const LossResult r = softmax_cross_entropy(logits, {0});
  EXPECT_NEAR(r.loss, 0.0f, 1e-5);
}

TEST(Loss, GradientIsSoftmaxMinusOnehotOverN) {
  Tensor logits({2, 2}, {0.0f, 0.0f, 0.0f, 0.0f});
  const LossResult r = softmax_cross_entropy(logits, {0, 1});
  EXPECT_NEAR(r.grad_logits.at({0, 0}), (0.5f - 1.0f) / 2.0f, 1e-6);
  EXPECT_NEAR(r.grad_logits.at({0, 1}), 0.5f / 2.0f, 1e-6);
  EXPECT_NEAR(r.grad_logits.at({1, 1}), (0.5f - 1.0f) / 2.0f, 1e-6);
}

TEST(Loss, GradCheckAgainstFiniteDifferences) {
  util::Rng rng(31);
  Tensor logits({3, 5});
  for (auto& x : logits.vec()) x = rng.normalf(0, 1);
  const std::vector<std::int64_t> labels = {2, 0, 4};
  const LossResult r = softmax_cross_entropy(logits, labels);
  const double eps = 1e-3;
  for (std::size_t i = 0; i < logits.size(); ++i) {
    Tensor lp = logits;
    Tensor lm = logits;
    lp[i] += static_cast<float>(eps);
    lm[i] -= static_cast<float>(eps);
    const double num = (softmax_cross_entropy(lp, labels).loss -
                        softmax_cross_entropy(lm, labels).loss) /
                       (2.0 * eps);
    EXPECT_NEAR(r.grad_logits[i], num, 1e-3);
  }
}

TEST(Loss, RejectsBadLabels) {
  const Tensor logits({1, 3});
  EXPECT_THROW(softmax_cross_entropy(logits, {3}), std::invalid_argument);
  EXPECT_THROW(softmax_cross_entropy(logits, {-1}), std::invalid_argument);
  EXPECT_THROW(softmax_cross_entropy(logits, {0, 1}), std::invalid_argument);
}

TEST(Loss, Accuracy) {
  const Tensor logits({3, 2}, {0.9f, 0.1f, 0.2f, 0.8f, 0.6f, 0.4f});
  EXPECT_DOUBLE_EQ(accuracy(logits, {0, 1, 0}), 1.0);
  EXPECT_NEAR(accuracy(logits, {1, 1, 0}), 2.0 / 3.0, 1e-12);
}

// --------------------------------------------------------------- model

TEST(ModelTest, FlatParamsRoundTrip) {
  Model m = mlp(4, {3}, 2, /*seed=*/7);
  const std::vector<float> flat = m.flat_params();
  EXPECT_EQ(flat.size(), m.num_params());
  EXPECT_EQ(m.num_params(), 4u * 3 + 3 + 3 * 2 + 2);
  std::vector<float> changed = flat;
  for (auto& x : changed) x += 1.0f;
  m.set_flat_params(changed);
  EXPECT_EQ(m.flat_params(), changed);
  EXPECT_THROW(m.set_flat_params(std::vector<float>(3)),
               std::invalid_argument);
}

TEST(ModelTest, ClassifierRangeIsFinalLinear) {
  Model m = mlp(4, {3}, 2, 7);
  const auto [offset, size] = m.classifier_range();
  EXPECT_EQ(size, 3u * 2 + 2);  // final Linear weight + bias
  EXPECT_EQ(offset, m.num_params() - size);
  const auto cls = m.classifier_params();
  EXPECT_EQ(cls.size(), size);
  // The slice must equal the tail of the flat vector.
  const auto flat = m.flat_params();
  for (std::size_t i = 0; i < size; ++i) {
    EXPECT_EQ(cls[i], flat[offset + i]);
  }
}

TEST(ModelTest, ParamLayoutNamesAndOffsets) {
  Model m = mlp(4, {3}, 2, 7);
  const auto& layout = m.param_layout();
  ASSERT_EQ(layout.size(), 4u);
  EXPECT_EQ(layout[0].name, "fc1.weight");
  EXPECT_EQ(layout[3].name, "classifier.bias");
  EXPECT_EQ(layout[0].offset, 0u);
  for (std::size_t i = 1; i < layout.size(); ++i) {
    EXPECT_EQ(layout[i].offset,
              layout[i - 1].offset + layout[i - 1].size);
  }
  const auto w = m.param_by_name("classifier.weight");
  EXPECT_EQ(w.size(), 6u);
  EXPECT_THROW(m.param_by_name("nope"), std::invalid_argument);
}

TEST(ModelTest, SameSeedSameWeights) {
  const Model a = lenet5(3, 16, 10, 42);
  const Model b = lenet5(3, 16, 10, 42);
  const Model c = lenet5(3, 16, 10, 43);
  EXPECT_EQ(a.flat_params(), b.flat_params());
  EXPECT_NE(a.flat_params(), c.flat_params());
}

// ----------------------------------------------------------- model zoo

TEST(ModelZoo, LeNet5Shapes) {
  Model m = lenet5(3, 16, 10, 1);
  const Tensor x({2, 3, 16, 16});
  const Tensor y = m.forward(x);
  EXPECT_EQ(y.shape(), (tensor::Shape{2, 10}));
  // conv1: 6*(3*25)+6; conv2: 16*(6*25)+16; fc: 64*120+120, 120*84+84,
  // 84*10+10.
  EXPECT_EQ(m.num_params(),
            (6u * 75 + 6) + (16u * 150 + 16) + (64u * 120 + 120) +
                (120u * 84 + 84) + (84u * 10 + 10));
}

TEST(ModelZoo, LeNet5OriginalScale) {
  Model m = lenet5(3, 32, 10, 1);
  EXPECT_EQ(m.forward(Tensor({1, 3, 32, 32})).shape(),
            (tensor::Shape{1, 10}));
}

TEST(ModelZoo, ResNet9Shapes) {
  Model m = resnet9(3, 16, 20, /*width=*/8, 1);
  const Tensor y = m.forward(Tensor({2, 3, 16, 16}));
  EXPECT_EQ(y.shape(), (tensor::Shape{2, 20}));
  EXPECT_THROW(resnet9(3, 15, 10, 8, 1), std::invalid_argument);
}

TEST(ModelZoo, VggLiteShapes) {
  Model m = vgg_lite(3, 16, 10, 8, 1);
  EXPECT_EQ(m.forward(Tensor({1, 3, 16, 16})).shape(),
            (tensor::Shape{1, 10}));
  EXPECT_THROW(vgg_lite(3, 12, 10, 8, 1), std::invalid_argument);
}

TEST(ModelZoo, BuildModelDispatch) {
  for (const char* arch : {"lenet5", "resnet9", "vgglite", "mlp"}) {
    ModelSpec spec;
    spec.arch = arch;
    spec.in_channels = 3;
    spec.image_hw = 16;
    spec.num_classes = 10;
    Model m = build_model(spec, 5);
    EXPECT_EQ(m.forward(Tensor({1, 3, 16, 16})).shape(),
              (tensor::Shape{1, 10}))
        << arch;
  }
  ModelSpec bad;
  bad.arch = "transformer";
  EXPECT_THROW(build_model(bad, 1), std::invalid_argument);
}

TEST(ModelZoo, FactoryReproducible) {
  ModelSpec spec;
  spec.arch = "mlp";
  spec.image_hw = 8;
  const ModelFactory f = make_factory(spec);
  EXPECT_EQ(f(3).flat_params(), f(3).flat_params());
}

// ------------------------------------------ first-layer input gradient

bool bitwise_equal(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

std::uint64_t gemm_calls() {
  return obs::MetricsRegistry::instance().snapshot().counter_value(
      "gemm.calls");
}

// A Model turns off its first module's input gradient, which nothing
// reads. That drops one W^T x gy GEMM per sample from the first conv's
// backward and must leave every parameter gradient bit-identical to the
// full backward of the same net.
TEST(ModelTest, FirstLayerSkipsOnlyTheInputGradient) {
  auto& reg = obs::MetricsRegistry::instance();
  reg.reset_values();
  reg.set_enabled(true);
  util::Rng rng(71);
  const std::size_t n = 3;
  Tensor x({n, 3, 16, 16});
  for (auto& v : x.vec()) v = rng.normalf(0.0f, 1.0f);
  const std::vector<std::int64_t> y = {0, 4, 9};
  Model models[] = {lenet5(3, 16, 10, 5), resnet9(3, 16, 10, 8, 5),
                    vgg_lite(3, 16, 10, 8, 5)};
  for (Model& m : models) {
    EXPECT_FALSE(m.net().needs_input_grad());
    m.zero_grad();
    const Tensor g = softmax_cross_entropy(m.forward(x, true), y).grad_logits;
    std::uint64_t before = gemm_calls();
    m.backward(g);
    const std::uint64_t skipped_calls = gemm_calls() - before;
    const std::vector<float> skipped = m.flat_grads();
    m.forward(x, true);
    EXPECT_EQ(m.net().backward(g).size(), 0u);

    m.net().set_needs_input_grad(true);
    m.zero_grad();
    m.forward(x, true);
    before = gemm_calls();
    const Tensor gx = m.net().backward(g);
    const std::uint64_t full_calls = gemm_calls() - before;
    EXPECT_EQ(gx.shape(), x.shape());
    EXPECT_TRUE(bitwise_equal(skipped, m.flat_grads()));
    EXPECT_EQ(full_calls - skipped_calls, n);
  }
  reg.set_enabled(false);
  reg.reset_values();
}

// ------------------------------------------------------------ optimizer

TEST(SgdTest, PlainStep) {
  util::Rng rng(51);
  auto fc = make_linear(1, 1, rng, "fc");
  fc->weight().value[0] = 2.0f;
  fc->weight().grad[0] = 1.0f;
  fc->bias().value[0] = 0.5f;
  fc->bias().grad[0] = -2.0f;
  Sgd opt(fc->parameters(), {.lr = 0.1f});
  opt.step();
  EXPECT_FLOAT_EQ(fc->weight().value[0], 1.9f);
  EXPECT_FLOAT_EQ(fc->bias().value[0], 0.7f);
}

TEST(SgdTest, MomentumAccumulates) {
  util::Rng rng(52);
  auto fc = make_linear(1, 1, rng, "fc");
  fc->weight().value[0] = 0.0f;
  Sgd opt(fc->parameters(), {.lr = 1.0f, .momentum = 0.9f});
  fc->weight().grad[0] = 1.0f;
  fc->bias().grad[0] = 0.0f;
  opt.step();  // v=1, w=-1
  EXPECT_FLOAT_EQ(fc->weight().value[0], -1.0f);
  opt.step();  // v=1.9, w=-2.9
  EXPECT_FLOAT_EQ(fc->weight().value[0], -2.9f);
}

TEST(SgdTest, WeightDecayShrinks) {
  util::Rng rng(53);
  auto fc = make_linear(1, 1, rng, "fc");
  fc->weight().value[0] = 10.0f;
  fc->weight().grad[0] = 0.0f;
  fc->bias().value[0] = 0.0f;
  Sgd opt(fc->parameters(), {.lr = 0.1f, .weight_decay = 0.5f});
  opt.step();
  EXPECT_FLOAT_EQ(fc->weight().value[0], 10.0f - 0.1f * 0.5f * 10.0f);
}

TEST(SgdTest, ProximalTermPullsTowardReference) {
  util::Rng rng(54);
  auto fc = make_linear(1, 1, rng, "fc");
  fc->weight().value[0] = 5.0f;
  fc->bias().value[0] = 0.0f;
  fc->weight().grad[0] = 0.0f;
  Sgd opt(fc->parameters(), {.lr = 0.1f, .prox_mu = 1.0f});
  opt.set_prox_reference({0.0f, 0.0f});  // pull both params toward 0
  opt.step();
  EXPECT_FLOAT_EQ(fc->weight().value[0], 5.0f - 0.1f * 5.0f);
  // Without a reference the prox term is inert.
  opt.set_prox_reference({});
  const float before = fc->weight().value[0];
  opt.step();
  EXPECT_FLOAT_EQ(fc->weight().value[0], before);
  EXPECT_THROW(opt.set_prox_reference({1.0f}), std::invalid_argument);
}

// Every subset of {grad offset, weight decay, prox, momentum}, with
// clipping on, over three tensors for five steps, against a straight
// scalar loop in the documented per-element order: clip -> offset ->
// weight decay -> prox -> momentum -> update. Bit for bit. Subset 15 has
// every option on.
TEST(SgdTest, EveryOptionSetMatchesScalarReferenceBitwise) {
  for (int set = 0; set < 16; ++set) {
    const bool use_offset = (set & 1) != 0;
    const bool use_decay = (set & 2) != 0;
    const bool use_prox = (set & 4) != 0;
    const bool use_momentum = (set & 8) != 0;
    util::Rng rng(56 + static_cast<std::uint64_t>(set));
    Parameter a("a", Tensor({8, 16}));
    Parameter b("b", Tensor({33}));
    Parameter c("c", Tensor({5, 7}));
    const std::vector<Parameter*> params = {&a, &b, &c};
    std::vector<float> w;
    for (Parameter* p : params) {
      for (auto& v : p->value.vec()) {
        v = rng.normalf(0.0f, 1.0f);
        w.push_back(v);
      }
    }
    const std::size_t total = w.size();
    std::vector<float> ref(total);
    std::vector<float> off(total);
    for (auto& v : ref) v = rng.normalf(0.0f, 1.0f);
    for (auto& v : off) v = rng.normalf(0.0f, 0.1f);
    // A large step keeps a one-ulp change in g visible in w.
    const SgdOptions o{.lr = 0.5f,
                       .momentum = use_momentum ? 0.9f : 0.0f,
                       .weight_decay = use_decay ? 0.01f : 0.0f,
                       .clip_grad_norm = 1.5f,
                       .prox_mu = use_prox ? 0.1f : 0.0f};
    Sgd opt(params, o);
    if (use_prox) opt.set_prox_reference(ref);
    if (use_offset) opt.set_grad_offset(off);

    std::vector<float> vel(total, 0.0f);
    for (int step = 0; step < 5; ++step) {
      // Alternate large and small gradients so clipping fires on some
      // steps and not on others.
      const float scale = step % 2 == 0 ? 3.0f : 0.02f;
      std::vector<float> grads;
      for (Parameter* p : params) {
        for (auto& g : p->grad.vec()) {
          g = rng.normalf(0.0f, scale);
          grads.push_back(g);
        }
      }
      opt.step();

      double sq = 0.0;
      for (const float g : grads) sq += static_cast<double>(g) * g;
      const double norm = std::sqrt(sq);
      const float clip = norm > o.clip_grad_norm
                             ? static_cast<float>(o.clip_grad_norm / norm)
                             : 1.0f;
      for (std::size_t i = 0; i < total; ++i) {
        float g = grads[i] * clip;
        if (use_offset) g += off[i];
        if (use_decay) g += o.weight_decay * w[i];
        if (use_prox) g += o.prox_mu * (w[i] - ref[i]);
        if (use_momentum) {
          vel[i] = o.momentum * vel[i] + g;
          g = vel[i];
        }
        w[i] -= o.lr * g;
      }
    }
    std::vector<float> got;
    for (Parameter* p : params) {
      got.insert(got.end(), p->value.vec().begin(), p->value.vec().end());
    }
    EXPECT_TRUE(bitwise_equal(got, w)) << "option set " << set;
  }
}

TEST(SgdTest, ZeroGrad) {
  util::Rng rng(55);
  auto fc = make_linear(2, 2, rng, "fc");
  fc->weight().grad[0] = 3.0f;
  Sgd opt(fc->parameters(), {});
  opt.zero_grad();
  EXPECT_FLOAT_EQ(fc->weight().grad[0], 0.0f);
}

// -------------------------------------------------- end-to-end training

// Two well-separated Gaussian blobs must be learnable to ~100% within a few
// hundred SGD steps; this exercises forward, loss, backward, and step
// together.
TEST(Training, MlpLearnsGaussianBlobs) {
  util::Rng rng(61);
  const std::size_t n = 128;
  Tensor x({n, 2});
  std::vector<std::int64_t> y(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::int64_t label = static_cast<std::int64_t>(i % 2);
    const float cx = label == 0 ? -2.0f : 2.0f;
    x[i * 2 + 0] = rng.normalf(cx, 0.5f);
    x[i * 2 + 1] = rng.normalf(-cx, 0.5f);
    y[i] = label;
  }
  Model m = mlp(2, {8}, 2, 62);
  Sgd opt(m.parameters(), {.lr = 0.1f, .momentum = 0.9f});
  float first_loss = 0.0f;
  float last_loss = 0.0f;
  for (int step = 0; step < 200; ++step) {
    opt.zero_grad();
    const Tensor logits = m.forward(x, /*train=*/true);
    const LossResult lr = softmax_cross_entropy(logits, y);
    if (step == 0) first_loss = lr.loss;
    last_loss = lr.loss;
    m.backward(lr.grad_logits);
    opt.step();
  }
  EXPECT_LT(last_loss, 0.5f * first_loss);
  EXPECT_GT(accuracy(m.forward(x), y), 0.98);
}

// The conv stack must be trainable too (tiny LeNet on a synthetic
// two-texture problem: class 0 = vertical stripes, class 1 = horizontal).
TEST(Training, LeNetLearnsStripes) {
  util::Rng rng(63);
  const std::size_t n = 64;
  Tensor x({n, 1, 16, 16});
  std::vector<std::int64_t> y(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::int64_t label = static_cast<std::int64_t>(i % 2);
    y[i] = label;
    for (std::size_t r = 0; r < 16; ++r) {
      for (std::size_t c = 0; c < 16; ++c) {
        const bool on = label == 0 ? (c % 2 == 0) : (r % 2 == 0);
        x[i * 256 + r * 16 + c] =
            (on ? 1.0f : -1.0f) + rng.normalf(0.0f, 0.1f);
      }
    }
  }
  Model m = lenet5(1, 16, 2, 64);
  Sgd opt(m.parameters(), {.lr = 0.05f, .momentum = 0.9f});
  for (int step = 0; step < 120; ++step) {
    opt.zero_grad();
    const LossResult lr = softmax_cross_entropy(m.forward(x, true), y);
    m.backward(lr.grad_logits);
    opt.step();
  }
  EXPECT_GT(accuracy(m.forward(x), y), 0.95);
}

}  // namespace
}  // namespace fedclust::nn
