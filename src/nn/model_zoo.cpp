#include "nn/model_zoo.h"

#include <stdexcept>

#include "nn/activations.h"
#include "nn/init.h"
#include "nn/norm.h"
#include "nn/pooling.h"
#include "nn/residual.h"
#include "util/rng.h"

namespace fedclust::nn {

namespace {

// Largest group count <= 8 that divides the channel count; GroupNorm needs
// channels % groups == 0.
std::size_t gn_groups(std::size_t channels) {
  for (std::size_t g = 8; g > 1; --g) {
    if (channels % g == 0) return g;
  }
  return 1;
}

}  // namespace

Model lenet5(std::size_t in_channels, std::size_t image_hw,
             std::size_t num_classes, std::uint64_t seed) {
  util::Rng rng(seed);
  auto net = std::make_unique<Sequential>();
  // conv1 pads by 2 so the 5x5 kernel preserves spatial size; this keeps
  // the classic topology valid for small (16x16) simulator images as well
  // as the original 32x32.
  net->add(make_conv(in_channels, 6, 5, 1, 2, rng, "conv1"));
  net->emplace<ReLU>();
  net->emplace<MaxPool2d>(2);
  std::size_t hw = image_hw / 2;
  net->add(make_conv(6, 16, 5, 1, 0, rng, "conv2"));
  hw = hw - 4;
  net->emplace<ReLU>();
  net->emplace<MaxPool2d>(2);
  hw /= 2;
  net->emplace<Flatten>();
  const std::size_t feat = 16 * hw * hw;
  net->add(make_linear(feat, 120, rng, "fc1"));
  net->emplace<ReLU>();
  net->add(make_linear(120, 84, rng, "fc2"));
  net->emplace<ReLU>();
  net->add(make_linear(84, num_classes, rng, "classifier"));
  return Model(std::move(net));
}

Model resnet9(std::size_t in_channels, std::size_t image_hw,
              std::size_t num_classes, std::size_t width,
              std::uint64_t seed) {
  if (image_hw % 4 != 0) {
    throw std::invalid_argument("resnet9: image_hw must be divisible by 4");
  }
  util::Rng rng(seed);
  const std::size_t w1 = width;
  const std::size_t w2 = 2 * width;
  const std::size_t w4 = 4 * width;

  const auto res_body = [&](std::size_t ch, const std::string& prefix) {
    auto body = std::make_unique<Sequential>();
    body->add(make_conv(ch, ch, 3, 1, 1, rng, prefix + "a"));
    body->emplace<GroupNorm>(gn_groups(ch), ch, 1e-5f, prefix + "a.gn");
    body->emplace<ReLU>();
    body->add(make_conv(ch, ch, 3, 1, 1, rng, prefix + "b"));
    body->emplace<GroupNorm>(gn_groups(ch), ch, 1e-5f, prefix + "b.gn");
    return body;
  };

  auto net = std::make_unique<Sequential>();
  net->add(make_conv(in_channels, w1, 3, 1, 1, rng, "conv1"));
  net->emplace<GroupNorm>(gn_groups(w1), w1, 1e-5f, "conv1.gn");
  net->emplace<ReLU>();
  net->add(make_conv(w1, w2, 3, 1, 1, rng, "conv2"));
  net->emplace<GroupNorm>(gn_groups(w2), w2, 1e-5f, "conv2.gn");
  net->emplace<ReLU>();
  net->emplace<MaxPool2d>(2);
  net->emplace<ResidualBlock>(res_body(w2, "res1."), "res1");
  net->add(make_conv(w2, w4, 3, 1, 1, rng, "conv3"));
  net->emplace<GroupNorm>(gn_groups(w4), w4, 1e-5f, "conv3.gn");
  net->emplace<ReLU>();
  net->emplace<MaxPool2d>(2);
  net->emplace<ResidualBlock>(res_body(w4, "res2."), "res2");
  net->emplace<GlobalAvgPool2d>();
  net->add(make_linear(w4, num_classes, rng, "classifier"));
  return Model(std::move(net));
}

Model vgg_lite(std::size_t in_channels, std::size_t image_hw,
               std::size_t num_classes, std::size_t width,
               std::uint64_t seed) {
  if (image_hw % 8 != 0) {
    throw std::invalid_argument("vgg_lite: image_hw must be divisible by 8");
  }
  util::Rng rng(seed);
  const std::size_t w1 = width;
  const std::size_t w2 = 2 * width;
  const std::size_t w4 = 4 * width;

  auto net = std::make_unique<Sequential>();
  net->add(make_conv(in_channels, w1, 3, 1, 1, rng, "conv1"));
  net->emplace<ReLU>();
  net->emplace<MaxPool2d>(2);
  net->add(make_conv(w1, w2, 3, 1, 1, rng, "conv2"));
  net->emplace<ReLU>();
  net->emplace<MaxPool2d>(2);
  net->add(make_conv(w2, w4, 3, 1, 1, rng, "conv3"));
  net->emplace<ReLU>();
  net->emplace<MaxPool2d>(2);
  net->add(make_conv(w4, w4, 3, 1, 1, rng, "conv4"));
  net->emplace<ReLU>();
  net->emplace<Flatten>();
  const std::size_t hw = image_hw / 8;
  net->add(make_linear(w4 * hw * hw, 64, rng, "fc1"));
  net->emplace<ReLU>();
  net->add(make_linear(64, num_classes, rng, "classifier"));
  return Model(std::move(net));
}

Model mlp(std::size_t in_features, const std::vector<std::size_t>& hidden,
          std::size_t num_classes, std::uint64_t seed) {
  util::Rng rng(seed);
  auto net = std::make_unique<Sequential>();
  net->emplace<Flatten>();
  std::size_t prev = in_features;
  std::size_t i = 1;
  for (const std::size_t h : hidden) {
    net->add(make_linear(prev, h, rng, "fc" + std::to_string(i++)));
    net->emplace<ReLU>();
    prev = h;
  }
  net->add(make_linear(prev, num_classes, rng, "classifier"));
  return Model(std::move(net));
}

Model build_model(const ModelSpec& spec, std::uint64_t seed) {
  if (spec.arch == "lenet5") {
    return lenet5(spec.in_channels, spec.image_hw, spec.num_classes, seed);
  }
  if (spec.arch == "resnet9") {
    return resnet9(spec.in_channels, spec.image_hw, spec.num_classes,
                   spec.width, seed);
  }
  if (spec.arch == "vgglite") {
    return vgg_lite(spec.in_channels, spec.image_hw, spec.num_classes,
                    spec.width, seed);
  }
  if (spec.arch == "mlp") {
    return mlp(spec.in_channels * spec.image_hw * spec.image_hw,
               {64, 32}, spec.num_classes, seed);
  }
  throw std::invalid_argument("build_model: unknown arch " + spec.arch);
}

}  // namespace fedclust::nn
