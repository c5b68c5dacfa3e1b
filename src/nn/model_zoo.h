#pragma once

// The architectures the paper evaluates with, at simulator scale:
//  * LeNet-5      — faithful topology (conv5-pool-conv5-pool-fc120-fc84-fcK),
//                   used for CIFAR-10 / FMNIST / SVHN in the paper.
//  * ResNet-9     — same block structure as the paper's CIFAR-100 model but
//                   with configurable (thin) widths; GroupNorm replaces
//                   BatchNorm (see norm.h for why).
//  * VGG-lite     — a 4-conv/2-fc VGG16 stand-in for the Fig. 1 motivation
//                   study, giving distinguishable early-conv / late-conv /
//                   mid-FC / final-FC layers.
//  * MLP          — small fully connected net for tests and quick examples.
//
// Every model consumes NCHW input (MLP flattens internally) and ends in a
// Linear classifier, so Model::classifier_range() is always well defined.

#include <string>

#include "nn/model.h"
#include "util/fields.h"

namespace fedclust::nn {

struct ModelSpec {
  std::string arch = "lenet5";  // lenet5 | resnet9 | vgglite | mlp
  std::size_t in_channels = 3;
  std::size_t image_hw = 16;  // square images
  std::size_t num_classes = 10;
  std::size_t width = 8;  // base channel width for resnet9 / vgglite
};

// ModelSpec's fields in canonical order (util/fields.h).
template <util::ConfigRef<ModelSpec> M, class V>
constexpr void for_each_field(M& m, V&& v) {
  v({"arch"}, m.arch);
  v({"in_channels"}, m.in_channels);
  v({"image_hw"}, m.image_hw);
  v({"num_classes"}, m.num_classes);
  v({"width"}, m.width);
}
static_assert(util::field_list_complete<ModelSpec>);

Model lenet5(std::size_t in_channels, std::size_t image_hw,
             std::size_t num_classes, std::uint64_t seed);

Model resnet9(std::size_t in_channels, std::size_t image_hw,
              std::size_t num_classes, std::size_t width, std::uint64_t seed);

Model vgg_lite(std::size_t in_channels, std::size_t image_hw,
               std::size_t num_classes, std::size_t width,
               std::uint64_t seed);

Model mlp(std::size_t in_features, const std::vector<std::size_t>& hidden,
          std::size_t num_classes, std::uint64_t seed);

Model build_model(const ModelSpec& spec, std::uint64_t seed);

}  // namespace fedclust::nn
