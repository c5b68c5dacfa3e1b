#pragma once

// Synthetic class-conditional image generators standing in for CIFAR-10,
// CIFAR-100, FMNIST, and SVHN (the real corpora are unavailable offline;
// see DESIGN.md §1 for the substitution argument).
//
// Generative model (chosen to preserve the two properties the paper's
// comparison rests on):
//
//  1. *Shared features.* A dataset owns a dictionary of smooth "atom"
//     fields shared by all classes; each class prototype is a sparse
//     combination of atoms plus a class-specific oriented grating. Feature
//     detectors learned on any class therefore transfer to every class —
//     as in natural images — which is what makes collaboration (global or
//     per-cluster) beat isolated local training when local data is scarce.
//  2. *Class identity.* The grating plus the class's own atom coefficients
//     make same-class samples systematically closer than cross-class ones,
//     so locally trained final-layer weights encode the client's label
//     distribution (FedClust's core assumption).
//
// A sample draws one of the class's prototype coefficient vectors, jitters
// the coefficients (intra-class variation in the *shared* feature space),
// and adds pixel noise. Per-dataset knobs (resolution, channels, classes,
// prototype diversity, noise) are calibrated so relative task difficulty
// matches the paper: FMNIST easiest, then SVHN, CIFAR-10, CIFAR-100.

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "util/fields.h"
#include "util/rng.h"

namespace fedclust::data {

struct SyntheticSpec {
  std::string name = "cifar10";
  std::size_t channels = 3;
  std::size_t hw = 16;
  std::size_t num_classes = 10;

  std::size_t dict_size = 24;          // shared feature atoms
  std::size_t atoms_per_class = 4;     // sparsity of each prototype
  std::size_t prototypes_per_class = 2;
  float coeff_jitter = 0.25f;          // per-sample coefficient noise
  float proto_scale = 1.0f;            // signal strength
  float noise = 0.6f;                  // pixel noise sigma
  float grating_scale = 0.5f;          // class-identity grating strength
};

// SyntheticSpec's fields in canonical order (util/fields.h).
template <util::ConfigRef<SyntheticSpec> S, class V>
constexpr void for_each_field(S& s, V&& v) {
  v({"name"}, s.name);
  v({"channels"}, s.channels);
  v({"hw"}, s.hw);
  v({"num_classes"}, s.num_classes);
  v({"dict_size"}, s.dict_size);
  v({"atoms_per_class"}, s.atoms_per_class);
  v({"prototypes_per_class"}, s.prototypes_per_class);
  v({"coeff_jitter"}, s.coeff_jitter);
  v({"proto_scale"}, s.proto_scale);
  v({"noise"}, s.noise);
  v({"grating_scale"}, s.grating_scale);
}
static_assert(util::field_list_complete<SyntheticSpec>);

// Presets: "cifar10", "cifar100", "fmnist", "svhn". Throws on unknown name.
SyntheticSpec dataset_spec(const std::string& name);
// All four preset names, in the paper's table order.
std::vector<std::string> benchmark_dataset_names();

class SyntheticGenerator {
 public:
  SyntheticGenerator(SyntheticSpec spec, std::uint64_t seed);

  const SyntheticSpec& spec() const { return spec_; }
  std::size_t image_size() const {
    return spec_.channels * spec_.hw * spec_.hw;
  }

  // Draws one CHW image of the given class using the caller's RNG stream.
  std::vector<float> sample(std::int64_t cls, util::Rng& rng) const;

  // The noiseless prototype (for tests / visualization).
  std::vector<float> prototype(std::int64_t cls, std::size_t which) const;

 private:
  // Renders a coefficient vector over the dictionary into pixel space and
  // adds the class grating.
  std::vector<float> render(std::int64_t cls,
                            const std::vector<float>& coeffs) const;
  // Class cls's grating, image_size() floats.
  const float* grating(std::int64_t cls) const;

  SyntheticSpec spec_;
  // dict_[a]: one atom field of image_size() floats.
  std::vector<std::vector<float>> dict_;
  // coeffs_[cls * prototypes_per_class + which]: dictionary coefficients
  // (dense vector of dict_size, mostly zero).
  std::vector<std::vector<float>> coeffs_;
  // Every class's grating term, grating_scale * sin(...) per (channel, y,
  // x): a pure function of the spec, allocated with the generator, filled
  // once on first use by whichever thread renders first, and shared by
  // copies of the generator.
  struct Gratings {
    std::once_flag once;
    std::vector<float> terms;  // [class][image_size()]
  };
  std::shared_ptr<Gratings> gratings_ = std::make_shared<Gratings>();
};

}  // namespace fedclust::data
