#pragma once

// Deterministic, splittable pseudo-random number generation.
//
// Every stochastic component of the simulator (data synthesis, non-IID
// partitioning, weight init, client sampling, SGD shuffling) draws from an
// Rng obtained by splitting a single root seed, so whole experiments are
// reproducible bit-for-bit regardless of thread scheduling.

#include <cstdint>
#include <span>
#include <vector>

namespace fedclust::util {

// Complete serializable generator state: the originating seed (splitting
// derives child streams from it, not from the evolving xoshiro state), the
// four xoshiro256** words, and the Box–Muller normal cache. Snapshots
// persist these so a resumed run continues every stream mid-sequence.
struct RngState {
  std::uint64_t seed = 0;
  std::uint64_t s[4] = {0, 0, 0, 0};
  bool has_cached_normal = false;
  double cached_normal = 0.0;

  bool operator==(const RngState&) const = default;
};

// xoshiro256** with SplitMix64 seeding. Not cryptographic; chosen for speed,
// solid statistical quality, and cheap deterministic splitting.
class Rng {
 public:
  explicit Rng(std::uint64_t seed);

  // Point-in-time capture of the full generator state, and the inverse:
  // a generator that continues exactly where the captured one stood.
  RngState state() const;
  static Rng from_state(const RngState& st);

  // Derives an independent stream from this generator's seed and a stream
  // id. Splitting is a pure function of (seed, stream): it does not advance
  // or depend on this generator's current state, so call order cannot change
  // derived streams.
  Rng split(std::uint64_t stream) const;

  std::uint64_t next_u64();

  // Uniform in [0, 1).
  double uniform();
  // Uniform in [lo, hi).
  double uniform(double lo, double hi);

  // Integer in [lo, hi) — hi exclusive; requires lo < hi.
  std::int64_t randint(std::int64_t lo, std::int64_t hi);

  // Standard normal via Box–Muller (second deviate cached).
  double normal();
  double normal(double mean, double stddev);
  float normalf(float mean, float stddev) {
    return static_cast<float>(normal(mean, stddev));
  }

  // Gamma(shape, 1) via Marsaglia–Tsang; requires shape > 0.
  double gamma(double shape);

  // Symmetric Dirichlet(alpha) over k categories; returns a probability
  // vector of length k.
  std::vector<double> dirichlet(double alpha, std::size_t k);
  // Same draws, written into p (k = p.size()); allocates nothing.
  void dirichlet(double alpha, std::span<double> p);

  // Index sampled from an unnormalized non-negative weight vector.
  std::size_t categorical(const std::vector<double>& weights);

  // Fisher–Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      const auto j = static_cast<std::size_t>(
          randint(0, static_cast<std::int64_t>(i)));
      std::swap(v[i - 1], v[j]);
    }
  }

  // k distinct indices drawn uniformly from [0, n); requires k <= n.
  // The draws of a partial Fisher–Yates shuffle of [0, n), made in O(k)
  // time and memory once n exceeds kDenseSampleN.
  std::vector<std::size_t> sample_without_replacement(std::size_t n,
                                                      std::size_t k);
  // Same draws, written into out (k = out.size()); allocates nothing while
  // n <= kDenseSampleN.
  void sample_without_replacement(std::size_t n, std::span<std::size_t> out);
  static constexpr std::size_t kDenseSampleN = 256;

 private:
  std::uint64_t seed_;
  std::uint64_t s_[4];
  bool has_cached_normal_ = false;
  double cached_normal_ = 0.0;
};

}  // namespace fedclust::util
