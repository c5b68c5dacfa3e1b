#include "util/rng.h"

#include <array>
#include <cassert>
#include <cmath>
#include <numbers>
#include <stdexcept>
#include <unordered_map>

namespace fedclust::util {

namespace {

std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

Rng::Rng(std::uint64_t seed) : seed_(seed) {
  std::uint64_t sm = seed;
  for (auto& s : s_) s = splitmix64(sm);
}

RngState Rng::state() const {
  RngState st;
  st.seed = seed_;
  for (int i = 0; i < 4; ++i) st.s[i] = s_[i];
  st.has_cached_normal = has_cached_normal_;
  st.cached_normal = cached_normal_;
  return st;
}

Rng Rng::from_state(const RngState& st) {
  Rng rng(st.seed);
  for (int i = 0; i < 4; ++i) rng.s_[i] = st.s[i];
  rng.has_cached_normal_ = st.has_cached_normal;
  rng.cached_normal_ = st.cached_normal;
  return rng;
}

Rng Rng::split(std::uint64_t stream) const {
  // Mix seed and stream through splitmix so that nearby (seed, stream)
  // pairs land on unrelated states.
  std::uint64_t sm = seed_ ^ (0x9e3779b97f4a7c15ULL + stream);
  const std::uint64_t mixed = splitmix64(sm) ^ splitmix64(sm);
  return Rng(mixed);
}

std::uint64_t Rng::next_u64() {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

double Rng::uniform() {
  // 53 random mantissa bits → uniform double in [0, 1).
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

std::int64_t Rng::randint(std::int64_t lo, std::int64_t hi) {
  assert(lo < hi);
  const auto range = static_cast<std::uint64_t>(hi - lo);
  // Rejection sampling to avoid modulo bias.
  const std::uint64_t limit = UINT64_MAX - UINT64_MAX % range;
  std::uint64_t r;
  do {
    r = next_u64();
  } while (r >= limit);
  return lo + static_cast<std::int64_t>(r % range);
}

double Rng::normal() {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  double u1;
  do {
    u1 = uniform();
  } while (u1 <= 0.0);
  const double u2 = uniform();
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * std::numbers::pi * u2;
  cached_normal_ = r * std::sin(theta);
  has_cached_normal_ = true;
  return r * std::cos(theta);
}

double Rng::normal(double mean, double stddev) {
  return mean + stddev * normal();
}

double Rng::gamma(double shape) {
  if (shape <= 0.0) throw std::invalid_argument("gamma: shape must be > 0");
  if (shape < 1.0) {
    // Boost the shape above 1 and correct with a power of a uniform.
    const double u = uniform();
    return gamma(shape + 1.0) * std::pow(u, 1.0 / shape);
  }
  const double d = shape - 1.0 / 3.0;
  const double c = 1.0 / std::sqrt(9.0 * d);
  for (;;) {
    double x;
    double v;
    do {
      x = normal();
      v = 1.0 + c * x;
    } while (v <= 0.0);
    v = v * v * v;
    const double u = uniform();
    if (u < 1.0 - 0.0331 * x * x * x * x) return d * v;
    if (u > 0.0 && std::log(u) < 0.5 * x * x + d * (1.0 - v + std::log(v))) {
      return d * v;
    }
  }
}

std::vector<double> Rng::dirichlet(double alpha, std::size_t k) {
  std::vector<double> p(k);
  dirichlet(alpha, p);
  return p;
}

void Rng::dirichlet(double alpha, std::span<double> p) {
  double sum = 0.0;
  for (auto& pi : p) {
    pi = gamma(alpha);
    sum += pi;
  }
  if (sum <= 0.0) {
    // Degenerate draw (all gammas underflowed); fall back to uniform.
    for (auto& pi : p) pi = 1.0 / static_cast<double>(p.size());
    return;
  }
  for (auto& pi : p) pi /= sum;
}

std::size_t Rng::categorical(const std::vector<double>& weights) {
  double total = 0.0;
  for (const double w : weights) {
    if (w < 0.0) throw std::invalid_argument("categorical: negative weight");
    total += w;
  }
  if (total <= 0.0) {
    throw std::invalid_argument("categorical: weights sum to zero");
  }
  const double r = uniform() * total;
  double acc = 0.0;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    acc += weights[i];
    if (r < acc) return i;
  }
  return weights.size() - 1;
}

namespace {

// A partial Fisher–Yates shuffle of idx[p] = p, p < n <= kDenseSampleN, on
// the stack: step i < k draws j = randint(i, n), swaps idx[i] and idx[j]
// and emits the new idx[i]. Inlined into both overloads, so the generator
// state stays in registers across the draws.
template <class Emit>
[[gnu::always_inline]] inline void shuffle_prefix(Rng& rng, std::size_t n,
                                                std::size_t k, Emit emit) {
  std::array<std::size_t, Rng::kDenseSampleN> idx;
  for (std::size_t p = 0; p < n; ++p) idx[p] = p;
  for (std::size_t i = 0; i < k; ++i) {
    const auto j = static_cast<std::size_t>(rng.randint(
        static_cast<std::int64_t>(i), static_cast<std::int64_t>(n)));
    std::swap(idx[i], idx[j]);
    emit(idx[i]);
  }
}

// The same draws for n > Rng::kDenseSampleN, in O(k) time and memory: only
// the positions a swap displaced (at most one per step) are kept, and
// position i is never read after step i.
void sample_displaced(Rng& rng, std::size_t n, std::span<std::size_t> out) {
  std::unordered_map<std::size_t, std::size_t> displaced;  // position -> id
  displaced.reserve(out.size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    const auto j = static_cast<std::size_t>(rng.randint(
        static_cast<std::int64_t>(i), static_cast<std::int64_t>(n)));
    const auto at_i = displaced.find(i);
    const std::size_t id_i = at_i != displaced.end() ? at_i->second : i;
    std::size_t& id_j = displaced.try_emplace(j, j).first->second;
    out[i] = id_j;
    id_j = id_i;
  }
}

}  // namespace

std::vector<std::size_t> Rng::sample_without_replacement(std::size_t n,
                                                         std::size_t k) {
  if (k > n) {
    throw std::invalid_argument("sample_without_replacement: k > n");
  }
  if (n > kDenseSampleN) {
    std::vector<std::size_t> out(k);
    sample_displaced(*this, n, out);
    return out;
  }
  std::vector<std::size_t> out;
  out.reserve(k);
  shuffle_prefix(*this, n, k, [&](std::size_t id) { out.push_back(id); });
  return out;
}

void Rng::sample_without_replacement(std::size_t n,
                                     std::span<std::size_t> out) {
  if (out.size() > n) {
    throw std::invalid_argument("sample_without_replacement: k > n");
  }
  if (n > kDenseSampleN) {
    sample_displaced(*this, n, out);
    return;
  }
  auto next = out.begin();
  shuffle_prefix(*this, n, out.size(), [&](std::size_t id) { *next++ = id; });
}

}  // namespace fedclust::util
