#include "util/rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <span>
#include <utility>
#include <vector>

#include "alloc_counter.h"

namespace fedclust::util {
namespace {

TEST(Rng, SameSeedSameStream) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.next_u64() == b.next_u64();
  EXPECT_LT(same, 2);
}

TEST(Rng, SplitIsPureFunctionOfSeedAndStream) {
  Rng root(7);
  Rng s1 = root.split(3);
  // Advancing the root must not change what split(3) yields.
  root.next_u64();
  root.next_u64();
  Rng s2 = root.split(3);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(s1.next_u64(), s2.next_u64());
}

TEST(Rng, SplitStreamsAreDistinct) {
  Rng root(7);
  Rng a = root.split(0);
  Rng b = root.split(1);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.next_u64() == b.next_u64();
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-2.5, 4.0);
    EXPECT_GE(u, -2.5);
    EXPECT_LT(u, 4.0);
  }
}

TEST(Rng, RandintCoversRange) {
  Rng rng(11);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.randint(-3, 5);
    EXPECT_GE(v, -3);
    EXPECT_LT(v, 5);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 8u);  // all of -3..4 hit
}

TEST(Rng, NormalMoments) {
  Rng rng(5);
  const int n = 200000;
  double sum = 0.0;
  double sq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sq += x * x;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.02);
  EXPECT_NEAR(var, 1.0, 0.03);
}

TEST(Rng, NormalScaled) {
  Rng rng(5);
  const int n = 100000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) sum += rng.normal(3.0, 0.5);
  EXPECT_NEAR(sum / n, 3.0, 0.02);
}

TEST(Rng, GammaMeanMatchesShape) {
  Rng rng(9);
  for (const double shape : {0.3, 1.0, 2.5, 7.0}) {
    const int n = 50000;
    double sum = 0.0;
    for (int i = 0; i < n; ++i) sum += rng.gamma(shape);
    EXPECT_NEAR(sum / n, shape, 0.08 * shape + 0.02) << "shape=" << shape;
  }
}

TEST(Rng, GammaRejectsNonPositiveShape) {
  Rng rng(1);
  EXPECT_THROW(rng.gamma(0.0), std::invalid_argument);
  EXPECT_THROW(rng.gamma(-1.0), std::invalid_argument);
}

TEST(Rng, DirichletSumsToOne) {
  Rng rng(13);
  for (const double alpha : {0.1, 0.5, 1.0, 10.0}) {
    const auto p = rng.dirichlet(alpha, 10);
    ASSERT_EQ(p.size(), 10u);
    double sum = 0.0;
    for (const double pi : p) {
      EXPECT_GE(pi, 0.0);
      sum += pi;
    }
    EXPECT_NEAR(sum, 1.0, 1e-9);
  }
}

TEST(Rng, DirichletLowAlphaIsPeaked) {
  Rng rng(13);
  // With alpha = 0.05 the draw should concentrate on few categories.
  double max_avg = 0.0;
  const int trials = 200;
  for (int t = 0; t < trials; ++t) {
    const auto p = rng.dirichlet(0.05, 10);
    max_avg += *std::max_element(p.begin(), p.end());
  }
  EXPECT_GT(max_avg / trials, 0.6);
}

TEST(Rng, CategoricalFollowsWeights) {
  Rng rng(17);
  const std::vector<double> w = {1.0, 0.0, 3.0};
  int counts[3] = {0, 0, 0};
  for (int i = 0; i < 40000; ++i) ++counts[rng.categorical(w)];
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(static_cast<double>(counts[2]) / counts[0], 3.0, 0.2);
}

TEST(Rng, CategoricalRejectsBadWeights) {
  Rng rng(1);
  EXPECT_THROW(rng.categorical({0.0, 0.0}), std::invalid_argument);
  EXPECT_THROW(rng.categorical({1.0, -0.5}), std::invalid_argument);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(21);
  std::vector<int> v(100);
  for (int i = 0; i < 100; ++i) v[static_cast<std::size_t>(i)] = i;
  auto shuffled = v;
  rng.shuffle(shuffled);
  EXPECT_NE(shuffled, v);  // astronomically unlikely to be identity
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, v);
}

TEST(Rng, SampleWithoutReplacementDistinct) {
  Rng rng(23);
  const auto s = rng.sample_without_replacement(100, 10);
  ASSERT_EQ(s.size(), 10u);
  const std::set<std::size_t> uniq(s.begin(), s.end());
  EXPECT_EQ(uniq.size(), 10u);
  for (const auto i : s) EXPECT_LT(i, 100u);
}

TEST(Rng, SampleWithoutReplacementFull) {
  Rng rng(23);
  const auto s = rng.sample_without_replacement(5, 5);
  const std::set<std::size_t> uniq(s.begin(), s.end());
  EXPECT_EQ(uniq.size(), 5u);
}

TEST(Rng, SampleWithoutReplacementRejectsOversample) {
  Rng rng(23);
  EXPECT_THROW(rng.sample_without_replacement(3, 4), std::invalid_argument);
  std::vector<std::size_t> out(4);
  EXPECT_THROW(rng.sample_without_replacement(3, std::span(out)),
               std::invalid_argument);
}

// The dense partial Fisher–Yates the sampler must reproduce draw for draw:
// an n-entry index array, k swaps, the first k entries.
std::vector<std::size_t> dense_sample(Rng& rng, std::size_t n, std::size_t k) {
  std::vector<std::size_t> idx(n);
  for (std::size_t i = 0; i < n; ++i) idx[i] = i;
  for (std::size_t i = 0; i < k; ++i) {
    const auto j = static_cast<std::size_t>(rng.randint(
        static_cast<std::int64_t>(i), static_cast<std::int64_t>(n)));
    std::swap(idx[i], idx[j]);
  }
  idx.resize(k);
  return idx;
}

// Same values and the same generator state afterwards, through both
// overloads, on both paths: the stack array (n <= kDenseSampleN) and the
// displaced-position table.
TEST(Rng, SampleWithoutReplacementMatchesDenseFisherYates) {
  static_assert(Rng::kDenseSampleN == 256);
  const std::pair<std::size_t, std::size_t> shapes[] = {
      {0, 0},      {1, 0},     {1, 1},       {10, 0},        {10, 2},
      {10, 10},    {100, 10},  {100, 100},   {256, 17},      {256, 256},
      {257, 0},    {257, 1},   {257, 16},    {2700, 2},      {1000000, 16},
      {257, 17},   {300, 300}, {2700, 256},  {1000000, 500}};
  for (const auto& [n, k] : shapes) {
    const std::uint64_t seeds = n >= 1000000 ? 4 : 64;
    for (std::uint64_t seed = 0; seed < seeds; ++seed) {
      SCOPED_TRACE(testing::Message() << "n=" << n << " k=" << k
                                      << " seed=" << seed);
      Rng want_rng(seed);
      const std::vector<std::size_t> want = dense_sample(want_rng, n, k);
      Rng got_rng(seed);
      ASSERT_EQ(got_rng.sample_without_replacement(n, k), want);
      EXPECT_EQ(got_rng.state(), want_rng.state());

      Rng span_rng(seed);
      std::vector<std::size_t> out(k);
      span_rng.sample_without_replacement(n, std::span(out));
      EXPECT_EQ(out, want);
      EXPECT_EQ(span_rng.state(), want_rng.state());
    }
  }
}

// Memory is O(k): the bytes a draw allocates stay under a bound linear in
// k however large n is, and a draw from a small n into a caller's buffer
// allocates nothing.
TEST(Rng, SampleWithoutReplacementAllocationIsIndependentOfN) {
  for (const std::size_t k : {std::size_t{2}, std::size_t{500}}) {
    for (const std::size_t n : {std::size_t{1000}, std::size_t{1000000},
                                std::size_t{1} << 40}) {
      Rng rng(7);
      const auto c = alloc_counter::count(
          [&] { (void)rng.sample_without_replacement(n, k); });
      EXPECT_LE(c.bytes, 64 * k + 64) << "k=" << k << " n=" << n;
    }
  }
  Rng rng(7);
  std::vector<std::size_t> out(Rng::kDenseSampleN);
  const auto c = alloc_counter::count([&] {
    rng.sample_without_replacement(Rng::kDenseSampleN, std::span(out));
  });
  EXPECT_EQ(c.allocations, 0u);
}

TEST(Rng, DirichletSpanMatchesVector) {
  Rng a(31);
  Rng b(31);
  const std::vector<double> want = a.dirichlet(0.3, 7);
  std::vector<double> got(7);
  b.dirichlet(0.3, std::span(got));
  EXPECT_EQ(got, want);
  EXPECT_EQ(b.state(), a.state());
}

// Property sweep: statistical sanity holds across seeds.
class RngSeedSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RngSeedSweep, UniformMeanNearHalf) {
  Rng rng(GetParam());
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST_P(RngSeedSweep, SampleWithoutReplacementIsUniformish) {
  Rng rng(GetParam());
  std::vector<int> hits(20, 0);
  for (int t = 0; t < 4000; ++t) {
    for (const auto i : rng.sample_without_replacement(20, 5)) {
      ++hits[i];
    }
  }
  // Each index expected 1000 times.
  for (const int h : hits) EXPECT_NEAR(h, 1000, 150);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RngSeedSweep,
                         ::testing::Values(1u, 7u, 42u, 12345u, 999999937u));

}  // namespace
}  // namespace fedclust::util
