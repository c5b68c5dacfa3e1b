#include "tensor/gemm.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <tuple>

#include "obs/metrics.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace fedclust::tensor {
namespace {

Tensor random_tensor(Shape shape, util::Rng& rng) {
  Tensor t(std::move(shape));
  for (auto& x : t.vec()) x = rng.normalf(0.0f, 1.0f);
  return t;
}

// Naive triple-loop reference.
Tensor reference_matmul(const Tensor& a, Trans ta, const Tensor& b,
                        Trans tb) {
  const std::size_t m = ta == Trans::kNo ? a.dim(0) : a.dim(1);
  const std::size_t k = ta == Trans::kNo ? a.dim(1) : a.dim(0);
  const std::size_t n = tb == Trans::kNo ? b.dim(1) : b.dim(0);
  Tensor c({m, n});
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      double s = 0.0;
      for (std::size_t p = 0; p < k; ++p) {
        const float av =
            ta == Trans::kNo ? a[i * a.dim(1) + p] : a[p * a.dim(1) + i];
        const float bv =
            tb == Trans::kNo ? b[p * b.dim(1) + j] : b[j * b.dim(1) + p];
        s += static_cast<double>(av) * bv;
      }
      c[i * n + j] = static_cast<float>(s);
    }
  }
  return c;
}

void expect_close(const Tensor& a, const Tensor& b, float tol = 1e-3f) {
  ASSERT_EQ(a.shape(), b.shape());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_NEAR(a[i], b[i], tol) << "at " << i;
  }
}

TEST(Gemm, SmallKnownResult) {
  const Tensor a({2, 3}, {1, 2, 3, 4, 5, 6});
  const Tensor b({3, 2}, {7, 8, 9, 10, 11, 12});
  const Tensor c = matmul(a, b);
  EXPECT_FLOAT_EQ(c.at({0, 0}), 58.0f);
  EXPECT_FLOAT_EQ(c.at({0, 1}), 64.0f);
  EXPECT_FLOAT_EQ(c.at({1, 0}), 139.0f);
  EXPECT_FLOAT_EQ(c.at({1, 1}), 154.0f);
}

TEST(Gemm, InnerDimMismatchThrows) {
  const Tensor a({2, 3});
  const Tensor b({2, 2});
  EXPECT_THROW(matmul(a, b), std::invalid_argument);
}

TEST(Gemm, AccumulateAddsToC) {
  const Tensor a({2, 2}, {1, 0, 0, 1});
  const Tensor b({2, 2}, {1, 2, 3, 4});
  Tensor c({2, 2}, {10, 10, 10, 10});
  gemm(Trans::kNo, Trans::kNo, 2, 2, 2, a.data(), 2, b.data(), 2,
       Accumulate::kYes, c.data(), 2);
  EXPECT_FLOAT_EQ(c[0], 11.0f);
  EXPECT_FLOAT_EQ(c[3], 14.0f);
}

TEST(Gemm, StridedC) {
  // Write a 2x2 product into the top-left of a 2x4 buffer.
  const Tensor a({2, 2}, {1, 2, 3, 4});
  const Tensor b({2, 2}, {5, 6, 7, 8});
  Tensor c({2, 4});
  gemm(Trans::kNo, Trans::kNo, 2, 2, 2, a.data(), 2, b.data(), 2,
       Accumulate::kNo, c.data(), 4);
  EXPECT_FLOAT_EQ(c.at({0, 0}), 19.0f);
  EXPECT_FLOAT_EQ(c.at({0, 1}), 22.0f);
  EXPECT_FLOAT_EQ(c.at({1, 0}), 43.0f);
  EXPECT_FLOAT_EQ(c.at({1, 1}), 50.0f);
  EXPECT_FLOAT_EQ(c.at({0, 2}), 0.0f);  // untouched columns stay zero
}

TEST(Gemm, RunsOnTheCallingThread) {
  // Parallelism lives in the client loops, so a GEMM never fans out, not
  // even one of 96^3 multiply-adds outside any loop with workers idle.
  const std::size_t prev_threads = util::global_pool().size() + 1;
  util::reset_global_pool(4);
  auto& metrics = obs::MetricsRegistry::instance();
  metrics.reset_values();
  metrics.set_enabled(true);
  util::Rng rng(96);
  const Tensor a = random_tensor({96, 96}, rng);
  const Tensor b = random_tensor({96, 96}, rng);
  const std::uint64_t before =
      metrics.snapshot().counter_value("pool.parallel_dispatches");
  const Tensor c = matmul(a, b);
  const std::uint64_t after =
      metrics.snapshot().counter_value("pool.parallel_dispatches");
  metrics.set_enabled(false);
  metrics.reset_values();
  util::reset_global_pool(prev_threads);
  EXPECT_EQ(after, before);
  expect_close(c, reference_matmul(a, Trans::kNo, b, Trans::kNo), 1e-3f * 96);
}

using GemmCase = std::tuple<std::size_t, std::size_t, std::size_t, int, int>;

class GemmSweep : public ::testing::TestWithParam<GemmCase> {};

TEST_P(GemmSweep, MatchesReference) {
  const auto [m, n, k, ita, itb] = GetParam();
  const Trans ta = ita != 0 ? Trans::kYes : Trans::kNo;
  const Trans tb = itb != 0 ? Trans::kYes : Trans::kNo;
  util::Rng rng(m * 10007 + n * 101 + k + static_cast<std::size_t>(ita) * 7 +
                static_cast<std::size_t>(itb));
  const Tensor a = ta == Trans::kNo ? random_tensor({m, k}, rng)
                                    : random_tensor({k, m}, rng);
  const Tensor b = tb == Trans::kNo ? random_tensor({k, n}, rng)
                                    : random_tensor({n, k}, rng);
  expect_close(matmul(a, ta, b, tb), reference_matmul(a, ta, b, tb),
               1e-3f * static_cast<float>(k));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmSweep,
    ::testing::Values(
        GemmCase{1, 1, 1, 0, 0}, GemmCase{3, 5, 7, 0, 0},
        GemmCase{3, 5, 7, 1, 0}, GemmCase{3, 5, 7, 0, 1},
        GemmCase{3, 5, 7, 1, 1}, GemmCase{64, 64, 64, 0, 0},
        GemmCase{65, 63, 130, 0, 0}, GemmCase{65, 63, 130, 1, 1},
        GemmCase{128, 17, 200, 0, 1}, GemmCase{17, 128, 200, 1, 0},
        GemmCase{1, 256, 64, 0, 0}, GemmCase{256, 1, 64, 0, 0},
        GemmCase{96, 96, 96, 0, 0}));

}  // namespace
}  // namespace fedclust::tensor
