#include "util/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "obs/metrics.h"

namespace fedclust::util {
namespace {

TEST(ThreadPool, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  const std::size_t n = 10000;
  std::vector<std::atomic<int>> hits(n);
  pool.parallel_for(0, n, [&](std::size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ThreadPool, EmptyRangeIsNoop) {
  ThreadPool pool(2);
  bool called = false;
  pool.parallel_for(5, 5, [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);
  pool.parallel_for(7, 3, [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, SingleThreadRunsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.size(), 0u);  // no workers; caller does the work
  std::size_t sum = 0;
  pool.parallel_for(0, 100, [&](std::size_t i) { sum += i; });
  EXPECT_EQ(sum, 4950u);
}

TEST(ThreadPool, ChunkedPartitionIsExact) {
  ThreadPool pool(3);
  std::atomic<std::size_t> total{0};
  std::mutex mu;
  std::vector<std::pair<std::size_t, std::size_t>> chunks;
  pool.parallel_for_chunked(10, 110, [&](std::size_t lo, std::size_t hi) {
    ASSERT_LT(lo, hi);
    total.fetch_add(hi - lo);
    const std::lock_guard<std::mutex> lock(mu);
    chunks.emplace_back(lo, hi);
  });
  EXPECT_EQ(total.load(), 100u);
  // Chunks must tile [10, 110) without overlap.
  std::sort(chunks.begin(), chunks.end());
  std::size_t cursor = 10;
  for (const auto& [lo, hi] : chunks) {
    EXPECT_EQ(lo, cursor);
    cursor = hi;
  }
  EXPECT_EQ(cursor, 110u);
}

TEST(ThreadPool, PropagatesExceptions) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.parallel_for(0, 100,
                                 [](std::size_t i) {
                                   if (i == 37) {
                                     throw std::runtime_error("boom");
                                   }
                                 }),
               std::runtime_error);
}

TEST(ThreadPool, ExceptionOnCallerChunkPropagates) {
  ThreadPool pool(4);
  // Index 0 always lands on the calling thread's chunk.
  EXPECT_THROW(pool.parallel_for(0, 1000,
                                 [](std::size_t i) {
                                   if (i == 0) throw std::logic_error("x");
                                 }),
               std::logic_error);
}

// Every chunk throws; the busy-worker gauge must still come back down.
TEST(ThreadPool, ThrowingChunksLeaveBusyGaugeAtZero) {
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::instance();
  obs::Gauge& busy = metrics.gauge("pool.busy_workers");
  busy.reset();
  metrics.set_enabled(true);
  ThreadPool pool(4);
  EXPECT_THROW(pool.parallel_for(0, 4,
                                 [](std::size_t) {
                                   throw std::runtime_error("chunk");
                                 }),
               std::runtime_error);
  metrics.set_enabled(false);
  EXPECT_EQ(busy.value(), 0);
}

TEST(ThreadPool, UsableAfterException) {
  ThreadPool pool(2);
  try {
    pool.parallel_for(0, 10, [](std::size_t) {
      throw std::runtime_error("first");
    });
  } catch (const std::runtime_error&) {
  }
  std::atomic<int> count{0};
  pool.parallel_for(0, 50, [&](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 50);
}

TEST(ThreadPool, GlobalPoolWorks) {
  std::atomic<std::size_t> total{0};
  parallel_for(0, 1000, [&](std::size_t i) { total.fetch_add(i); });
  EXPECT_EQ(total.load(), 499500u);
}

TEST(ThreadPool, InParallelRegionReflectsChunkExecution) {
  ThreadPool pool(4);
  EXPECT_FALSE(ThreadPool::in_parallel_region());
  std::atomic<int> inside{0};
  pool.parallel_for(0, 100, [&](std::size_t) {
    if (ThreadPool::in_parallel_region()) inside.fetch_add(1);
  });
  EXPECT_EQ(inside.load(), 100);  // every index, workers and caller chunk
  EXPECT_FALSE(ThreadPool::in_parallel_region());
}

// Nested dispatch must run inline without deadlocking on the job slot, and
// must still cover every index exactly once.
TEST(ThreadPool, NestedParallelForRunsInlineAndCoversEverything) {
  ThreadPool pool(4);
  const std::size_t outer_n = 8, inner_n = 64;
  std::vector<std::atomic<int>> hits(outer_n * inner_n);
  pool.parallel_for(0, outer_n, [&](std::size_t i) {
    pool.parallel_for(0, inner_n, [&](std::size_t j) {
      hits[i * inner_n + j].fetch_add(1, std::memory_order_relaxed);
    });
  });
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << i;
  }
}

TEST(ThreadPool, NestedChunkedArrivesAsOneInlineChunk) {
  ThreadPool pool(4);  // 3 workers + caller -> 4 outer chunks for n = 4
  std::atomic<int> inner_dispatches{0};
  pool.parallel_for_chunked(0, 4, [&](std::size_t, std::size_t) {
    pool.parallel_for_chunked(0, 100, [&](std::size_t lo, std::size_t hi) {
      // The inner body must see the whole range as a single chunk: no
      // re-entry into the job slot from inside a region.
      EXPECT_EQ(lo, 0u);
      EXPECT_EQ(hi, 100u);
      inner_dispatches.fetch_add(1);
    });
  });
  EXPECT_EQ(inner_dispatches.load(), 4);
}

TEST(ThreadPool, ResetGlobalPoolChangesWorkerCount) {
  const std::size_t prev = global_pool().size() + 1;
  reset_global_pool(1);
  EXPECT_EQ(global_pool().size(), 0u);
  reset_global_pool(4);
  EXPECT_EQ(global_pool().size(), 3u);
  std::atomic<std::size_t> total{0};
  parallel_for(0, 1000, [&](std::size_t i) { total.fetch_add(i); });
  EXPECT_EQ(total.load(), 499500u);
  reset_global_pool(prev);
}

class PoolSizeSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(PoolSizeSweep, SumIsDeterministicAcrossPoolSizes) {
  ThreadPool pool(GetParam());
  const std::size_t n = 5000;
  std::vector<double> out(n, 0.0);
  pool.parallel_for(0, n, [&](std::size_t i) {
    out[i] = static_cast<double>(i) * 0.5;
  });
  double sum = std::accumulate(out.begin(), out.end(), 0.0);
  EXPECT_DOUBLE_EQ(sum, 0.5 * (n - 1) * n / 2.0);
}

INSTANTIATE_TEST_SUITE_P(Sizes, PoolSizeSweep,
                         ::testing::Values(1u, 2u, 3u, 8u, 16u));

}  // namespace
}  // namespace fedclust::util
