// Client-store layer: PartitionPlan regeneration parity with the eager
// build and prefix stability across population sizes, ClientStore
// semantics (LRU determinism, the never-evicting full-capacity store,
// eviction safety, build dedup under concurrency — the tsan_smoke
// stress), SparseClientParams round-trip + corruption rejection, and the
// StreamingAggregator reduction-tree contract.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <thread>
#include <vector>

#include "data/partition.h"
#include "fl/client_state.h"
#include "fl/client_store.h"
#include "fl/stream_agg.h"
#include "util/rng.h"
#include "util/serialization.h"

namespace {

using namespace fedclust;

data::SyntheticSpec small_spec() {
  data::SyntheticSpec spec = data::dataset_spec("cifar10");
  return spec;
}

data::FederatedConfig small_cfg(const std::string& partition,
                                std::size_t n_clients = 12) {
  data::FederatedConfig cfg;
  cfg.n_clients = n_clients;
  cfg.train_per_client = 6;
  cfg.test_per_client = 4;
  cfg.partition = partition;
  cfg.skew_fraction = 0.2;
  cfg.dirichlet_alpha = 0.1;
  return cfg;
}

void expect_dataset_eq(const data::Dataset& a, const data::Dataset& b) {
  ASSERT_EQ(a.size(), b.size());
  ASSERT_EQ(a.image_size(), b.image_size());
  EXPECT_EQ(a.labels(), b.labels());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(0, std::memcmp(a.image(i), b.image(i),
                             a.image_size() * sizeof(float)))
        << "image " << i << " differs";
  }
}

void expect_client_eq(const data::ClientData& a, const data::ClientData& b) {
  expect_dataset_eq(a.train, b.train);
  expect_dataset_eq(a.test, b.test);
  EXPECT_EQ(a.label_weights, b.label_weights);
  EXPECT_EQ(a.group_id, b.group_id);
}

// --- PartitionPlan: virtual regeneration == eager build, bit for bit ---

// A larger plan must also keep every client of a smaller one, on both
// sides of the checkpoint stride: newcomer experiments federate the first
// K plan ids and build the held-out newcomers from the ids past K.
TEST(PartitionPlan, MaterializeMatchesEagerAcrossPartitions) {
  const auto spec = small_spec();
  const std::uint64_t seed = 42;
  for (const std::string partition : {"skew", "dirichlet", "iid"}) {
    for (const std::size_t pool : {0, 3}) {
      for (const double qskew : {1.0, 3.0}) {
        SCOPED_TRACE(partition + " pool=" + std::to_string(pool) +
                     " qskew=" + std::to_string(qskew));
        auto cfg = small_cfg(partition);
        cfg.label_set_pool = pool;
        cfg.quantity_skew_factor = qskew;
        const auto eager = data::make_federated_data(spec, cfg, seed);
        const data::PartitionPlan plan(spec, cfg, seed);
        ASSERT_EQ(plan.n_clients(), eager.size());
        // Out-of-order access: each client is a pure function of (seed, id).
        for (std::size_t i = plan.n_clients(); i-- > 0;) {
          SCOPED_TRACE(i);
          expect_client_eq(plan.materialize(i), eager[i]);
        }

        cfg.n_clients = 1100;
        auto larger = cfg;
        larger.n_clients = 1500;
        const data::PartitionPlan prefix(spec, cfg, seed);
        const data::PartitionPlan full(spec, larger, seed);
        for (const std::size_t i : {0, 1, 1023, 1024, 1099}) {
          SCOPED_TRACE(i);
          expect_client_eq(prefix.materialize(i), full.materialize(i));
        }
      }
    }
  }
}

TEST(PartitionPlan, SketchAgreesWithMaterialized) {
  const auto spec = small_spec();
  const auto cfg = small_cfg("dirichlet");
  const data::PartitionPlan plan(spec, cfg, 7);
  for (std::size_t i = 0; i < plan.n_clients(); ++i) {
    const data::ClientSketch sk = plan.sketch(i);
    const data::ClientData cd = plan.materialize(i);
    EXPECT_EQ(sk.n_train, cd.train.size());
    EXPECT_EQ(sk.n_test, cd.test.size());
    EXPECT_EQ(sk.label_weights, cd.label_weights);
    EXPECT_EQ(sk.group_id, cd.group_id);
  }
}

TEST(PartitionPlan, CheckpointStrideCrossingIsConsistent) {
  // A population larger than kCheckpointStride exercises the replay-from-
  // checkpoint path; sketching past the stride must not depend on which
  // clients were sketched before.
  auto cfg = small_cfg("skew", data::PartitionPlan::kCheckpointStride + 40);
  cfg.train_per_client = 1;
  cfg.test_per_client = 1;
  const auto spec = small_spec();
  const data::PartitionPlan plan(spec, cfg, 3);
  const std::size_t probe = data::PartitionPlan::kCheckpointStride + 17;
  const data::ClientSketch cold = plan.sketch(probe);
  plan.sketch(2);  // unrelated earlier access
  const data::ClientSketch warm = plan.sketch(probe);
  EXPECT_EQ(cold.label_weights, warm.label_weights);
  EXPECT_EQ(cold.n_train, warm.n_train);
  const data::PartitionPlan plan2(spec, cfg, 3);
  expect_client_eq(plan.materialize(probe), plan2.materialize(probe));
}

// --- Stores ---

TEST(ClientStore, MatchesEagerAndCountsDeterministically) {
  const auto spec = small_spec();
  const auto cfg = small_cfg("skew", 10);
  const auto eager = data::make_federated_data(spec, cfg, 9);
  auto plan = std::make_shared<const data::PartitionPlan>(spec, cfg, 9);
  fl::ClientStore store(plan, /*capacity=*/3);
  EXPECT_EQ(store.size(), 10u);

  // Fixed access sequence -> fixed hit/miss/eviction sequence (plain LRU).
  const std::size_t seq[] = {0, 1, 2, 0, 3, 4, 0, 1, 5};
  for (const std::size_t id : seq) {
    const auto c = store.acquire(id);
    ASSERT_EQ(c->id(), id);
    expect_dataset_eq(c->train_data(), eager[id].train);
  }
  const auto stats = store.stats();
  // Misses: 0,1,2,3,4 first touches + 1 (evicted by 4's insert) + 5 = 7.
  EXPECT_EQ(stats.misses, 7u);
  EXPECT_EQ(stats.hits, 2u);  // the second and third acquire(0)
  EXPECT_EQ(stats.evictions, 4u);
  EXPECT_LE(store.cached(), store.capacity());

  // Same sequence on a fresh store reproduces the same counters.
  fl::ClientStore replay(plan, 3);
  for (const std::size_t id : seq) replay.acquire(id);
  EXPECT_EQ(replay.stats().misses, stats.misses);
  EXPECT_EQ(replay.stats().hits, stats.hits);
  EXPECT_EQ(replay.stats().evictions, stats.evictions);

  EXPECT_THROW(store.acquire(10), std::out_of_range);
}

// Capacity == population (Federation without --virtual-clients): each
// client is built on its first acquire and the same instance is handed out
// from then on.
TEST(ClientStore, FullCapacityBuildsEachClientOnce) {
  const auto spec = small_spec();
  const auto cfg = small_cfg("skew", 5);
  auto plan = std::make_shared<const data::PartitionPlan>(spec, cfg, 1);
  fl::ClientStore store(plan, plan->n_clients());
  const auto c3 = store.acquire(3);
  EXPECT_EQ(c3->id(), 3u);
  for (std::size_t id = 0; id < store.size(); ++id) store.acquire(id);
  EXPECT_EQ(store.acquire(3).get(), c3.get());  // same instance, no copy
  EXPECT_EQ(store.cached(), 5u);
  const auto stats = store.stats();
  EXPECT_EQ(stats.misses, 5u);
  EXPECT_EQ(stats.hits, 2u);
  EXPECT_EQ(stats.evictions, 0u);
}

TEST(ClientStore, EvictedClientStaysAliveAndRegeneratesIdentically) {
  const auto spec = small_spec();
  const auto cfg = small_cfg("dirichlet", 6);
  auto plan = std::make_shared<const data::PartitionPlan>(spec, cfg, 11);
  fl::ClientStore store(plan, /*capacity=*/1);
  const auto held = store.acquire(2);
  store.acquire(3);  // capacity 1: evicts client 2
  store.acquire(4);
  // The held shared_ptr keeps the evicted client fully usable...
  EXPECT_EQ(held->id(), 2u);
  EXPECT_GT(held->n_train(), 0u);
  // ...and re-acquiring materializes a bit-identical replacement.
  const auto again = store.acquire(2);
  EXPECT_NE(again.get(), held.get());
  expect_dataset_eq(again->train_data(), held->train_data());
  expect_dataset_eq(again->test_data(), held->test_data());
}

// tsan_smoke: many threads hammering acquire() with capacity far below the
// id range — the build-slot dedup, LRU updates, and eviction must be free
// of races and deadlocks, and every thread must see the right client.
TEST(ClientStore, ConcurrentAcquireStress) {
  const auto spec = small_spec();
  auto cfg = small_cfg("skew", 32);
  cfg.train_per_client = 2;
  cfg.test_per_client = 1;
  auto plan = std::make_shared<const data::PartitionPlan>(spec, cfg, 5);
  fl::ClientStore store(plan, /*capacity=*/4);

  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kIters = 200;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      util::Rng rng(100 + t);
      for (std::size_t i = 0; i < kIters; ++i) {
        const std::size_t id = static_cast<std::size_t>(
            rng.randint(0, static_cast<std::int64_t>(store.size())));
        const auto c = store.acquire(id);
        if (c->id() != id || c->n_train() != 2) failures.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_LE(store.cached(), store.capacity());
  const auto stats = store.stats();
  EXPECT_EQ(stats.hits + stats.misses, kThreads * kIters);
  // Every client acquired after the stress is still regenerated correctly.
  const auto eager = data::make_federated_data(spec, cfg, 5);
  for (std::size_t id = 0; id < store.size(); id += 7) {
    expect_dataset_eq(store.acquire(id)->train_data(), eager[id].train);
  }
}

// --- SparseClientParams ---

TEST(SparseClientParams, DefaultsAndTouchSemantics) {
  fl::SparseClientParams p;
  p.reset(100, {1.0f, 2.0f});
  EXPECT_EQ(p.n_clients(), 100u);
  EXPECT_EQ(p.touched_count(), 0u);
  EXPECT_EQ(p.get(57), (std::vector<float>{1.0f, 2.0f}));
  auto& slot = p.touch(57);
  EXPECT_EQ(slot, (std::vector<float>{1.0f, 2.0f}));  // copy of default
  slot[0] = 9.0f;
  EXPECT_EQ(p.get(57)[0], 9.0f);
  EXPECT_EQ(p.get(58)[0], 1.0f);  // untouched slots unaffected
  EXPECT_EQ(p.touched_count(), 1u);
  EXPECT_EQ(&p.touch(57), &slot);  // re-touch: same node, stable reference
  EXPECT_THROW(p.get(100), std::out_of_range);
  EXPECT_THROW(p.touch(100), std::out_of_range);
}

TEST(SparseClientParams, SaveLoadRoundTrip) {
  fl::SparseClientParams p;
  p.reset(10000, std::vector<float>(3, 0.5f));
  for (const std::size_t id : {7, 42, 9999}) {
    p.touch(id) = {static_cast<float>(id), 1.0f, 2.0f};
  }
  util::BinaryWriter w;
  p.save(w);
  const std::vector<std::uint8_t>& bytes = w.bytes();
  // Snapshot size scales with touched slots, not population: 3 records of
  // (u64 id + u64 len + 3 f32) + the two header u64s.
  EXPECT_EQ(bytes.size(), 2 * 8 + 3 * (8 + 8 + 3 * 4));

  fl::SparseClientParams q;
  q.reset(10000, std::vector<float>(3, 0.5f));
  util::BinaryReader r(bytes);
  q.load(r);
  EXPECT_EQ(q.touched_count(), 3u);
  for (std::size_t id = 0; id < 10000; ++id) {
    ASSERT_EQ(q.get(id), p.get(id)) << id;
  }
}

TEST(SparseClientParams, LoadRejectsCorruption) {
  const auto serialize = [](std::uint64_t n, std::uint64_t count,
                            std::vector<std::pair<std::uint64_t,
                                                  std::vector<float>>>
                                records) {
    util::BinaryWriter w;
    w.write_u64(n);
    w.write_u64(count);
    for (auto& [id, vec] : records) {
      w.write_u64(id);
      w.write_f32_vec(vec);
    }
    return w.take();
  };
  const auto load_into = [](const std::vector<std::uint8_t>& bytes) {
    fl::SparseClientParams p;
    p.reset(100, std::vector<float>(2, 0.0f));
    util::BinaryReader r(bytes);
    p.load(r);
  };
  // Population disagrees with reset().
  EXPECT_THROW(load_into(serialize(99, 0, {})), std::runtime_error);
  // More touched records than clients.
  EXPECT_THROW(load_into(serialize(100, 101, {})), std::runtime_error);
  // Record id out of range.
  EXPECT_THROW(load_into(serialize(100, 1, {{100, {0, 0}}})),
               std::runtime_error);
  // Ids not strictly ascending.
  EXPECT_THROW(
      load_into(serialize(100, 2, {{5, {0, 0}}, {5, {0, 0}}})),
      std::runtime_error);
  EXPECT_THROW(
      load_into(serialize(100, 2, {{5, {0, 0}}, {3, {0, 0}}})),
      std::runtime_error);
  // Dimension mismatch vs the reset default.
  EXPECT_THROW(load_into(serialize(100, 1, {{5, {1, 2, 3}}})),
               std::runtime_error);
  // A clean payload still loads after all those rejections.
  load_into(serialize(100, 1, {{5, {1, 2}}}));
}

// --- StreamingAggregator ---

TEST(StreamingAggregator, OrderInvariantAndMatchesDirectAverage) {
  const std::size_t dim = 37, slots = 5;
  std::vector<std::vector<float>> updates(slots, std::vector<float>(dim));
  std::vector<double> weights = {1.0, 2.0, 0.5, 3.0, 1.5};
  util::Rng rng(4);
  for (auto& u : updates)
    for (auto& x : u) x = rng.normalf(0, 1);

  const auto run = [&](const std::vector<std::size_t>& order) {
    fl::StreamingAggregator agg(slots, dim);
    for (const std::size_t s : order) {
      agg.submit(s, updates[s].data(), dim, weights[s]);
    }
    std::vector<float> out(dim);
    EXPECT_TRUE(agg.finish(out));
    return out;
  };
  const auto a = run({0, 1, 2, 3, 4});
  const auto b = run({4, 2, 0, 3, 1});
  const auto c = run({3, 4, 1, 0, 2});
  EXPECT_EQ(a, b);  // bit-identical: the tree fixes the FP association
  EXPECT_EQ(a, c);

  double wsum = 0;
  for (const double w : weights) wsum += w;
  for (std::size_t j = 0; j < dim; ++j) {
    double acc = 0;
    for (std::size_t s = 0; s < slots; ++s)
      acc += weights[s] * static_cast<double>(updates[s][j]);
    EXPECT_NEAR(a[j], static_cast<float>(acc / wsum), 1e-6f);
  }
}

TEST(StreamingAggregator, SkipsAndEmptyRound) {
  const std::size_t dim = 4;
  fl::StreamingAggregator agg(3, dim);
  const std::vector<float> u = {1, 2, 3, 4};
  agg.skip(0);
  agg.submit(1, u.data(), dim, 2.0);
  agg.skip(2);
  EXPECT_TRUE(agg.any_delivered());
  std::vector<float> out(dim, -1.0f);
  EXPECT_TRUE(agg.finish(out));
  EXPECT_EQ(out, u);  // single survivor: weight cancels

  fl::StreamingAggregator empty(2, dim);
  empty.skip(0);
  empty.skip(1);
  EXPECT_FALSE(empty.any_delivered());
  std::vector<float> keep = {9, 9, 9, 9};
  EXPECT_FALSE(empty.finish(keep));
  EXPECT_EQ(keep, (std::vector<float>{9, 9, 9, 9}));  // model untouched
}

TEST(StreamingAggregator, ContractViolationsThrow) {
  const std::size_t dim = 3;
  const std::vector<float> u = {1, 2, 3};
  EXPECT_THROW(fl::StreamingAggregator(0, dim), std::invalid_argument);
  fl::StreamingAggregator agg(2, dim);
  EXPECT_THROW(agg.submit(2, u.data(), dim, 1.0), std::out_of_range);
  EXPECT_THROW(agg.submit(0, u.data(), dim - 1, 1.0), std::invalid_argument);
  EXPECT_THROW(agg.submit(0, u.data(), dim, -1.0), std::invalid_argument);
  agg.submit(0, u.data(), dim, 1.0);
  EXPECT_THROW(agg.submit(0, u.data(), dim, 1.0), std::logic_error);
  std::vector<float> out(dim);
  EXPECT_THROW(agg.finish(out), std::logic_error);  // slot 1 unresolved
  agg.skip(1);
  std::vector<float> wrong(dim - 1);
  EXPECT_THROW(agg.finish(wrong), std::invalid_argument);
  EXPECT_TRUE(agg.finish(out));
}

// tsan_smoke: concurrent submits from many threads must produce the exact
// single-threaded result — the whole point of the fixed reduction tree.
TEST(StreamingAggregator, ConcurrentSubmitIsBitIdentical) {
  const std::size_t dim = 256, slots = 64;
  std::vector<std::vector<float>> updates(slots, std::vector<float>(dim));
  util::Rng rng(21);
  for (auto& u : updates)
    for (auto& x : u) x = rng.normalf(0, 1);

  std::vector<float> serial(dim);
  {
    fl::StreamingAggregator agg(slots, dim);
    for (std::size_t s = 0; s < slots; ++s) {
      agg.submit(s, updates[s].data(), dim, 1.0 + s);
    }
    ASSERT_TRUE(agg.finish(serial));
  }
  for (int rep = 0; rep < 4; ++rep) {
    fl::StreamingAggregator agg(slots, dim);
    std::atomic<std::size_t> next{0};
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < 8; ++t) {
      threads.emplace_back([&] {
        for (std::size_t s; (s = next.fetch_add(1)) < slots;) {
          if (s % 9 == 8) {
            agg.skip(s);
            continue;
          }
          agg.submit(s, updates[s].data(), dim, 1.0 + s);
        }
      });
    }
    for (auto& th : threads) th.join();
    std::vector<float> parallel(dim);
    ASSERT_TRUE(agg.finish(parallel));
    // Compare against a serial run with the same skip pattern.
    fl::StreamingAggregator ref(slots, dim);
    for (std::size_t s = 0; s < slots; ++s) {
      if (s % 9 == 8) {
        ref.skip(s);
      } else {
        ref.submit(s, updates[s].data(), dim, 1.0 + s);
      }
    }
    std::vector<float> expected(dim);
    ASSERT_TRUE(ref.finish(expected));
    EXPECT_EQ(parallel, expected);
  }
}

}  // namespace
