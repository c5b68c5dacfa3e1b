#pragma once

// Client storage behind Federation: clients regenerated on demand as a pure
// function of (seed, client id) from a data::PartitionPlan, behind an
// LRU-bounded materialization cache. With capacity >= the population the
// store never evicts, so each client is built on its first acquire and
// stays resident; a smaller capacity is what makes million-client
// populations fit on one machine.
//
// acquire() hands out shared ownership: an evicted client stays alive for
// whoever is still training on it, so eviction can never invalidate an
// in-flight worker. Regeneration is pure, so nothing about a run's
// trajectory ever depends on cache capacity or hit pattern — the cache is
// a memory/CPU dial only (docs/INVARIANTS.md §Scale).
//
// Concurrent acquires of the same uncached id are deduplicated: one thread
// builds, the rest wait on the build slot. For any fixed sequence of
// acquire() calls the hit/miss/eviction sequence is deterministic (plain
// LRU, ties impossible).

#include <condition_variable>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "data/partition.h"
#include "fl/client.h"

namespace fedclust::fl {

class ClientStore {
 public:
  struct CacheStats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
  };

  // Holds at most `capacity` (>= 1) materialized clients.
  ClientStore(std::shared_ptr<const data::PartitionPlan> plan,
              std::size_t capacity);

  std::size_t size() const { return plan_->n_clients(); }
  // Shared ownership of client `id`; materializes it if needed. Thread-safe.
  std::shared_ptr<const SimClient> acquire(std::size_t id);
  CacheStats stats() const;

  std::size_t capacity() const { return capacity_; }
  // Currently materialized entries (for tests; racy under concurrency).
  std::size_t cached() const;

 private:
  struct BuildSlot {
    std::mutex m;
    std::condition_variable cv;
    bool done = false;
    std::shared_ptr<const SimClient> client;
  };
  struct Entry {
    std::shared_ptr<const SimClient> client;
    std::list<std::size_t>::iterator lru_it;
  };

  std::shared_ptr<const data::PartitionPlan> plan_;
  std::size_t capacity_;

  mutable std::mutex mu_;
  std::list<std::size_t> lru_;  // front = most recently used
  std::unordered_map<std::size_t, Entry> cache_;
  std::unordered_map<std::size_t, std::shared_ptr<BuildSlot>> building_;
  CacheStats stats_;
};

}  // namespace fedclust::fl
