#include "fl/client_store.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "obs/metrics.h"

namespace fedclust::fl {

ClientStore::ClientStore(std::shared_ptr<const data::PartitionPlan> plan,
                         std::size_t capacity)
    : plan_(std::move(plan)), capacity_(std::max<std::size_t>(1, capacity)) {}

std::shared_ptr<const SimClient> ClientStore::acquire(std::size_t id) {
  if (id >= plan_->n_clients()) {
    throw std::out_of_range("ClientStore: client out of range");
  }
  std::shared_ptr<BuildSlot> slot;
  bool builder = false;
  {
    std::lock_guard<std::mutex> lk(mu_);
    const auto it = cache_.find(id);
    if (it != cache_.end()) {
      ++stats_.hits;
      OBS_COUNTER_ADD("store.cache_hits", 1);
      lru_.splice(lru_.begin(), lru_, it->second.lru_it);
      return it->second.client;
    }
    const auto bit = building_.find(id);
    if (bit != building_.end()) {
      // Another thread is already materializing this client; wait for its
      // result rather than regenerating the same datasets twice.
      slot = bit->second;
      ++stats_.hits;
      OBS_COUNTER_ADD("store.cache_hits", 1);
    } else {
      slot = std::make_shared<BuildSlot>();
      building_.emplace(id, slot);
      builder = true;
      ++stats_.misses;
      OBS_COUNTER_ADD("store.cache_misses", 1);
    }
  }

  if (!builder) {
    std::unique_lock<std::mutex> sl(slot->m);
    slot->cv.wait(sl, [&] { return slot->done; });
    return slot->client;
  }

  // Materialize outside every lock: regeneration is pure in (seed, id), so
  // concurrent builds of different clients never contend.
  data::ClientData cd = plan_->materialize(id);
  auto client = std::make_shared<const SimClient>(id, std::move(cd.train),
                                                  std::move(cd.test));
  {
    std::lock_guard<std::mutex> lk(mu_);
    lru_.push_front(id);
    cache_.emplace(id, Entry{client, lru_.begin()});
    while (cache_.size() > capacity_) {
      // size > capacity >= 1, so the back is never the entry just inserted.
      const std::size_t victim = lru_.back();
      lru_.pop_back();
      cache_.erase(victim);
      ++stats_.evictions;
      OBS_COUNTER_ADD("store.cache_evictions", 1);
    }
    building_.erase(id);
  }
  {
    std::lock_guard<std::mutex> sl(slot->m);
    slot->done = true;
    slot->client = client;
  }
  slot->cv.notify_all();
  return client;
}

ClientStore::CacheStats ClientStore::stats() const {
  std::lock_guard<std::mutex> lk(mu_);
  return stats_;
}

std::size_t ClientStore::cached() const {
  std::lock_guard<std::mutex> lk(mu_);
  return cache_.size();
}

}  // namespace fedclust::fl
