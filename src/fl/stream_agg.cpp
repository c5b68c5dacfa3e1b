#include "fl/stream_agg.h"

#include <stdexcept>
#include <utility>

#include "fl/codec.h"
#include "obs/metrics.h"

namespace fedclust::fl {

namespace {

// The accumulator the last fold on this thread freed, if no leaf has taken
// it yet: one per thread, kept across aggregators, so every round reuses
// buffers instead of allocating one per update (at model size they come
// from the heap top or from mmap, and glibc trims or unmaps each on free)
// without holding more than one idle buffer per thread.
std::vector<double>& thread_spare() {
  thread_local std::vector<double> spare;
  return spare;
}

}  // namespace

StreamingAggregator::StreamingAggregator(std::size_t n_slots, std::size_t dim,
                                         bool int8_mode)
    : n_slots_(n_slots), dim_(dim), int8_mode_(int8_mode) {
  if (n_slots_ == 0) {
    throw std::invalid_argument("StreamingAggregator: zero slots");
  }
  levels_.emplace_back(n_slots_);
  for (auto& leaf : levels_.front()) leaf.remaining = 1;
  while (levels_.back().size() > 1) {
    const std::size_t prev = levels_.back().size();
    std::vector<Node> level((prev + 1) / 2);
    for (std::size_t j = 0; j < level.size(); ++j) {
      level[j].remaining = (2 * j + 1 < prev) ? 2 : 1;
    }
    levels_.push_back(std::move(level));
  }
  if (int8_mode_) {
    encoded_.resize(n_slots_);
    weights_.resize(n_slots_, 0.0);
    slot_delivered_.resize(n_slots_, 0);
  }
}

void StreamingAggregator::submit(std::size_t slot, const float* v,
                                 std::size_t n, double w,
                                 std::vector<std::uint8_t>&& encoded) {
  if (n != dim_) {
    throw std::invalid_argument("StreamingAggregator: length mismatch");
  }
  if (w < 0.0) {
    throw std::invalid_argument("StreamingAggregator: negative weight");
  }
  resolve(slot, true, v, w, std::move(encoded));
}

void StreamingAggregator::skip(std::size_t slot) {
  resolve(slot, false, nullptr, 0.0, {});
}

void StreamingAggregator::resolve(std::size_t slot, bool delivered_flag,
                                  const float* v, double w,
                                  std::vector<std::uint8_t>&& encoded) {
  if (slot >= n_slots_) {
    throw std::out_of_range("StreamingAggregator: slot out of range");
  }
  std::lock_guard<std::mutex> lk(mu_);
  Node& leaf = levels_.front()[slot];
  if (leaf.remaining != 1) {
    throw std::logic_error("StreamingAggregator: slot resolved twice");
  }
  leaf.remaining = 0;
  ++resolved_;
  if (delivered_flag) {
    ++delivered_;
    leaf.w = w;
    // Every entry is written below, so a recycled buffer needs no clearing.
    leaf.acc = std::exchange(thread_spare(), {});
    leaf.acc.resize(dim_);
    for (std::size_t i = 0; i < dim_; ++i) {
      leaf.acc[i] = w * static_cast<double>(v[i]);
    }
    if (int8_mode_) {
      encoded_[slot] = std::move(encoded);
      weights_[slot] = w;
      slot_delivered_[slot] = 1;
    }
  }

  // Fold upward while this completion also completes the parent. The fold
  // order for any pair is fixed (left + right), so the final association
  // depends only on the tree shape, never on arrival order.
  std::size_t l = 0;
  std::size_t j = slot;
  while (l + 1 < levels_.size()) {
    Node& parent = levels_[l + 1][j / 2];
    if (--parent.remaining > 0) break;
    Node& left = levels_[l][(j / 2) * 2];
    const std::size_t right_idx = (j / 2) * 2 + 1;
    if (right_idx < levels_[l].size()) {
      Node& right = levels_[l][right_idx];
      if (left.acc.empty()) {
        parent.acc = std::move(right.acc);
      } else if (right.acc.empty()) {
        parent.acc = std::move(left.acc);
      } else {
        for (std::size_t i = 0; i < dim_; ++i) left.acc[i] += right.acc[i];
        parent.acc = std::move(left.acc);
        if (thread_spare().empty()) thread_spare() = std::move(right.acc);
      }
      parent.w = left.w + right.w;
      std::vector<double>().swap(left.acc);
      std::vector<double>().swap(right.acc);
    } else {
      parent.acc = std::move(left.acc);
      parent.w = left.w;
      std::vector<double>().swap(left.acc);
    }
    j /= 2;
    ++l;
  }
}

bool StreamingAggregator::any_delivered() const {
  std::lock_guard<std::mutex> lk(mu_);
  return delivered_ > 0;
}

bool StreamingAggregator::finish(std::vector<float>& model) {
  std::lock_guard<std::mutex> lk(mu_);
  if (resolved_ != n_slots_) {
    throw std::logic_error("StreamingAggregator: unresolved slots at finish");
  }
  if (model.size() != dim_) {
    throw std::invalid_argument("StreamingAggregator: model length mismatch");
  }
  if (delivered_ == 0) return false;

  if (int8_mode_) {
    // Quantized-domain average over the encoded payloads, slot order — the
    // --fast-math-kernels qint8 path. Any missing/mis-sized payload (e.g. a
    // result produced before the flag flipped) falls back to the float tree.
    const std::size_t want = wire::encoded_size(wire::CodecId::kQInt8, dim_);
    bool ok = true;
    double total = 0.0;
    std::vector<std::pair<const std::vector<std::uint8_t>*, double>> entries;
    entries.reserve(delivered_);
    for (std::size_t s = 0; s < n_slots_ && ok; ++s) {
      if (slot_delivered_[s] == 0) continue;
      if (encoded_[s].size() != want) {
        ok = false;
        break;
      }
      entries.emplace_back(&encoded_[s], weights_[s]);
      total += weights_[s];
    }
    if (ok && !entries.empty() && total > 0.0) {
      for (auto& [bytes, w] : entries) w /= total;
      model = wire::qint8_weighted_average(entries, dim_);
      OBS_COUNTER_ADD("agg.int8_rounds", 1);
      return true;
    }
  }

  const Node& root = levels_.back().front();
  if (root.acc.empty() || !(root.w > 0.0)) return false;
  for (std::size_t i = 0; i < dim_; ++i) {
    model[i] = static_cast<float>(root.acc[i] / root.w);
  }
  return true;
}

}  // namespace fedclust::fl
