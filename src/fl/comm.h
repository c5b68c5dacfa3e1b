#pragma once

// First-class communication accounting. Every parameter transfer in the
// simulator goes through a CommTracker, so Table 5's "Mb to reach target
// accuracy" is measured, not estimated.
//
// Since the wire-layer PR, transfers are billed per *envelope*: the tracker
// records the codec-encoded payload bytes that actually crossed the wire
// (what `bytes_up`/`bytes_down` and the paper-facing Mb figures report —
// for the default raw_f32 codec this is exactly the pre-wire n*4), plus two
// side ledgers: the logical float32 payload volume (`payload_bytes`) and
// the full framed volume including envelope headers (`wire_bytes`). The
// payload/wire pair is what the compression-ratio report and the
// `comm.payload_bytes` / `comm.wire_bytes` obs counters are built from.
//
// Counters are relaxed atomics: client-parallel rounds account transfers
// from worker threads concurrently, and byte totals are pure commutative
// sums, so relaxed increments keep the counts exact at any thread count.

#include <atomic>
#include <cstdint>

namespace fedclust::fl {

// Point-in-time copy of every CommTracker ledger — what run snapshots
// persist so a resumed run's cumulative byte totals continue bit-exactly.
struct CommLedger {
  std::uint64_t bytes_up = 0;
  std::uint64_t bytes_down = 0;
  std::uint64_t payload_bytes = 0;
  std::uint64_t wire_bytes = 0;
  std::uint64_t messages = 0;

  bool operator==(const CommLedger&) const = default;
};

class CommTracker {
 public:
  // Client -> server: `messages` envelopes, each carrying `n_floats`
  // logical float32 values serialized to `encoded_bytes` payload bytes.
  void upload_envelope(std::uint64_t n_floats, std::uint64_t encoded_bytes,
                       std::uint64_t messages = 1);
  // Server -> client.
  void download_envelope(std::uint64_t n_floats, std::uint64_t encoded_bytes,
                         std::uint64_t messages = 1);

  std::uint64_t bytes_up() const {
    return bytes_up_.load(std::memory_order_relaxed);
  }
  std::uint64_t bytes_down() const {
    return bytes_down_.load(std::memory_order_relaxed);
  }
  std::uint64_t bytes_total() const { return bytes_up() + bytes_down(); }

  // Logical transfer volume: every moved float at 4 bytes, codec-agnostic.
  std::uint64_t payload_bytes() const {
    return payload_bytes_.load(std::memory_order_relaxed);
  }
  // Framed volume: encoded payload plus one header per envelope.
  std::uint64_t wire_bytes() const {
    return wire_bytes_.load(std::memory_order_relaxed);
  }
  std::uint64_t messages() const {
    return messages_.load(std::memory_order_relaxed);
  }
  // payload/wire; > 1 when the codec compresses, slightly < 1 for raw_f32
  // (headers). 0 when nothing moved.
  double compression_ratio() const {
    const std::uint64_t w = wire_bytes();
    return w == 0 ? 0.0
                  : static_cast<double>(payload_bytes()) /
                        static_cast<double>(w);
  }

  // Megabits, the unit of the paper's Table 5.
  double total_mb() const {
    return static_cast<double>(bytes_total()) * 8.0 / 1e6;
  }

  void reset();

  // Snapshot/restore for checkpointed runs. restore() overwrites every
  // ledger; call it only while no transfers are in flight (resume happens
  // before any round work starts).
  CommLedger ledger() const {
    CommLedger l;
    l.bytes_up = bytes_up();
    l.bytes_down = bytes_down();
    l.payload_bytes = payload_bytes();
    l.wire_bytes = wire_bytes();
    l.messages = messages();
    return l;
  }
  void restore(const CommLedger& l) {
    bytes_up_.store(l.bytes_up, std::memory_order_relaxed);
    bytes_down_.store(l.bytes_down, std::memory_order_relaxed);
    payload_bytes_.store(l.payload_bytes, std::memory_order_relaxed);
    wire_bytes_.store(l.wire_bytes, std::memory_order_relaxed);
    messages_.store(l.messages, std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> bytes_up_{0};
  std::atomic<std::uint64_t> bytes_down_{0};
  std::atomic<std::uint64_t> payload_bytes_{0};
  std::atomic<std::uint64_t> wire_bytes_{0};
  std::atomic<std::uint64_t> messages_{0};
};

}  // namespace fedclust::fl
