#pragma once

// Deterministic fault injection and server-side update validation.
//
// A FaultPlan describes a chaos campaign — per-(client, round) probabilities
// for four fault classes plus the server's resilience policy — and a
// FaultEngine turns it into a concrete schedule that is a pure function of
// (seed, client, round). Decisions are derived from a private RNG stream
// split per (client, round), so they never touch the training streams and
// are identical at any FEDCLUST_THREADS value (the thread-count-invariance
// contract in ROADMAP.md).
//
// Fault classes and their cost profiles (paper §4.2 only models the first):
//   pre-round dropout   — client never trains: no compute, no comm.
//   post-train crash    — compute spent, update lost before upload: no
//                         upload bytes.
//   straggler           — compute spent, upload lands after the round
//                         deadline: comm spent, update discarded.
//   corrupted update    — compute and comm spent; the server's
//                         UpdateValidator quarantines it before aggregation.
// Transient comm faults sit across classes: each failed upload attempt puts
// bytes on the wire and triggers a bounded retry-with-backoff; exhausting
// the retry budget loses the update (comm spent, update lost).

#include <cstdint>
#include <string>
#include <vector>

#include "util/fields.h"
#include "util/rng.h"

namespace fedclust::fl {

// How a corrupted update is mangled before upload.
enum class CorruptionKind : std::uint8_t {
  kNone = 0,
  kNan,       // a deterministic subset of entries becomes NaN
  kInf,       // a deterministic subset of entries becomes ±Inf
  kExplode,   // every entry is scaled by explode_factor (norm explosion)
  kBitFlip,   // one mantissa/exponent bit flips in a few entries (silent —
              // only the norm bound can catch it, and only sometimes)
};

struct FaultPlan {
  // ---- injection: per-(client, round) probabilities ---------------------
  double pre_round_dropout = 0.0;    // [0, 1)
  double post_train_crash = 0.0;     // [0, 1)
  double straggler_prob = 0.0;       // [0, 1)
  double straggler_delay = 3.0;      // max delay factor; the delay is drawn
                                     // uniformly in [1, straggler_delay]
  double transient_comm_prob = 0.0;  // [0, 1) per upload attempt
  double corrupt_prob = 0.0;         // [0, 1)
  std::string corrupt_mode = "mix";  // nan|inf|explode|bitflip|mix
  double explode_factor = 1e6;       // scale used by kExplode

  // ---- server-side resilience policy ------------------------------------
  // Round deadline in normalized time units (a fault-free client round
  // costs 1.0; stragglers multiply it, retries add backoff). 0 = no
  // deadline: stragglers are waited out and only shift metrics.
  double round_deadline = 0.0;
  std::size_t max_retries = 2;       // upload retransmissions before giving up
  // Retry backoff schedule, shared between the simulated comm faults
  // (Federation::deliver_update's sim-time accounting) and the real
  // transport's reconnect/resend policy (net::BackoffPolicy): the delay
  // before retransmission i (1-based) is backoff_base * backoff_mult^(i-1).
  double backoff_base = 0.25;        // seconds (sim: normalized time units)
  double backoff_mult = 2.0;         // >= 1
  double over_select_fraction = 0.0; // sample ceil(k * (1 + f)) clients to
                                     // hedge expected dropouts
  double max_update_norm = 0.0;      // L2 bound for the validator; 0 = off

  // Restrict injection to these client ids (empty = every client). Lets
  // chaos campaigns target one cluster's membership.
  std::vector<std::size_t> only_clients;

  // Explicit switch so an all-zero plan can still exercise the engine code
  // path (the zero-fault ≡ disabled invariant). parse() always sets it.
  bool enabled = false;

  // True when the engine should participate in round execution at all.
  bool active() const;
  // Throws std::invalid_argument naming the offending field.
  void validate() const;
  // Parses "key=value,key=value" (e.g. "crash=0.1,straggle=0.3,delay=4,
  // deadline=2.5,corrupt=0.05,corrupt_mode=nan,only=0:3:7"), one key per
  // field as for_each_field lists them. An empty spec yields a disabled
  // plan; unknown keys throw.
  static FaultPlan parse(const std::string& spec);
  // Compact "key=value ..." rendering of the non-default fields.
  std::string describe() const;
  // The spec keys parse() accepts, comma-separated, in list order.
  static std::string spec_keys();
};

// FaultPlan's fields in canonical order (util/fields.h), each with the
// --fault-spec key that sets it.
template <util::ConfigRef<FaultPlan> P, class V>
constexpr void for_each_field(P& p, V&& v) {
  v({"pre_round_dropout", "dropout"}, p.pre_round_dropout);
  v({"post_train_crash", "crash"}, p.post_train_crash);
  v({"straggler_prob", "straggle"}, p.straggler_prob);
  v({"straggler_delay", "delay"}, p.straggler_delay);
  v({"transient_comm_prob", "comm"}, p.transient_comm_prob);
  v({"corrupt_prob", "corrupt"}, p.corrupt_prob);
  v({"corrupt_mode", "corrupt_mode"}, p.corrupt_mode);
  v({"explode_factor", "explode"}, p.explode_factor);
  v({"round_deadline", "deadline"}, p.round_deadline);
  v({"max_retries", "retries"}, p.max_retries);
  v({"backoff_base", "backoff_base"}, p.backoff_base);
  v({"backoff_mult", "backoff_mult"}, p.backoff_mult);
  v({"over_select_fraction", "over_select"}, p.over_select_fraction);
  v({"max_update_norm", "max_norm"}, p.max_update_norm);
  v({"only_clients", "only"}, p.only_clients);
  v({"enabled"}, p.enabled);  // no spec key: parse() sets it
}
static_assert(util::field_list_complete<FaultPlan>);

// The per-(client, round) fault outcome, fully determined before any work
// happens. All draws for one (client, round) come from one split stream in
// a fixed order, so adding consumers cannot reshuffle sibling decisions.
struct FaultDecision {
  bool drop_pre_round = false;
  bool crash_post_train = false;
  bool straggler = false;
  double delay_factor = 1.0;           // ≥ 1; only > 1 for stragglers
  CorruptionKind corrupt = CorruptionKind::kNone;
  std::size_t transient_failures = 0;  // failed upload attempts (capped at
                                       // max_retries + 1)
};

class FaultEngine {
 public:
  FaultEngine() = default;
  FaultEngine(FaultPlan plan, std::uint64_t seed);

  const FaultPlan& plan() const { return plan_; }
  bool active() const { return plan_.active(); }

  // Pure function of (seed, client, round): thread-safe, call-order
  // independent, and identical across processes with the same seed.
  FaultDecision decide(std::size_t client, std::size_t round) const;

  // Applies `kind` to `params` in place, deterministically in
  // (seed, client, round). No-op for kNone.
  void corrupt_update(std::vector<float>& params, std::size_t client,
                      std::size_t round, CorruptionKind kind) const;

  // Bit-flip corruption against real wire bytes: flips three random bits of
  // the serialized envelope in place, deterministically in
  // (seed, client, round) — the same private stream corrupt_update uses, so
  // at most one of the two runs per delivery. The envelope CRC then catches
  // the damage before the payload is decoded.
  void corrupt_wire(std::vector<std::uint8_t>& bytes, std::size_t client,
                    std::size_t round) const;

 private:
  bool applies_to(std::size_t client) const;

  FaultPlan plan_;
  std::uint64_t seed_ = 0;
};

// Server-side quarantine, run on every collected update before it can touch
// the floating-point reduction order. The finiteness check is always on (a
// NaN in one update would poison the whole aggregate); the L2 norm bound is
// active when max_norm > 0.
class UpdateValidator {
 public:
  UpdateValidator() = default;
  explicit UpdateValidator(double max_norm) : max_norm_(max_norm) {}

  // nullptr when the update is acceptable, else a static reason string
  // ("non_finite" | "norm_bound") for metrics and logs.
  const char* check(const std::vector<float>& params) const;

  double max_norm() const { return max_norm_; }

 private:
  double max_norm_ = 0.0;
};

}  // namespace fedclust::fl
