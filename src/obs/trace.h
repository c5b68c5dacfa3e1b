#pragma once

// obs::SpanTracer — RAII scoped spans (`OBS_SPAN("round")`) recorded into
// per-thread ring buffers and exported as Chrome Trace Event Format JSON
// (open the file in Perfetto / chrome://tracing to see where round
// wall-time goes).
//
// Invariants (ROADMAP "Observability"):
//  * Zero perturbation: a span only reads the steady clock — it never
//    touches RNG state or floating-point accumulation order — so traces,
//    final parameters, and comm bytes are bit-identical with tracing on or
//    off at any FEDCLUST_THREADS (obs_invariance_test enforces this).
//  * Disabled-path cost: one relaxed atomic load + branch per site; the
//    clock is not read and nothing is written.
//  * Hot-path recording takes no locks and performs no allocation: each
//    thread owns a fixed-capacity ring buffer, registered once (under a
//    mutex) on the thread's first recorded span. Overflow overwrites the
//    oldest events and is counted, never blocks.
//
// Export (collect / chrome_trace_json / clear) walks every thread's buffer
// without synchronizing against writers, so call it only when no spans are
// being recorded — after parallel work has joined, which is when runs
// export anyway. Timestamps share util::process_epoch() with the logger,
// so log-line prefixes and trace "ts" values are directly comparable.

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "util/timer.h"

namespace fedclust::obs {

// One closed span. `name` must be a string literal (or otherwise outlive
// the tracer): events store the pointer, not a copy, to keep recording
// allocation-free.
struct SpanEvent {
  const char* name = nullptr;
  std::int64_t begin_us = 0;  // microseconds since util::process_epoch()
  std::int64_t end_us = 0;
  std::uint64_t arg = 0;   // site-defined payload (client id, round, mnk)
  std::uint64_t arg2 = 0;  // second payload (round for client.* spans), so
                           // Perfetto can filter spans per client AND round
  bool has_arg = false;
  bool has_arg2 = false;
};

class SpanTracer {
 public:
  // Leaky singleton: pool workers may record up to process exit, so the
  // tracer is never destroyed.
  static SpanTracer& instance();

  static bool enabled() { return g_enabled.load(std::memory_order_relaxed); }
  void set_enabled(bool on) {
    g_enabled.store(on, std::memory_order_relaxed);
  }

  // Appends to the calling thread's ring buffer (registers the buffer on
  // first use). Called by SpanScope's destructor; lock-free after
  // registration.
  void record(const char* name, std::int64_t begin_us, std::int64_t end_us,
              std::uint64_t arg, bool has_arg) {
    record(name, begin_us, end_us, arg, has_arg, 0, false);
  }
  void record(const char* name, std::int64_t begin_us, std::int64_t end_us,
              std::uint64_t arg, bool has_arg, std::uint64_t arg2,
              bool has_arg2);

  // Names the calling thread in the exported trace ("pool-worker-3");
  // threads that never call it appear as "thread-<tid>".
  void set_thread_label(const std::string& label);

  // Interns a dynamically built span name (e.g. "wire.encode/qint8") and
  // returns a stable C string that outlives the tracer, so it can be passed
  // anywhere a literal is accepted. Idempotent: equal strings return the
  // same pointer. Takes a mutex — intern once per site (cache the result in
  // a static), never per event; the literal fast path needs no interning
  // and stays allocation-free.
  const char* intern(const std::string& name);

  struct ThreadEvents {
    std::uint32_t tid = 0;
    std::string label;
    std::uint64_t dropped = 0;        // events lost to ring overflow
    std::vector<SpanEvent> events;    // oldest first
  };

  // Snapshot of every thread's buffered events. Not safe concurrently with
  // record() — export after parallel work has joined.
  std::vector<ThreadEvents> collect() const;

  // Events currently buffered across all threads (clamped to capacity).
  std::size_t total_recorded() const;

  // Chrome Trace Event Format: {"traceEvents":[...]} with one "X"
  // (complete) event per span and "M" thread_name metadata per thread.
  std::string chrome_trace_json() const;

  // Drops all buffered events (buffers stay registered). Same concurrency
  // caveat as collect().
  void clear();

 private:
  SpanTracer() = default;

  static std::atomic<bool> g_enabled;
};

// The RAII scope behind OBS_SPAN. If tracing is disabled at construction
// the scope is inert (name_ stays null and the destructor does nothing).
class SpanScope {
 public:
  explicit SpanScope(const char* name) {
    if (!SpanTracer::enabled()) return;
    name_ = name;
    begin_us_ = util::process_elapsed_micros();
  }
  SpanScope(const char* name, std::uint64_t arg) {
    if (!SpanTracer::enabled()) return;
    name_ = name;
    begin_us_ = util::process_elapsed_micros();
    arg_ = arg;
    has_arg_ = true;
  }
  SpanScope(const char* name, std::uint64_t arg, std::uint64_t arg2) {
    if (!SpanTracer::enabled()) return;
    name_ = name;
    begin_us_ = util::process_elapsed_micros();
    arg_ = arg;
    has_arg_ = true;
    arg2_ = arg2;
    has_arg2_ = true;
  }
  ~SpanScope() {
    if (name_ == nullptr) return;
    SpanTracer::instance().record(name_, begin_us_,
                                  util::process_elapsed_micros(), arg_,
                                  has_arg_, arg2_, has_arg2_);
  }

  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  const char* name_ = nullptr;
  std::int64_t begin_us_ = 0;
  std::uint64_t arg_ = 0;
  std::uint64_t arg2_ = 0;
  bool has_arg_ = false;
  bool has_arg2_ = false;
};

}  // namespace fedclust::obs

#define FEDCLUST_OBS_CONCAT_INNER(a, b) a##b
#define FEDCLUST_OBS_CONCAT(a, b) FEDCLUST_OBS_CONCAT_INNER(a, b)

// Scoped span covering the rest of the enclosing block. `name` must be a
// string literal.
#define OBS_SPAN(name) \
  ::fedclust::obs::SpanScope FEDCLUST_OBS_CONCAT(obs_span_, __COUNTER__)(name)
// Same, with a numeric payload shown in the trace viewer's args panel.
#define OBS_SPAN_ARG(name, arg)                                     \
  ::fedclust::obs::SpanScope FEDCLUST_OBS_CONCAT(obs_span_,         \
                                                 __COUNTER__)(      \
      name, static_cast<std::uint64_t>(arg))
// Two payloads ("v"/"v2" in the args panel) — client.* spans carry
// (client, round) so traces filter per client and per round.
#define OBS_SPAN_ARG2(name, arg, arg2)                              \
  ::fedclust::obs::SpanScope FEDCLUST_OBS_CONCAT(obs_span_,         \
                                                 __COUNTER__)(      \
      name, static_cast<std::uint64_t>(arg),                        \
      static_cast<std::uint64_t>(arg2))
