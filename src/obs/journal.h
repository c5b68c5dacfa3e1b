#pragma once

// obs::EventJournal — structured per-(round, client) event rows behind the
// run's attribution story: who was sampled, who trained for how long, what
// every upload/download cost on the wire, which fault hit whom, and which
// cluster each client reported to. Rows are recorded into per-thread
// append-only buffers and flushed to JSONL at round boundaries; the file is
// the input to tools/fedclust_report.
//
// Shares the observability invariants of SpanTracer / MetricsRegistry
// (docs/INVARIANTS.md §Observability):
//  * Zero perturbation: recording never touches RNG state or FP
//    accumulation order, so journaled runs are bit-identical to bare ones
//    at any FEDCLUST_THREADS (obs_invariance_test enforces this).
//  * Disabled-path cost: one relaxed atomic load + branch per site.
//  * Hot-path recording takes no locks: each thread owns its buffer,
//    registered once (under a mutex) on first use; appends allocate only
//    on the owning thread.
//  * Export only when quiescent: flush_round()/close() walk every thread's
//    buffer without synchronizing against writers — call them after
//    parallel work has joined (round boundaries), as FlAlgorithm::run does.
//
// The JSONL is deterministic: flush sorts rows by (round, client, event,
// a, b) before writing, so files are bit-identical at any thread count as
// long as no wall-clock field is recorded (set_wall_clock(false) zeroes
// the one wall-clock field, train_us — the journal determinism test runs
// that way; normal runs keep real timings and accept that train_us varies).

#include <atomic>
#include <cstdint>
#include <string>

namespace fedclust::obs {

// Per-(round, client) event kinds, in rough lifecycle order. The `a`/`b`
// payload slots are event-specific; journal_event_name / the JSONL renderer
// map them to named fields (see docs/OBSERVABILITY.md for the schema).
enum class JournalEvent : std::uint8_t {
  kSampled = 0,      // client is in the round's cohort (post-dropout)
  kDropped,          // pre-round dropout: invited, never trained
  kCluster,          // a = cluster id the client trains against
  kDownload,         // a = payload bytes (n*4), b = framed wire bytes
  kTrain,            // a = local-training wall µs (0 when wall clock off)
  kUpload,           // a = payload bytes, b = wire bytes, both totals
                     //     across every transmission attempt
  kCrash,            // post-train crash: compute spent, update lost
  kStraggler,        // a = delay factor in milli-units (1500 = 1.5x)
  kRetry,            // a = retransmissions beyond the first attempt
  kCommFailed,       // a = attempts spent before the retry budget died
  kDeadlineMissed,   // a = simulated round time in milli-units
  kCorrupt,          // a = CorruptionKind ordinal (nan|inf|explode|bitflip)
  kChecksumReject,   // envelope CRC rejected the update on arrival
  kQuarantine,       // a = validator reason (0 non_finite, 1 norm_bound)
  kDelivered,        // the update entered aggregation
  kEval,             // a = client's local-test accuracy in micro-units

  // ---- transport events (socket mode; see docs/TRANSPORT.md) ----------
  // The `client` slot carries the *worker* id, not a client id; `round` is
  // the round the server was executing when the event fired (0 during the
  // pre-campaign handshake). All are recorded on the server thread, so the
  // flush-sort determinism contract is unaffected.
  kConnect,          // worker completed the handshake during startup
  kReconnect,        // a fresh worker joined mid-campaign
  kHeartbeatMissed,  // a = in-flight calls when the deadline expired
  kWorkerRestart,    // a = calls the worker had served before restarting
  kFrameReject,      // a = frame error ordinal (net::FrameStatus)
};

// Stable lowercase name used as the row's "ev" field.
const char* journal_event_name(JournalEvent ev);

struct JournalRow {
  std::uint64_t round = 0;
  std::uint64_t client = 0;
  JournalEvent event = JournalEvent::kSampled;
  std::uint64_t a = 0;
  std::uint64_t b = 0;
};

class EventJournal {
 public:
  // Leaky singleton, like SpanTracer: worker threads may record until
  // process exit.
  static EventJournal& instance();

  static bool enabled() { return g_enabled.load(std::memory_order_relaxed); }

  // Opens the JSONL output and enables recording. Throws std::runtime_error
  // naming the path when the file cannot be created. The first flushed line
  // is a header object ({"journal":1,"codec":...}) describing the run.
  void open(const std::string& path);
  // Final flush + close + disable. Buffered rows never outlive the file.
  void close();

  // Run-level codec attribute emitted in the header line ("raw_f32" until
  // told otherwise). Set before the first flush.
  void set_codec_name(const std::string& name);

  // When off, sites that would record wall-clock durations (kTrain) record
  // 0 instead, making the JSONL bit-identical across thread counts — what
  // tests/journal_test.cpp runs with. Defaults to on.
  void set_wall_clock(bool on) {
    g_wall_clock.store(on, std::memory_order_relaxed);
  }
  static bool wall_clock() {
    return g_wall_clock.load(std::memory_order_relaxed);
  }

  // Appends one row to the calling thread's buffer (registers the buffer on
  // first use). Lock-free after registration; a no-op when disabled.
  void record(std::uint64_t round, std::uint64_t client, JournalEvent ev,
              std::uint64_t a = 0, std::uint64_t b = 0);

  // Round context for emit sites that aren't handed the round index (the
  // eval sweep evaluates every client from inside Federation). Set at a
  // quiescent point before the sweep; record_in_context is dropped while
  // no context is set, so out-of-band sweeps (examples calling
  // local_accuracy_distribution directly) journal nothing.
  void set_round_context(std::uint64_t round);
  void clear_round_context();
  void record_in_context(std::uint64_t client, JournalEvent ev,
                         std::uint64_t a = 0, std::uint64_t b = 0);

  // Sorts every buffered row by (round, client, event, a, b), writes them
  // as JSONL, and clears the buffers. Quiescent-only, like
  // SpanTracer::collect. Called by FlAlgorithm::run at round boundaries
  // and by close(); a no-op when no file is open.
  void flush_round();

  // Rows currently buffered across all threads (quiescent-only; tests).
  std::size_t buffered_rows() const;

 private:
  EventJournal() = default;

  static std::atomic<bool> g_enabled;
  static std::atomic<bool> g_wall_clock;
};

}  // namespace fedclust::obs

// Hot-site guard: one relaxed load + branch when the journal is off.
#define OBS_JOURNAL(round, client, ev, ...)                               \
  do {                                                                    \
    if (::fedclust::obs::EventJournal::enabled()) {                       \
      ::fedclust::obs::EventJournal::instance().record(                   \
          static_cast<std::uint64_t>(round),                              \
          static_cast<std::uint64_t>(client),                             \
          ::fedclust::obs::JournalEvent::ev, ##__VA_ARGS__);              \
    }                                                                     \
  } while (0)
