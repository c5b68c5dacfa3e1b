#pragma once

// obs::report — post-run attribution analysis. Builds a RunReport from the
// three run artifacts (event-journal JSONL, per-round metrics JSONL,
// Chrome trace JSON), renders it as JSON and markdown, and diffs two
// reports against configurable thresholds — the automated perf/comm
// regression gate behind `fedclust_report --compare` (wired into
// tools/tier1.sh). Field semantics are documented in
// docs/OBSERVABILITY.md §Run report.
//
// Built as fedclust_obs_report, apart from fedclust_obs: only
// fedclust_report and tests read run artifacts, so this may link
// fedclust_clustering (partition_agreement is its adjusted Rand index).
// Everything here is pure string/struct transformation, so it is
// trivially testable (tests/report_test.cpp).

#include <cstdint>
#include <string>
#include <vector>

namespace fedclust::obs::report {

// Thresholds for compare(): a regression is flagged when the current run
// is worse than the baseline by more than the allowance.
struct CompareThresholds {
  double acc_tol = 0.02;        // absolute final-accuracy drop allowed
  double bytes_tol_pct = 10.0;  // allowed % growth of total wire bytes
  double time_tol_pct = 50.0;   // allowed % growth of total train wall-µs
                                // (wall time is noisy; keep this loose)
};

struct RoundStats {
  std::uint64_t round = 0;
  std::uint64_t sampled = 0;
  std::uint64_t delivered = 0;
  std::uint64_t train_us_total = 0;
  // The round's critical path under synchronous aggregation: the slowest
  // client's local-training wall time, and who it was (-1 = no train rows).
  std::uint64_t train_us_max = 0;
  std::int64_t critical_client = -1;
  std::uint64_t upload_wire_bytes = 0;
  std::uint64_t download_wire_bytes = 0;
  double acc = -1.0;            // from metrics JSONL; -1 = not evaluated
  double round_seconds = -1.0;  // from metrics JSONL; -1 = absent
};

struct ClientStats {
  std::uint64_t client = 0;
  std::uint64_t rounds_sampled = 0;
  std::uint64_t delivered = 0;
  std::uint64_t train_us_total = 0;
  std::uint64_t train_us_max = 0;
  std::uint64_t straggler_events = 0;
  std::uint64_t max_delay_milli = 0;  // worst injected delay factor
  std::uint64_t upload_wire_bytes = 0;
  std::uint64_t download_wire_bytes = 0;
  std::int64_t cluster = -1;    // last cluster the client reported to
  double final_acc = -1.0;      // last journaled eval accuracy
};

struct ClusterStats {
  std::uint64_t cluster = 0;
  std::uint64_t clients = 0;   // members seen in journal cluster rows
  double mean_acc = -1.0;      // mean final_acc of members with eval rows
  std::uint64_t upload_wire_bytes = 0;
  std::uint64_t download_wire_bytes = 0;
};

// FedClust/PACFL setup summary: landmark-sketch telemetry (the
// cluster.landmark.* counters from the metrics JSONL; all zero for exact
// runs) plus the full journaled partition — setup writes one round-0
// cluster row per client, so `assignment` covers the whole population,
// not just sampled cohorts.
struct ClusteringSummary {
  std::uint64_t landmarks = 0;       // clients the dendrogram actually saw
  std::uint64_t clusters = 0;        // clusters the sketch produced
  std::uint64_t assign_batches = 0;  // streamed nearest-landmark batches
  std::uint64_t assigned = 0;        // non-landmark clients assigned
  // client -> cluster pairs journaled at setup, sorted by client id.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> assignment;

  bool any() const {
    return landmarks + clusters + assign_batches + assigned > 0 ||
           !assignment.empty();
  }
};

// One span name aggregated over the Chrome trace ("where did wall time
// go": fl.round vs client.train vs wire.encode/* vs gemm ...).
struct PhaseStats {
  std::string name;
  std::uint64_t count = 0;
  std::uint64_t total_us = 0;
};

struct FaultSummary {
  std::uint64_t dropped = 0;
  std::uint64_t crashes = 0;
  std::uint64_t stragglers = 0;
  std::uint64_t retries = 0;
  std::uint64_t comm_failed = 0;
  std::uint64_t deadline_missed = 0;
  std::uint64_t corrupt = 0;
  std::uint64_t checksum_rejects = 0;
  std::uint64_t quarantined = 0;
};

// Socket-mode transport events (journal rows whose `client` slot carries a
// worker id; see docs/TRANSPORT.md). All zero for in-process runs.
struct TransportSummary {
  std::uint64_t connects = 0;
  std::uint64_t reconnects = 0;
  std::uint64_t heartbeat_missed = 0;
  std::uint64_t worker_restarts = 0;
  std::uint64_t frame_rejects = 0;

  bool any() const {
    return connects + reconnects + heartbeat_missed + worker_restarts +
               frame_rejects >
           0;
  }
};

struct RunReport {
  int version = 1;
  std::string codec = "raw_f32";
  std::uint64_t rounds = 0;     // distinct rounds with sampled rows
  double final_acc = -1.0;
  std::uint64_t sampled_total = 0;
  std::uint64_t delivered_total = 0;
  std::uint64_t upload_payload_bytes = 0;
  std::uint64_t upload_wire_bytes = 0;
  std::uint64_t download_payload_bytes = 0;
  std::uint64_t download_wire_bytes = 0;
  std::uint64_t train_us_total = 0;
  // Memory / client-store telemetry from the metrics JSONL: the RSS
  // high-water mark is the max over the run's gauge samples, the cache
  // counters are the final cumulative values. All zero when no metrics
  // file rode along (or the run never registered them).
  std::uint64_t peak_rss_kb = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_evictions = 0;
  std::vector<RoundStats> per_round;
  std::vector<ClientStats> stragglers;  // top-K by straggler attribution
  std::vector<ClusterStats> clusters;
  ClusteringSummary clustering;
  FaultSummary faults;
  TransportSummary transport;
  std::vector<PhaseStats> phases;       // by total_us, descending

  std::uint64_t total_wire_bytes() const {
    return upload_wire_bytes + download_wire_bytes;
  }
};

// Builds the report from raw artifact text. journal_text is required;
// metrics_text / trace_text may be empty (their fields stay at defaults).
// top_k bounds the straggler table. Throws std::runtime_error on
// malformed input.
RunReport build_report(const std::string& journal_text,
                       const std::string& metrics_text,
                       const std::string& trace_text,
                       std::size_t top_k = 5);

// Deterministic serializations: equal reports produce byte-equal output.
std::string to_json(const RunReport& r);
std::string to_markdown(const RunReport& r);

// Reads a report back from to_json() output — the baseline side of
// --compare. Only the fields compare() consults are required to be
// present; missing sections stay at defaults.
RunReport from_json(const std::string& text);

// Adjusted Rand index between the partitions the two runs journaled,
// computed over the clients both assigned — the landmark-vs-exact
// clustering agreement gate (`fedclust_report --ari-min`). Returns false
// (leaving *ari untouched) when fewer than two common clients exist;
// agreement is undefined then. 1 = identical partitions, ~0 = chance.
bool partition_agreement(const RunReport& a, const RunReport& b,
                         double* ari);

struct Regression {
  std::string metric;   // "final_acc" | "wire_bytes" | "train_us"
  double current = 0.0;
  double baseline = 0.0;
  std::string detail;   // human-readable one-liner
};

// Diffs `current` against `baseline`: final accuracy may not drop more
// than acc_tol, total wire bytes / total train wall-µs may not grow more
// than their percentage allowances. Empty result = no regression.
std::vector<Regression> compare(const RunReport& current,
                                const RunReport& baseline,
                                const CompareThresholds& thresholds);

}  // namespace fedclust::obs::report
