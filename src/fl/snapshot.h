#pragma once

// Versioned, checksummed run snapshots — the deterministic checkpoint/resume
// layer (docs/INVARIANTS.md "Snapshot").
//
// A RunSnapshot captures the complete mutable state of a simulation at a
// round boundary: the next round index, the algorithm's serialized state
// (via FlAlgorithm::save_state), the CommTracker ledgers, the accumulated
// trace records, the obs counter values, and a set of named RNG stream
// probes. Because every stochastic component of the simulator is a pure
// function of (seed, client, round) — sampling, training streams, fault
// decisions — no in-flight RNG state needs to survive a restart: the probes
// exist only to detect drift (a changed RNG algorithm or stream layout)
// between the writer and the reader, not to restore generator positions.
//
// File format: the util::seal frame (util/serialization.h) with magic
// 0xFEDC5A42 and version 1 around a BinaryWriter body (field order in
// snapshot.cpp):
//
//   offset  size  field
//   0       4     magic 0xFEDC5A42
//   4       2     version (currently 1)
//   6       2     reserved (0)
//   8       8     body length in bytes
//   16      4     CRC32C over the body bytes
//   20      ...   body
//
// util::unseal verifies the CRC before a single body byte is parsed, so a
// truncated or bit-flipped snapshot is rejected before any value can reach
// a model (the same quarantine discipline as wire envelopes). Writes go
// through util::write_file (temp file + rename), so a crash mid-write never
// leaves a half snapshot under the final name.

#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "fl/comm.h"
#include "fl/federation.h"
#include "fl/metrics.h"
#include "tensor/tensor.h"
#include "util/rng.h"
#include "util/serialization.h"

namespace fedclust::fl {

inline constexpr std::uint32_t kSnapshotMagic = 0xFEDC5A42u;
inline constexpr std::uint16_t kSnapshotVersion = 1;

// Thrown for every rejected snapshot: bad magic/version, truncation, CRC
// mismatch, a missing or unwritable file, or a resume attempted against a
// different configuration.
struct SnapshotError : std::runtime_error {
  explicit SnapshotError(const std::string& what) : std::runtime_error(what) {}
};

// A named RNG stream state. Snapshots store a fixed set of derived streams
// (root, round-0 sampler, client-0 training stream); on resume they are
// recomputed from the config and must match bit for bit, which catches any
// change to the RNG algorithm or the stream-split constants.
struct RngProbe {
  std::string name;
  util::RngState state;

  bool operator==(const RngProbe&) const = default;
};

struct RunSnapshot {
  std::uint64_t config_fingerprint = 0;
  std::uint64_t seed = 0;
  // First round the resumed run executes (the snapshot was written after
  // round next_round - 1 completed, including its evaluation).
  std::uint64_t next_round = 0;
  std::string method;
  std::string dataset;
  CommLedger comm;
  std::vector<RoundRecord> records;
  // obs::MetricsRegistry counter values at capture time (empty when metrics
  // were disabled). Restored on resume so fault.* and comm.* counters
  // continue cumulatively.
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<RngProbe> rng_probes;
  // Opaque algorithm state produced by FlAlgorithm::save_state.
  std::vector<std::uint8_t> algo_state;
};

// Canonical 64-bit fingerprint over every ExperimentConfig field that
// affects the simulation trajectory. Two configs with equal fingerprints
// produce identical runs; resume refuses a snapshot whose fingerprint
// differs from the live config's.
std::uint64_t config_fingerprint(const ExperimentConfig& cfg);

// The fixed probe set for a config (pure in cfg.seed).
std::vector<RngProbe> rng_probes_for(const ExperimentConfig& cfg);

// Full file image (header + body) / its inverse. parse_snapshot throws
// SnapshotError on any malformed input and touches no global state.
std::vector<std::uint8_t> serialize_snapshot(const RunSnapshot& snap);
RunSnapshot parse_snapshot(const std::vector<std::uint8_t>& bytes);

// File I/O through util::write_file / util::read_file. write_snapshot
// replaces `path` atomically and throws SnapshotError when it cannot;
// load_snapshot throws SnapshotError when the file is missing, unreadable,
// or fails parse_snapshot's checks.
void write_snapshot(const RunSnapshot& snap, const std::string& path);
RunSnapshot load_snapshot(const std::string& path);

// "snapshot-000012.fcsnap" for next_round = 12 — zero-padded so shell
// globs sort by round.
std::string snapshot_filename(std::uint64_t next_round);

// When and where FlAlgorithm::run writes snapshots. A snapshot lands at
// boundary b (after round b-1 and its eval) when b is a multiple of
// `every`, or when b == halt_after. halt_after > 0 additionally stops the
// round loop at that boundary — the deterministic stand-in for killing the
// process, used by the kill-and-resume smoke test.
struct CheckpointPolicy {
  std::string dir;            // empty = never write snapshots
  std::size_t every = 0;      // 0 = only the halt_after boundary (if any)
  std::size_t halt_after = 0; // 0 = run to completion
};

// ---- run manifest ---------------------------------------------------
// Written once at run start, before the first round executes, into the
// checkpoint directory: the full ExperimentConfig, seed, codec, fault
// spec, build provenance (git describe + flags), and FEDCLUST_THREADS —
// everything needed to reconstruct the command that produced the
// snapshots next to it.

// `git describe --tags --always --dirty` of the checkout that built this
// binary, or "unknown" when the build ran outside a git checkout. Baked
// into snapshot.cpp only (see src/fl/CMakeLists.txt), so other TUs don't
// recompile when the commit changes.
std::string build_git_describe();

std::string manifest_json(const ExperimentConfig& cfg,
                          const std::string& method);
void write_manifest(const ExperimentConfig& cfg, const std::string& method,
                    const std::string& dir);

// ---- shared helpers for algorithm save_state/load_state -------------

void write_nested_f32(util::BinaryWriter& w,
                      const std::vector<std::vector<float>>& v);
std::vector<std::vector<float>> read_nested_f32(util::BinaryReader& r);

void write_index_vec(util::BinaryWriter& w, const std::vector<std::size_t>& v);
std::vector<std::size_t> read_index_vec(util::BinaryReader& r);

void write_tensor(util::BinaryWriter& w, const tensor::Tensor& t);
tensor::Tensor read_tensor(util::BinaryReader& r);

}  // namespace fedclust::fl
