#pragma once

// The campaign runner shared by fedclust_sim and fedclust_server: the
// output, progress and checkpoint options, the checkpoint manifest,
// resume, the run itself, and the end-of-run report. The two binaries
// differ only in where local training runs (in process, or on workers
// behind the transport the server installs on the Federation), so the
// lines the benchmark and the smokes parse are printed once, here.

#include <cstdio>
#include <filesystem>
#include <iostream>
#include <string>

#include "experiment_flags.h"
#include "fl/algorithm.h"
#include "fl/snapshot.h"
#include "util/logging.h"
#include "util/mem.h"
#include "util/signal.h"
#include "util/table.h"
#include "util/timer.h"

namespace fedclust::tools {

// The options run_campaign reads.
inline void add_campaign_options(util::ArgParser& args) {
  args.add_option("out", "trace CSV path (empty = don't write)", "");
  args.add_option("progress", "per-round INFO progress lines (1|0)", "1");
  args.add_option("checkpoint-out",
                  "directory for run snapshots + manifest.json (created "
                  "if missing; empty = checkpointing off)",
                  "");
  args.add_option("checkpoint-every",
                  "write a snapshot every N round boundaries (0 = only "
                  "the --halt-after boundary)",
                  "0");
  args.add_option("halt-after",
                  "stop after writing the round-K boundary snapshot — a "
                  "deterministic stand-in for killing the process (0 = "
                  "run to completion)",
                  "0");
  args.add_option("resume",
                  "snapshot file to resume from; the other flags must "
                  "reproduce the config that wrote it (see the "
                  "checkpoint directory's manifest.json)",
                  "");
}

// Runs `algo` over `fed` as one campaign: writes the checkpoint manifest,
// resumes from --resume, runs every round, then prints the summary line
// (`summary_suffix` follows the dataset/partition, e.g. " over socket"),
// the wire, SIMD, memory and state-digest lines, writes the trace CSV and
// the observability outputs. Returns the run's wall-clock seconds.
inline double run_campaign(const util::ArgParser& args, fl::Federation& fed,
                           fl::FlAlgorithm& algo,
                           const std::string& summary_suffix) {
  const fl::ExperimentConfig& cfg = fed.cfg();
  fl::CheckpointPolicy ckpt;
  ckpt.dir = args.str("checkpoint-out");
  ckpt.every = static_cast<std::size_t>(args.integer("checkpoint-every"));
  ckpt.halt_after = static_cast<std::size_t>(args.integer("halt-after"));
  if (!ckpt.dir.empty()) {
    std::filesystem::create_directories(ckpt.dir);
    // Manifest before the first round (docs/INVARIANTS.md "Snapshot"):
    // whatever happens to the run, the directory documents what produced
    // the snapshots next to it.
    fl::write_manifest(cfg, algo.name(), ckpt.dir);
    std::cout << "manifest written to " << ckpt.dir << "/manifest.json\n";
  }
  algo.set_checkpoint_policy(ckpt);
  if (!args.str("resume").empty()) {
    const fl::RunSnapshot snap = fl::load_snapshot(args.str("resume"));
    algo.resume_from(snap);
    std::cout << "resuming " << snap.method << " from round "
              << snap.next_round << " (" << args.str("resume") << ")\n";
  }
  if (args.integer("progress") != 0) {
    algo.set_round_observer([](const fl::RoundRecord& rec,
                               double round_seconds) {
      FC_LOG_INFO << "round " << rec.round << " acc="
                  << util::fmt_float(rec.avg_local_test_acc * 100.0, 2)
                  << "% clusters=" << rec.n_clusters << " comm="
                  << util::fmt_float(
                         static_cast<double>(rec.bytes_up + rec.bytes_down) *
                             8.0 / 1e6,
                         2)
                  << "Mb " << util::fmt_float(round_seconds, 3) << "s";
    });
  }
  util::Stopwatch sw;
  const fl::Trace trace = algo.run();
  const double run_seconds = sw.seconds();

  std::cout << args.str("method") << " on " << args.str("dataset") << "/"
            << args.str("partition") << summary_suffix << ": final acc "
            << util::fmt_float(trace.final_accuracy() * 100.0, 2)
            << "%, clusters " << trace.final_clusters() << ", comm "
            << util::fmt_float(trace.total_mb(), 2) << " Mb, "
            << util::fmt_float(run_seconds, 1) << " s\n";
  const fl::CommTracker& comm = fed.comm();
  std::cout << "wire codec " << fl::wire::codec_name(cfg.codec)
            << ": payload " << comm.payload_bytes() << " B, wire "
            << comm.wire_bytes() << " B (" << comm.messages()
            << " messages, compression "
            << util::fmt_float(comm.compression_ratio(), 2) << "x)\n";
  std::cout << "simd kernels: isa=" << util::isa_name(util::active_isa())
            << " fast_math=" << (util::fast_math_kernels() ? "on" : "off")
            << "\n";
  const fl::ClientStore::CacheStats stats = fed.store_stats();
  std::cout << "peak rss " << util::peak_rss_kb() << " KiB (client store: "
            << stats.hits << " hits, " << stats.misses << " misses, "
            << stats.evictions << " evictions)\n";
  // Digest of the algorithm's full serialized state (all model parameters
  // included): two runs print the same line iff they ended in
  // bit-identical state — what the kill-and-resume smokes compare.
  char digest[16];
  std::snprintf(digest, sizeof(digest), "%08X", algo.state_crc32c());
  std::cout << "state crc32c=" << digest << "\n";
  if (!args.str("out").empty()) {
    trace.save_csv(args.str("out"));
    std::cout << "trace written to " << args.str("out") << "\n";
  }
  finish_observability(args, std::cout);
  if (util::shutdown_requested()) {
    std::cout << "interrupted: stopped at a round boundary, state "
              << "flushed\n";
  }
  return run_seconds;
}

}  // namespace fedclust::tools
