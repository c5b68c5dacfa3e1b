// fedclust_sim — general-purpose CLI for the simulator: run any method
// (including the extension baselines) on any dataset/partition and write
// the per-round trace to CSV.
//
//   $ fedclust_sim --method=FedClust --dataset=cifar10 --rounds=40 \
//       --partition=skew --skew=0.2 --clients=40 --out=trace.csv
//
// SIGINT/SIGTERM are handled gracefully: the run stops at the next round
// boundary, writes a final checkpoint when --checkpoint-out is set, flushes
// every open trace/metrics/journal sink, and exits 0.

#include <cstdio>
#include <filesystem>
#include <iostream>

#include <fstream>

#include "core/registry.h"
#include "experiment_flags.h"
#include "fl/snapshot.h"
#include "util/logging.h"
#include "util/mem.h"
#include "util/signal.h"
#include "util/table.h"
#include "util/timer.h"

int main(int argc, char** argv) {
  using namespace fedclust;
  try {
    util::ArgParser args(
        "fedclust_sim",
        "run one FL experiment and dump its trace.\n"
        "Environment: FEDCLUST_LOG_LEVEL=trace|debug|info|warn|error|off "
        "sets log verbosity (default info; per-round progress lines are "
        "INFO). FEDCLUST_THREADS sets the worker-pool size (results are "
        "bit-identical at any value). FEDCLUST_ISA=scalar|avx2|avx512|neon "
        "pins the SIMD kernel dispatch (default: best supported; results "
        "are bit-identical at any value). FEDCLUST_TRACE / FEDCLUST_METRICS "
        "provide default paths for --trace-out / --metrics-out.");
    tools::add_experiment_options(args);
    tools::add_obs_options(args);
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
    args.add_option("bench-out",
                    "write a small JSON throughput record (rounds/s, peak "
                    "RSS, git describe) to this path after the run (empty "
                    "= off)",
                    "");
    if (!args.parse(argc, argv)) return 0;

    util::install_shutdown_handler();
    tools::setup_observability(args);

    fl::ExperimentConfig cfg = tools::build_experiment_config(args);
    if (!args.str("journal-out").empty()) {
      obs::EventJournal::instance().set_codec_name(
          fl::wire::codec_name(cfg.codec));
    }

    fl::Federation fed(cfg);
    const auto algo = core::make_algorithm(args.str("method"), fed);

    fl::CheckpointPolicy ckpt;
    ckpt.dir = args.str("checkpoint-out");
    ckpt.every = static_cast<std::size_t>(args.integer("checkpoint-every"));
    ckpt.halt_after =
        static_cast<std::size_t>(args.integer("halt-after"));
    if (!ckpt.dir.empty()) {
      std::filesystem::create_directories(ckpt.dir);
      // Manifest before the first round (docs/INVARIANTS.md "Snapshot"):
      // whatever happens to the run, the directory documents what produced
      // the snapshots next to it.
      fl::write_manifest(cfg, algo->name(), ckpt.dir);
      std::cout << "manifest written to " << ckpt.dir << "/manifest.json\n";
    }
    algo->set_checkpoint_policy(ckpt);
    if (!args.str("resume").empty()) {
      const fl::RunSnapshot snap = fl::load_snapshot(args.str("resume"));
      algo->resume_from(snap);
      std::cout << "resuming " << snap.method << " from round "
                << snap.next_round << " (" << args.str("resume") << ")\n";
    }
    if (args.integer("progress") != 0) {
      algo->set_round_observer([](const fl::RoundRecord& rec,
                                  double round_seconds) {
        FC_LOG_INFO << "round " << rec.round << " acc="
                    << util::fmt_float(rec.avg_local_test_acc * 100.0, 2)
                    << "% clusters=" << rec.n_clusters << " comm="
                    << util::fmt_float(
                           static_cast<double>(rec.bytes_up +
                                               rec.bytes_down) *
                               8.0 / 1e6,
                           2)
                    << "Mb " << util::fmt_float(round_seconds, 3) << "s";
      });
    }
    util::Stopwatch sw;
    const fl::Trace trace = algo->run();
    const double run_seconds = sw.seconds();

    std::cout << args.str("method") << " on " << args.str("dataset") << "/"
              << args.str("partition") << ": final acc "
              << util::fmt_float(trace.final_accuracy() * 100.0, 2)
              << "%, clusters " << trace.final_clusters() << ", comm "
              << util::fmt_float(trace.total_mb(), 2) << " Mb, "
              << util::fmt_float(sw.seconds(), 1) << " s\n";
    {
      const fl::CommTracker& comm = fed.comm();
      std::cout << "wire codec " << fl::wire::codec_name(comm.codec())
                << ": payload " << comm.payload_bytes() << " B, wire "
                << comm.wire_bytes() << " B ("
                << comm.messages() << " messages, compression "
                << util::fmt_float(comm.compression_ratio(), 2) << "x)\n";
    }
    std::cout << "simd kernels: isa=" << util::isa_name(util::active_isa())
              << " fast_math="
              << (util::fast_math_kernels() ? "on" : "off") << "\n";
    {
      const fl::ClientStore::CacheStats stats = fed.store_stats();
      std::cout << "peak rss " << util::peak_rss_kb()
                << " KiB (client store: " << stats.hits << " hits, "
                << stats.misses << " misses, " << stats.evictions
                << " evictions)\n";
    }
    {
      // Digest of the algorithm's full serialized state (all model
      // parameters included): two runs print the same line iff they ended
      // in bit-identical state — what the kill-and-resume smoke compares.
      char digest[16];
      std::snprintf(digest, sizeof(digest), "%08X", algo->state_crc32c());
      std::cout << "state crc32c=" << digest << "\n";
    }
    if (!args.str("out").empty()) {
      trace.save_csv(args.str("out"));
      std::cout << "trace written to " << args.str("out") << "\n";
    }
    if (!args.str("bench-out").empty()) {
      std::ofstream os(args.str("bench-out"));
      if (!os) {
        throw std::runtime_error("cannot write " + args.str("bench-out"));
      }
      os.precision(6);
      os << "{\n"
         << "  \"method\": \"" << args.str("method") << "\",\n"
         << "  \"clients\": " << cfg.fed.n_clients << ",\n"
         << "  \"rounds\": " << cfg.rounds << ",\n"
         << "  \"seconds\": " << run_seconds << ",\n"
         << "  \"rounds_per_s\": "
         << (run_seconds > 0.0 ? static_cast<double>(cfg.rounds) / run_seconds
                               : 0.0)
         << ",\n"
         << "  \"peak_rss_kb\": " << util::peak_rss_kb() << ",\n"
         << "  \"virtual_clients\": "
         << (cfg.virtual_clients ? "true" : "false") << ",\n"
         << "  \"git_describe\": \"" << fl::build_git_describe() << "\"\n"
         << "}\n";
      std::cout << "bench record written to " << args.str("bench-out")
                << "\n";
    }
    tools::finish_observability(args, std::cout);
    if (util::shutdown_requested()) {
      std::cout << "interrupted: stopped at a round boundary, state "
                << "flushed\n";
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
