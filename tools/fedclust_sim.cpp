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

#include <iostream>

#include "campaign.h"
#include "core/registry.h"
#include "experiment_flags.h"
#include "util/signal.h"

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
    tools::add_campaign_options(args);
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
    tools::run_campaign(args, fed, *algo, "");
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
