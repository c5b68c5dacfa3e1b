// fedclust_report — post-run attribution and regression gate. Ingests the
// artifacts a fedclust_sim run leaves behind (--journal-out JSONL, and
// optionally --metrics-out JSONL and --trace-out Chrome JSON) and emits a
// run report: per-round phase breakdown and critical path, top-K straggler
// clients, per-cluster comm/accuracy tables, and a fault summary.
//
//   $ fedclust_report --journal=run.journal.jsonl --metrics=run.metrics.jsonl \
//       --trace=run.trace.json --json-out=report.json --md-out=report.md
//
// With --compare=<baseline-report.json> the current run is diffed against
// the baseline (accuracy drop, wire-byte growth, train-time growth, each
// with a configurable tolerance) and the process exits non-zero on any
// regression — tools/tier1.sh uses this as an automated gate.

#include <iostream>

#include "obs/report.h"
#include "util/config.h"
#include "util/serialization.h"

int main(int argc, char** argv) {
  using namespace fedclust;
  try {
    util::ArgParser args(
        "fedclust_report",
        "build a run report from fedclust_sim artifacts and optionally "
        "diff it against a baseline report as a regression gate.\n"
        "Exit status: 0 = ok, 1 = usage/input error, 2 = regression "
        "detected by --compare.");
    args.add_option("journal",
                    "event-journal JSONL from fedclust_sim --journal-out "
                    "(required)",
                    "");
    args.add_option("metrics",
                    "per-round metrics JSONL from --metrics-out (optional: "
                    "adds per-round accuracy and round timings)",
                    "");
    args.add_option("trace",
                    "Chrome trace JSON from --trace-out (optional: adds "
                    "the span phase breakdown)",
                    "");
    args.add_option("json-out", "write the report JSON here (empty = skip)",
                    "");
    args.add_option("md-out",
                    "write the markdown report here (empty = print to "
                    "stdout)",
                    "");
    args.add_option("compare",
                    "baseline report JSON (from a previous --json-out) to "
                    "diff against; exits 2 on regression",
                    "");
    args.add_option("top-k", "straggler table size", "5");
    args.add_option("acc-tol",
                    "--compare: allowed absolute final-accuracy drop",
                    "0.02");
    args.add_option("bytes-tol-pct",
                    "--compare: allowed % growth of total wire bytes",
                    "10");
    args.add_option("time-tol-pct",
                    "--compare: allowed % growth of total train wall time",
                    "50");
    args.add_option("ari-min",
                    "--compare: minimum adjusted-Rand agreement between the "
                    "two runs' journaled cluster partitions (negative = no "
                    "gate; exits 2 below the minimum or when agreement "
                    "cannot be computed)",
                    "-1");
    if (!args.parse(argc, argv)) return 0;

    if (args.str("journal").empty()) {
      std::cerr << "error: --journal is required (see --help)\n";
      return 1;
    }
    const auto top_k = static_cast<std::size_t>(args.integer("top-k"));
    const auto read_if_set = [&](const std::string& flag) {
      return args.str(flag).empty() ? std::string()
                                    : util::read_file(args.str(flag));
    };
    const obs::report::RunReport report = obs::report::build_report(
        util::read_file(args.str("journal")), read_if_set("metrics"),
        read_if_set("trace"), top_k);

    if (!args.str("json-out").empty()) {
      util::write_file(args.str("json-out"), obs::report::to_json(report));
      std::cout << "report JSON written to " << args.str("json-out") << "\n";
    }
    if (!args.str("md-out").empty()) {
      util::write_file(args.str("md-out"), obs::report::to_markdown(report));
      std::cout << "report markdown written to " << args.str("md-out")
                << "\n";
    } else {
      std::cout << obs::report::to_markdown(report);
    }

    if (!args.str("compare").empty()) {
      const obs::report::RunReport baseline =
          obs::report::from_json(util::read_file(args.str("compare")));
      obs::report::CompareThresholds thresholds;
      thresholds.acc_tol = args.real("acc-tol");
      thresholds.bytes_tol_pct = args.real("bytes-tol-pct");
      thresholds.time_tol_pct = args.real("time-tol-pct");
      auto regressions = obs::report::compare(report, baseline, thresholds);

      // Clustering-agreement gate: both runs journal their full partition
      // at setup, so ARI over the common clients measures how faithfully
      // (say) a landmark-sketch run reproduced the exact partition.
      double ari = 0.0;
      const bool have_ari =
          obs::report::partition_agreement(report, baseline, &ari);
      if (have_ari) {
        std::cout << "clustering agreement (adjusted Rand) vs baseline: "
                  << ari << "\n";
      }
      const double ari_min = args.real("ari-min");
      if (ari_min >= 0.0) {
        if (!have_ari) {
          regressions.push_back(
              {"cluster_ari", 0.0, ari_min,
               "no common journaled cluster assignments to compare "
               "(--ari-min needs cluster rows in both runs)"});
        } else if (ari < ari_min) {
          regressions.push_back(
              {"cluster_ari", ari, ari_min,
               "cluster partition agreement below the --ari-min gate"});
        }
      }

      if (regressions.empty()) {
        std::cout << "compare vs " << args.str("compare")
                  << ": no regression\n";
        return 0;
      }
      for (const auto& reg : regressions) {
        std::cerr << "REGRESSION " << reg.metric << ": " << reg.detail
                  << " (current " << reg.current << ", baseline "
                  << reg.baseline << ")\n";
      }
      return 2;
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
