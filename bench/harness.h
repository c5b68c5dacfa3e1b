#pragma once

// Shared experiment harness for the paper-reproduction benches.
//
// Scale control: FEDCLUST_BENCH_SCALE=quick (default) or full. Quick runs
// a reduced federation sized for a single CPU core; full approaches the
// paper's population/round counts (see DESIGN.md §1 for why reduced scale
// preserves the comparison's shape). Every campaign runs afresh: benches
// that share one (Table 1, Fig. 3 and Table 4 all use the skew-20% runs)
// each rerun it, so no bench can print a trace an older build produced.

#include <string>
#include <vector>

#include "fl/federation.h"
#include "fl/metrics.h"

namespace fedclust::bench {

struct Scale {
  std::string name = "quick";
  std::size_t n_clients = 40;
  std::size_t train_per_client = 10;
  std::size_t test_per_client = 10;
  std::size_t rounds = 40;
  double sample_fraction = 0.1;
  std::size_t local_epochs = 2;
  std::size_t batch_size = 10;
  std::size_t seeds = 2;  // independent repetitions per cell
  std::size_t image_hw = 16;
};

// Reads FEDCLUST_BENCH_SCALE (quick|full) and optional overrides
// FEDCLUST_BENCH_ROUNDS / FEDCLUST_BENCH_SEEDS / FEDCLUST_BENCH_CLIENTS.
Scale get_scale();

// settings: "skew20", "skew30", "dir01".
fl::ExperimentConfig make_config(const std::string& dataset,
                                 const std::string& setting,
                                 const Scale& scale, std::uint64_t seed);

// Runs one (method, config) experiment.
fl::Trace run_method(const std::string& method, const std::string& setting,
                     const std::string& dataset, const Scale& scale,
                     std::uint64_t seed);

struct CellResult {
  double mean_acc = 0.0;  // percent, matching the paper's tables
  double std_acc = 0.0;
  std::vector<fl::Trace> traces;
};

// Multi-seed run of one table cell.
CellResult run_cell(const std::string& method, const std::string& setting,
                    const std::string& dataset, const Scale& scale);

// Paper-reported accuracy (percent) for Tables 1/2/3; negative when the
// paper prints no value.
double paper_accuracy(const std::string& setting, const std::string& method,
                      const std::string& dataset);
// Paper-reported rounds-to-target (Table 4) / Mb-to-target (Table 5);
// negative = "--" (target never reached).
double paper_rounds_to_target(const std::string& method,
                              const std::string& dataset);
double paper_mb_to_target(const std::string& method,
                          const std::string& dataset);
// Paper Table 6 (newcomer accuracy); negative when the method has no row.
double paper_newcomer_accuracy(const std::string& method,
                               const std::string& dataset);

// The paper's accuracy targets (percent) for Table 4 (skew20
// rounds-to-target) and Table 5 (skew30 Mb-to-target). At reduced scale
// the benches re-calibrate the actual target as a fraction of the best
// final accuracy in the campaign and print both (see EXPERIMENTS.md).
double paper_target_table4(const std::string& dataset);
double paper_target_table5(const std::string& dataset);

}  // namespace fedclust::bench
