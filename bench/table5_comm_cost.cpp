// Reproduces paper Table 5: communication cost (Mb) needed to reach a
// target accuracy under label skew 30%. Targets are re-calibrated as in
// Table 4 (fraction of best final accuracy); communication is measured by
// the simulator's CommTracker, so IFCA's K-fold downloads and LG's
// partial-layer uploads show up exactly as the paper describes.

#include <algorithm>
#include <iostream>

#include "core/registry.h"
#include "harness.h"
#include "table_common.h"
#include "util/config.h"
#include "util/table.h"

namespace fedclust::bench {
namespace {

int run(int argc, const char* const* argv) {
  util::ArgParser args("table5_comm_cost",
                       "Mb to reach target accuracy, skew 30% (Table 5)");
  args.add_option("datasets", "comma-separated dataset list",
                  "cifar10,cifar100,fmnist,svhn");
  args.add_option("target-frac",
                  "target = frac * best final accuracy per dataset", "0.9");
  if (!args.parse(argc, argv)) return 0;

  const Scale scale = get_scale();
  const auto datasets = split_csv_list(args.str("datasets"));
  const double frac = args.real("target-frac");
  const auto methods = core::all_methods();

  std::vector<std::vector<fl::Trace>> traces(methods.size());
  std::vector<double> target(datasets.size(), 0.0);
  for (std::size_t m = 0; m < methods.size(); ++m) {
    for (std::size_t d = 0; d < datasets.size(); ++d) {
      traces[m].push_back(
          run_method(methods[m], "skew30", datasets[d], scale, 1000));
      target[d] = std::max(target[d], frac * traces[m][d].final_accuracy());
    }
  }

  std::cout << "Table 5 — Mb to target accuracy (skew 30%, scale '"
            << scale.name << "')\ncells: measured Mb  [paper Mb]   (paper "
            << "targets 70/50/80/80%; ours printed in headers)\n";
  util::TablePrinter table;
  std::vector<std::string> headers = {"Method"};
  for (std::size_t d = 0; d < datasets.size(); ++d) {
    headers.push_back(datasets[d] + " @" +
                      util::fmt_float(target[d] * 100.0, 1) + "%");
  }
  table.set_headers(headers);

  for (std::size_t m = 0; m < methods.size(); ++m) {
    if (methods[m] == "Local") continue;
    std::vector<std::string> row = {methods[m]};
    for (std::size_t d = 0; d < datasets.size(); ++d) {
      const double mb = traces[m][d].mb_to_accuracy(target[d]);
      const double paper = paper_mb_to_target(methods[m], datasets[d]);
      std::string cell = mb < 0 ? "--" : util::fmt_float(mb, 2);
      cell += paper < 0 ? "  [--]" : "  [" + util::fmt_float(paper, 2) + "]";
      row.push_back(cell);
    }
    table.add_row(row);
  }
  table.print();

  // Shape summary the paper highlights: LG cheapest by design, FedClust
  // cheapest among the full-model methods, IFCA pays K-fold downloads.
  for (std::size_t d = 0; d < datasets.size(); ++d) {
    double best_mb = -1;
    std::string who = "none";
    for (std::size_t m = 0; m < methods.size(); ++m) {
      if (methods[m] == "Local" || methods[m] == "LG") continue;
      const double mb = traces[m][d].mb_to_accuracy(target[d]);
      if (mb >= 0 && (best_mb < 0 || mb < best_mb)) {
        best_mb = mb;
        who = methods[m];
      }
    }
    std::cout << datasets[d] << ": cheapest full-model method = " << who
              << " (" << util::fmt_float(best_mb, 2) << " Mb)\n";
  }
  return 0;
}

}  // namespace
}  // namespace fedclust::bench

int main(int argc, char** argv) { return fedclust::bench::run(argc, argv); }
