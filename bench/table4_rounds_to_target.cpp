// Reproduces paper Table 4: communication rounds needed to reach a target
// average local test accuracy under label skew 20%.
//
// The paper's absolute targets (80/50/75/75%) belong to its full-scale
// datasets; at reduced scale we target 90% of the best final accuracy
// observed across methods per dataset (printed alongside), which preserves
// what the table shows: which methods reach a demanding bar, and in how
// many rounds. "--" means the bar was never reached, exactly as in the
// paper.

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
  util::ArgParser args("table4_rounds_to_target",
                       "rounds to reach target accuracy, skew 20% (Table 4)");
  args.add_option("datasets", "comma-separated dataset list",
                  "cifar10,cifar100,fmnist,svhn");
  args.add_option("target-frac",
                  "target = frac * best final accuracy per dataset", "0.9");
  if (!args.parse(argc, argv)) return 0;

  const Scale scale = get_scale();
  const auto datasets = split_csv_list(args.str("datasets"));
  const double frac = args.real("target-frac");
  const auto methods = core::all_methods();

  // Gather traces and per-dataset targets.
  std::vector<std::vector<fl::Trace>> traces(methods.size());
  std::vector<double> target(datasets.size(), 0.0);
  for (std::size_t m = 0; m < methods.size(); ++m) {
    for (std::size_t d = 0; d < datasets.size(); ++d) {
      traces[m].push_back(
          run_method(methods[m], "skew20", datasets[d], scale, 1000));
      target[d] = std::max(target[d], frac * traces[m][d].final_accuracy());
    }
  }

  std::cout << "Table 4 — rounds to target accuracy (skew 20%, scale '"
            << scale.name << "')\ncells: measured  [paper]   (paper targets "
            << "80/50/75/75%; ours printed below)\n";
  util::TablePrinter table;
  std::vector<std::string> headers = {"Method"};
  for (std::size_t d = 0; d < datasets.size(); ++d) {
    headers.push_back(datasets[d] + " @" +
                      util::fmt_float(target[d] * 100.0, 1) + "%");
  }
  table.set_headers(headers);

  for (std::size_t m = 0; m < methods.size(); ++m) {
    if (methods[m] == "Local") continue;  // the paper's table has no Local row
    std::vector<std::string> row = {methods[m]};
    for (std::size_t d = 0; d < datasets.size(); ++d) {
      const int rounds = traces[m][d].rounds_to_accuracy(target[d]);
      const double paper = paper_rounds_to_target(methods[m], datasets[d]);
      std::string cell = rounds < 0 ? "--" : std::to_string(rounds);
      cell += paper < 0 ? "  [--]" : "  [" + util::fmt_float(paper, 0) + "]";
      row.push_back(cell);
    }
    table.add_row(row);
  }
  table.print();

  // Shape check: FedClust needs the fewest rounds wherever it reaches the
  // bar (it defines the bar on most datasets).
  for (std::size_t d = 0; d < datasets.size(); ++d) {
    int best = -1;
    std::string who = "none";
    for (std::size_t m = 0; m < methods.size(); ++m) {
      if (methods[m] == "Local") continue;
      const int r = traces[m][d].rounds_to_accuracy(target[d]);
      if (r >= 0 && (best < 0 || r < best)) {
        best = r;
        who = methods[m];
      }
    }
    std::cout << datasets[d] << ": fastest to target = " << who << " ("
              << best << " rounds)\n";
  }
  return 0;
}

}  // namespace
}  // namespace fedclust::bench

int main(int argc, char** argv) { return fedclust::bench::run(argc, argv); }
