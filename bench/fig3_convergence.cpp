// Reproduces paper Fig. 3: test accuracy versus communication rounds under
// label skew 20%. Reuses (or produces) the Table-1 campaign traces and
// prints the per-round series for every method, plus the convergence-order
// summary the figure is cited for (FedClust converges fastest; PACFL/IFCA
// are the closest competitors; CFL is weakest).

#include <iostream>

#include "core/registry.h"
#include "harness.h"
#include "table_common.h"
#include "util/config.h"
#include "util/table.h"

namespace fedclust::bench {
namespace {

int run(int argc, const char* const* argv) {
  util::ArgParser args("fig3_convergence",
                       "accuracy vs rounds, label skew 20% (paper Fig. 3)");
  args.add_option("datasets", "comma-separated dataset list",
                  "cifar10,cifar100,fmnist,svhn");
  args.add_option("stride", "print every k-th round", "4");
  if (!args.parse(argc, argv)) return 0;

  const Scale scale = get_scale();
  const auto datasets = split_csv_list(args.str("datasets"));
  const auto stride =
      static_cast<std::size_t>(std::max<std::int64_t>(1, args.integer("stride")));
  const auto methods = core::all_methods();

  for (const auto& dataset : datasets) {
    std::cout << "\nFig. 3 — " << dataset << " (skew 20%, scale '"
              << scale.name << "', seed 0 trace; accuracy %)\n";
    std::vector<fl::Trace> traces;
    for (const auto& m : methods) {
      traces.push_back(run_method(m, "skew20", dataset, scale, 1000));
    }

    util::TablePrinter table;
    std::vector<std::string> headers = {"Round"};
    for (const auto& m : methods) headers.push_back(m);
    table.set_headers(headers);
    const std::size_t rounds = traces.front().records.size();
    for (std::size_t r = 0; r < rounds; r += stride) {
      std::vector<std::string> row = {
          std::to_string(traces.front().records[r].round + 1)};
      for (const auto& t : traces) {
        row.push_back(util::fmt_float(
            t.records[r].avg_local_test_acc * 100.0, 1));
      }
      table.add_row(row);
    }
    table.print();

    // Convergence summary: rounds each method needs to reach 95% of its own
    // final accuracy (a scale-free "who converges fastest" measure).
    std::cout << "rounds to reach 95% of own final accuracy:";
    for (std::size_t i = 0; i < methods.size(); ++i) {
      const double target = 0.95 * traces[i].final_accuracy();
      std::cout << "  " << methods[i] << "="
                << traces[i].rounds_to_accuracy(target);
    }
    std::cout << "\n";
  }
  return 0;
}

}  // namespace
}  // namespace fedclust::bench

int main(int argc, char** argv) { return fedclust::bench::run(argc, argv); }
