#pragma once

// Name-based construction of every FL method in the comparison — the entry
// point the benches and examples use to run the paper's method grid.

#include <memory>
#include <string>
#include <vector>

#include "fl/algorithm.h"

namespace fedclust::core {

// Methods in the paper's table order.
std::vector<std::string> all_methods();

// Extension baselines implemented beyond the paper's comparison grid
// (all discussed in its related-work section): SCAFFOLD, FedDyn, Ditto,
// and FLIS (the proxy-data clustering approach the paper criticizes).
std::vector<std::string> extra_methods();

// Every name make_algorithm accepts (all_methods(), then extra_methods()),
// joined by `sep`.
std::string method_names(const std::string& sep);

// Throws std::invalid_argument, listing the valid names, for unknown names.
// The returned algorithm borrows `fed` and must not outlive it.
std::unique_ptr<fl::FlAlgorithm> make_algorithm(const std::string& name,
                                                fl::Federation& fed);

}  // namespace fedclust::core
