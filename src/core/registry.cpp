#include "core/registry.h"

#include <stdexcept>

#include "core/fedclust.h"
#include "fl/cfl.h"
#include "fl/ditto.h"
#include "fl/fedavg.h"
#include "fl/flis.h"
#include "fl/feddyn.h"
#include "fl/fednova.h"
#include "fl/fedopt.h"
#include "fl/ifca.h"
#include "fl/lg_fedavg.h"
#include "fl/local_only.h"
#include "fl/pacfl.h"
#include "fl/perfedavg.h"
#include "fl/scaffold.h"

namespace fedclust::core {

std::vector<std::string> all_methods() {
  return {"Local",     "FedAvg", "FedProx", "FedNova", "LG",
          "PerFedAvg", "CFL",    "IFCA",    "PACFL",   "FedClust"};
}

std::vector<std::string> extra_methods() {
  return {"SCAFFOLD", "FedDyn", "Ditto", "FLIS", "FedAvgM", "FedAdam"};
}

std::string method_names(const std::string& sep) {
  std::string out;
  for (const auto& list : {all_methods(), extra_methods()}) {
    for (const std::string& m : list) out += (out.empty() ? "" : sep) + m;
  }
  return out;
}

std::unique_ptr<fl::FlAlgorithm> make_algorithm(const std::string& name,
                                                fl::Federation& fed) {
  if (name == "Local") return std::make_unique<fl::LocalOnly>(fed);
  if (name == "FedAvg") return std::make_unique<fl::FedAvg>(fed);
  if (name == "FedProx") {
    return std::make_unique<fl::FedAvg>(fed, fed.cfg().algo.prox_mu);
  }
  if (name == "FedNova") return std::make_unique<fl::FedNova>(fed);
  if (name == "LG") return std::make_unique<fl::LgFedAvg>(fed);
  if (name == "PerFedAvg") return std::make_unique<fl::PerFedAvg>(fed);
  if (name == "CFL") return std::make_unique<fl::Cfl>(fed);
  if (name == "IFCA") return std::make_unique<fl::Ifca>(fed);
  if (name == "PACFL") return std::make_unique<fl::Pacfl>(fed);
  if (name == "FedClust") return std::make_unique<FedClust>(fed);
  if (name == "SCAFFOLD") return std::make_unique<fl::Scaffold>(fed);
  if (name == "FedDyn") return std::make_unique<fl::FedDyn>(fed);
  if (name == "Ditto") return std::make_unique<fl::Ditto>(fed);
  if (name == "FLIS") return std::make_unique<fl::Flis>(fed);
  if (name == "FedAvgM") {
    return std::make_unique<fl::FedOpt>(fed, fl::FedOptOptions{});
  }
  if (name == "FedAdam") {
    fl::FedOptOptions opts;
    opts.server_opt = "adam";
    opts.server_lr = 0.01f;
    return std::make_unique<fl::FedOpt>(fed, opts);
  }
  throw std::invalid_argument("make_algorithm: unknown method " + name +
                              " (one of " + method_names(", ") + ")");
}

}  // namespace fedclust::core
