#include "fl/metrics.h"

#include "util/serialization.h"
#include "util/table.h"

namespace fedclust::fl {

namespace {

double mb(std::uint64_t bytes) { return static_cast<double>(bytes) * 8.0 / 1e6; }

}  // namespace

double Trace::final_accuracy() const {
  return records.empty() ? 0.0 : records.back().avg_local_test_acc;
}

int Trace::rounds_to_accuracy(double target) const {
  for (const auto& r : records) {
    if (r.avg_local_test_acc >= target) {
      return static_cast<int>(r.round) + 1;
    }
  }
  return -1;
}

double Trace::mb_to_accuracy(double target) const {
  for (const auto& r : records) {
    if (r.avg_local_test_acc >= target) {
      return mb(r.bytes_up + r.bytes_down);
    }
  }
  return -1.0;
}

double Trace::total_mb() const {
  return records.empty()
             ? 0.0
             : mb(records.back().bytes_up + records.back().bytes_down);
}

std::size_t Trace::final_clusters() const {
  return records.empty() ? 1 : records.back().n_clusters;
}

void Trace::save_csv(const std::string& path) const {
  // Cells are registry method names, dataset names and numbers, so none
  // needs CSV quoting.
  std::string csv = "method,dataset,round,acc,mb_up,mb_down,clusters\n";
  for (const auto& r : records) {
    csv += method + ',' + dataset + ',' + std::to_string(r.round) + ',' +
           util::fmt_float(r.avg_local_test_acc, 6) + ',' +
           util::fmt_float(mb(r.bytes_up), 4) + ',' +
           util::fmt_float(mb(r.bytes_down), 4) + ',' +
           std::to_string(r.n_clusters) + '\n';
  }
  util::write_file(path, csv);
}

}  // namespace fedclust::fl
