#pragma once

// Steady-clock stopwatch and the process-wide monotonic epoch.

#include <chrono>
#include <cstdint>

namespace fedclust::util {

// Single steady-clock origin shared by every timestamp the process emits:
// log-line prefixes (util/logging) and trace-span timestamps (obs) both
// measure from here, so a "[  12.345 INFO ]" line and a span at ts=12345000
// refer to the same instant. Inline-function static, so every translation
// unit and static library in the binary shares one epoch.
inline std::chrono::steady_clock::time_point process_epoch() {
  static const std::chrono::steady_clock::time_point t0 =
      std::chrono::steady_clock::now();
  return t0;
}

// Sets the epoch during static initialization, before main, in every
// binary that can read it: otherwise whichever log line or span came first
// would set it, and a campaign's set-up would vanish from the timestamps.
inline const std::chrono::steady_clock::time_point kProcessEpochAtStart =
    process_epoch();

inline double process_elapsed_seconds() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       process_epoch())
      .count();
}

inline std::int64_t process_elapsed_micros() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - process_epoch())
      .count();
}

class Stopwatch {
 public:
  Stopwatch() : start_(clock::now()) {}

  void reset() { start_ = clock::now(); }

  double seconds() const {
    return std::chrono::duration<double>(clock::now() - start_).count();
  }

 private:
  using clock = std::chrono::steady_clock;
  clock::time_point start_;
};

}  // namespace fedclust::util
