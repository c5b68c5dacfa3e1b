#include "util/mem.h"

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

namespace fedclust::util {

std::uint64_t peak_rss_kb() {
#if defined(__unix__) || defined(__APPLE__)
  struct rusage ru;
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0;
#if defined(__APPLE__)
  // macOS reports ru_maxrss in bytes.
  return static_cast<std::uint64_t>(ru.ru_maxrss) / 1024;
#else
  // Linux reports KiB.
  return static_cast<std::uint64_t>(ru.ru_maxrss);
#endif
#else
  return 0;
#endif
}

std::uint64_t minor_faults() {
#if defined(__unix__) || defined(__APPLE__)
  struct rusage ru;
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0;
  return static_cast<std::uint64_t>(ru.ru_minflt);
#else
  return 0;
#endif
}

}  // namespace fedclust::util
