#pragma once

// Process memory telemetry.

#include <cstdint>

namespace fedclust::util {

// High-water-mark resident set size of this process in KiB (getrusage
// ru_maxrss on Linux/macOS, normalized to KiB). Returns 0 where the query
// is unavailable. Monotone over the process lifetime — the OS never lowers
// the mark — so scale tests assert against the final value.
std::uint64_t peak_rss_kb();

// Minor page faults this process has taken so far (getrusage ru_minflt):
// pages it touched that needed no disk read, such as fresh heap pages and
// heap the allocator trimmed and faulted back in. Returns 0 where the
// query is unavailable.
std::uint64_t minor_faults();

}  // namespace fedclust::util
