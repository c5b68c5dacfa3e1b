#include "util/logging.h"

#include <atomic>
#include <cstdio>
#include <mutex>

#include "util/config.h"
#include "util/timer.h"

namespace fedclust::util {

namespace {

LogLevel parse_level(const std::string& s) {
  if (s == "trace") return LogLevel::kTrace;
  if (s == "debug") return LogLevel::kDebug;
  if (s == "info") return LogLevel::kInfo;
  if (s == "warn") return LogLevel::kWarn;
  if (s == "error") return LogLevel::kError;
  if (s == "off") return LogLevel::kOff;
  return LogLevel::kInfo;
}

std::atomic<LogLevel> g_level{
    parse_level(env_string("FEDCLUST_LOG_LEVEL", "info"))};

const char* level_tag(LogLevel level) {
  switch (level) {
    case LogLevel::kTrace:
      return "TRACE";
    case LogLevel::kDebug:
      return "DEBUG";
    case LogLevel::kInfo:
      return "INFO ";
    case LogLevel::kWarn:
      return "WARN ";
    case LogLevel::kError:
      return "ERROR";
    default:
      return "?????";
  }
}

std::mutex& output_mutex() {
  static std::mutex mu;
  return mu;
}

}  // namespace

LogLevel log_level() { return g_level.load(std::memory_order_relaxed); }

bool log_enabled(LogLevel level) { return level >= log_level(); }

LogLine::LogLine(LogLevel level) : level_(level) {}

LogLine::~LogLine() {
  const std::lock_guard<std::mutex> lock(output_mutex());
  std::fprintf(stderr, "[%8.3f %s] %s\n", process_elapsed_seconds(),
               level_tag(level_), os_.str().c_str());
}

}  // namespace fedclust::util
