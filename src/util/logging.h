#pragma once

// Minimal leveled logging. The level is read once from FEDCLUST_LOG_LEVEL
// (trace|debug|info|warn|error, default info). Usage:
//
//   FC_LOG_INFO << "round " << r << " acc=" << acc;
//
// Disabled levels cost one branch; the stream expression is never evaluated.

#include <sstream>
#include <string>

namespace fedclust::util {

enum class LogLevel { kTrace = 0, kDebug, kInfo, kWarn, kError, kOff };

LogLevel log_level();
bool log_enabled(LogLevel level);

// Accumulates one log line and emits it (with level tag and elapsed time)
// on destruction.
class LogLine {
 public:
  explicit LogLine(LogLevel level);
  ~LogLine();

  LogLine(const LogLine&) = delete;
  LogLine& operator=(const LogLine&) = delete;

  template <typename T>
  LogLine& operator<<(const T& value) {
    os_ << value;
    return *this;
  }

 private:
  LogLevel level_;
  std::ostringstream os_;
};

}  // namespace fedclust::util

#define FC_LOG(level)                             \
  if (!fedclust::util::log_enabled(level)) {      \
  } else                                          \
    fedclust::util::LogLine(level)

#define FC_LOG_TRACE FC_LOG(fedclust::util::LogLevel::kTrace)
#define FC_LOG_DEBUG FC_LOG(fedclust::util::LogLevel::kDebug)
#define FC_LOG_INFO FC_LOG(fedclust::util::LogLevel::kInfo)
#define FC_LOG_WARN FC_LOG(fedclust::util::LogLevel::kWarn)
#define FC_LOG_ERROR FC_LOG(fedclust::util::LogLevel::kError)
