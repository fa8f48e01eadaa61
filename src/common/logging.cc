#include "common/logging.h"

#include <cstdio>

namespace skyrise {

namespace {
// Diagnostics-only: the log threshold gates stderr output and is never read
// by simulation logic, so it cannot perturb replay of any run.
// skyrise-check: allow(shared-mutable-state)
LogLevel g_level = LogLevel::kWarning;

const char* LevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "DEBUG";
    case LogLevel::kInfo:
      return "INFO";
    case LogLevel::kWarning:
      return "WARN";
    case LogLevel::kError:
      return "ERROR";
  }
  return "?";
}
}  // namespace

void SetLogLevel(LogLevel level) { g_level = level; }
LogLevel GetLogLevel() { return g_level; }

namespace internal {

LogMessage::LogMessage(LogLevel level, const char* file, int line)
    : level_(level) {
  const char* base = file;
  for (const char* p = file; *p; ++p) {
    if (*p == '/') base = p + 1;
  }
  stream_ << "[" << LevelName(level) << " " << base << ":" << line << "] ";
}

LogMessage::~LogMessage() {
  std::fprintf(stderr, "%s\n", stream_.str().c_str());
}

}  // namespace internal

}  // namespace skyrise
