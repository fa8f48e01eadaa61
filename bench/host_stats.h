#pragma once

/// \file host_stats.h
/// Host-side measurements shared by the benches: what a run costs on the
/// machine that runs it, as opposed to the simulated results it produces.
/// These numbers vary by machine and by run, so they never feed back into
/// simulation state; benches report them apart from their simulated fields.

#include <sys/resource.h>

#include <cstdint>

namespace skyrise::bench {

/// Peak resident set size of this process so far, in bytes; 0 if unknown.
inline int64_t PeakRssBytes() {
  struct rusage usage;
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  return static_cast<int64_t>(usage.ru_maxrss) * 1024;  // Linux: KiB.
}

}  // namespace skyrise::bench
