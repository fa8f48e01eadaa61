#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "host_trace.h"

/// \file workloads.h
/// The benchmark's three workloads. A workload is built from the seed
/// (generated data, reference answers); a repetition then sets the
/// simulation up from scratch and drives a fixed amount of simulated work.

namespace hostbench {

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  /// Install the forwarding wrappers and record host-time scopes.
  bool traced = false;
  /// serving only: attach the simulator's own tracer and metrics registry.
  bool obs = true;
};

struct RepResult {
  double setup_s = 0;   ///< Host seconds from construction to the first
                        ///< simulated operation.
  double wall_s = 0;    ///< Host seconds of the timed phase.
  double sim_s = 0;     ///< Simulated seconds of the timed phase.
  double slice_s = 0;   ///< Simulated seconds per slice.
  /// Host milliseconds per simulated second of each fixed simulated slice.
  std::vector<double> slices;
  int64_t attempted = 0;  ///< Queries (serving) or storage requests.
  int64_t failed = 0;     ///< Modelled failures plus failed output checks.
  std::vector<std::string> errors;  ///< One line per failed output check.
  uint64_t digest = 0;  ///< Over every simulated output of the repetition.
  /// serving, traced runs: per-query simulated invoke and completion times.
  uint64_t latency_digest = 0;
  int64_t events = 0;
  uint64_t allocs = 0;  ///< Allocations during the timed phase.
  /// Per-layer counts of this repetition (traced runs fill the wrapper
  /// counts; simulator counters are always filled).
  std::map<std::string, double> counts;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// `trace` is non-null exactly when the run is traced.
  virtual RepResult RunRep(HostTrace* trace) = 0;
};

/// nullptr for an unknown workload name.
std::unique_ptr<Workload> MakeWorkload(const RunConfig& config);

}  // namespace hostbench
