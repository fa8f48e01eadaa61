#pragma once

#include <memory>
#include <vector>

#include "common/histogram.h"
#include "net/fabric_driver.h"
#include "net/instance_specs.h"
#include "sim/environment.h"
#include "storage/storage_service.h"

/// \file storage_io.h
/// The framework's Storage I/O measurement function (Table 3): closed-loop
/// clients (VMs or Lambda instances) with a fixed thread count issue fixed-
/// size read or write requests against a storage service for a fixed
/// duration, reporting throughput, IOPS, latency distribution, and error
/// rates, optionally sampled over time.

namespace skyrise::platform {

struct StorageIoConfig {
  int clients = 1;
  int threads_per_client = 32;
  int64_t request_bytes = kKiB;
  bool write = false;
  SimDuration duration = Seconds(30);
  /// Distinct pre-created objects to read (spread across partitions).
  int object_count = 1024;
  std::string key_prefix = "bench/";
  /// Client NIC model: an EC2 instance type, or "lambda" for function NICs.
  std::string client_instance_type = "c6gn.2xlarge";
  /// Route payloads through the fluid fabric (large requests only).
  bool use_fabric = true;
  SimDuration sample_interval = Seconds(1);
  /// How long past the measurement window in-flight requests may drain;
  /// threads still waiting then are counted in `abandoned_threads`.
  SimDuration drain_grace = Minutes(10);
};

struct StorageIoResult {
  int64_t requests = 0;       ///< Completed operations (success or failure).
  int64_t successes = 0;
  int64_t failures = 0;       ///< Throttled or timed out (after retries).
  int64_t bytes_moved = 0;    ///< Successful payload bytes.
  /// Threads whose last request had not completed when the drain grace ran
  /// out (0 unless the service wedged; a typed outcome, not a hang).
  int abandoned_threads = 0;
  SimDuration elapsed = 0;
  Histogram latency_ms;       ///< Successful request latencies.
  std::vector<double> success_iops_series;  ///< Per sample interval.
  std::vector<double> failure_iops_series;

  double SuccessIops() const {
    return elapsed == 0 ? 0 : static_cast<double>(successes) / ToSeconds(elapsed);
  }
  double ThroughputGiBps() const {
    return elapsed == 0 ? 0 : ToGiB(bytes_moved) / ToSeconds(elapsed);
  }
  double ErrorRate() const {
    return requests == 0 ? 0
                         : static_cast<double>(failures) /
                               static_cast<double>(requests);
  }
};

/// Runs the measurement starting at the environment's current time; returns
/// after the virtual duration has been simulated.
StorageIoResult RunStorageIo(sim::SimEnvironment* env,
                             net::FabricDriver* fabric,
                             storage::StorageService* service,
                             const StorageIoConfig& config);

}  // namespace skyrise::platform
