#pragma once

/// Shared harness for the S3 IOPS scaling experiments (Figs. 11-13): a ramp
/// of Lambda-compute clients issuing 1 KiB reads through retrying clients
/// (200 ms timeout, exponential backoff with full jitter) against one S3
/// bucket, sampled over time.
///
/// Time compression: the paper's ramp spans ~26 minutes of wall-clock; to
/// keep simulated event counts tractable we compress time by
/// `kTimeCompression` (the partition-split delay is scaled identically) and
/// rescale the reported timeline. Request counts and IOPS are unscaled.

#include <memory>
#include <vector>

#include "common/string_util.h"
#include "platform/report.h"
#include "platform/storage_io.h"
#include "platform/testbed.h"

namespace skyrise::bench {

constexpr double kTimeCompression = 4.0;

struct RampSample {
  double minutes = 0;  ///< Rescaled (uncompressed) experiment time.
  double success_iops = 0;
  double failure_iops = 0;
  int clients = 0;
  int partitions = 0;
  int64_t cumulative_requests = 0;
};

struct RampResult {
  std::vector<RampSample> samples;
  int64_t total_requests = 0;
};

/// Runs a client ramp: starts at `start_clients`, adds `step_clients` every
/// `seconds_per_config` (compressed) seconds up to `end_clients`; each
/// client runs `threads` closed-loop request slots.
inline RampResult RunS3Ramp(platform::Testbed* bed,
                            storage::ObjectStore* bucket, int start_clients,
                            int step_clients, int end_clients,
                            SimDuration seconds_per_config, int threads = 10) {
  RampResult out;
  auto client = std::make_unique<storage::RetryClient>(
      &bed->env, bucket, [] {
        storage::RetryClient::Options o;
        o.request_timeout = Millis(200);
        o.backoff_base = Millis(25);
        o.max_attempts = 8;
        return o;
      }(), 0xF11);

  // Pre-create objects.
  for (int i = 0; i < 2048; ++i) {
    SKYRISE_CHECK_OK(bucket->Insert(StrFormat("ramp/obj-%05d", i),
                                    storage::Blob::Synthetic(kKiB)));
  }

  // Closed-loop request slots; honours the (dynamic) thread target. Each
  // pending GET's callback holds the loop, so the loop is freed once its
  // last request settles.
  struct RampLoop : std::enable_shared_from_this<RampLoop> {
    storage::RetryClient* client = nullptr;
    int64_t successes = 0;
    int64_t failures = 0;
    int64_t issued = 0;
    int target_threads = 0;
    int active_threads = 0;
    bool stop = false;

    void Issue(int slot) {
      if (stop || slot >= target_threads) {
        --active_threads;
        return;
      }
      ++issued;
      const std::string key =
          StrFormat("ramp/obj-%05lld", static_cast<long long>(issued % 2048));
      auto self = shared_from_this();
      client->Get(key, {}, [self, slot](Result<storage::Blob> r) {
        (r.ok() ? self->successes : self->failures) += 1;
        self->Issue(slot);
      });
    }
  };
  auto state = std::make_shared<RampLoop>();
  state->client = client.get();
  auto set_threads = [&](int target) {
    state->target_threads = target;
    while (state->active_threads < target) {
      const int slot = state->active_threads++;
      state->Issue(slot);
    }
  };

  const SimTime start = bed->env.now();
  int clients = start_clients;
  int64_t last_success = 0, last_failure = 0;
  while (clients <= end_clients) {
    set_threads(clients * threads);
    const SimTime config_end = bed->env.now() + seconds_per_config;
    // Sample once per second of compressed time.
    while (bed->env.now() < config_end) {
      const SimTime sample_end = bed->env.now() + Seconds(1);
      bed->env.RunUntil(sample_end);
      RampSample sample;
      sample.minutes = ToSeconds(bed->env.now() - start) * kTimeCompression /
                       60.0;
      sample.success_iops =
          static_cast<double>(state->successes - last_success);
      sample.failure_iops =
          static_cast<double>(state->failures - last_failure);
      last_success = state->successes;
      last_failure = state->failures;
      sample.clients = clients;
      sample.partitions = bucket->partition_count();
      sample.cumulative_requests = state->issued;
      out.samples.push_back(sample);
    }
    clients += step_clients;
  }
  state->stop = true;
  bed->env.RunUntil(bed->env.now() + Minutes(2));  // Drain stragglers.
  out.total_requests = state->issued;
  return out;
}

/// S3 Standard options with the split delay compressed to match.
inline storage::ObjectStore::Options CompressedS3Options() {
  auto options = storage::ObjectStore::StandardOptions();
  options.split_after_overload = static_cast<SimDuration>(
      static_cast<double>(options.split_after_overload) / kTimeCompression);
  options.merge_to_two_after_idle = static_cast<SimDuration>(
      static_cast<double>(options.merge_to_two_after_idle) / kTimeCompression);
  options.merge_to_one_after_idle = static_cast<SimDuration>(
      static_cast<double>(options.merge_to_one_after_idle) / kTimeCompression);
  return options;
}

}  // namespace skyrise::bench
