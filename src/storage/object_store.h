#pragma once

#include <string>
#include <unordered_map>
#include <vector>

#include "sim/environment.h"
#include "sim/fault_injector.h"
#include "sim/token_bucket.h"
#include "storage/latency_model.h"
#include "storage/storage_service.h"

/// \file object_store.h
/// Simulated S3-style object storage (one instance == one bucket).
///
/// Mechanisms modelled after Sections 2.2, 4.3 and 4.4:
///  - User data is horizontally partitioned; each prefix partition serves
///    ~5.5K read / 3.5K write IOPS with a limited burst allowance.
///  - Under sustained read overload a partition accumulates "warming" credit
///    and is split (capacity grows linearly, with delay — admission control).
///  - Under extended low load partitions merge back: all partitions survive a
///    full idle day, a reduced set persists for several more days, then the
///    bucket returns to a single partition (Fig. 13).
///  - Requests beyond capacity are rejected quickly (503 SlowDown).
///  - First-byte latency is lognormal with a heavy Pareto tail (Fig. 10);
///    payloads stream at a bounded per-connection rate, so aggregate
///    throughput scales linearly with client count (Fig. 8).
///  - Write IOPS do not scale with partitions (the Section 4.4.1 finding);
///    writes share one bucket-level limiter.
///
/// S3 Express One Zone is the same machinery with partitioning disabled,
/// zonal low-latency profiles, and high flat IOPS ceilings.

namespace skyrise::storage {

class ObjectStore : public StorageService {
 public:
  struct Options {
    std::string service_name = "s3";

    // Per-partition admission (Standard).
    double partition_read_iops = 5500;
    double partition_write_iops = 3500;
    /// Burst allowance: freshly created partitions can briefly exceed the
    /// sustained rate (new buckets measure ~8K read / 4K write IOPS over a
    /// short run, cf. Fig. 9) before throttling kicks in.
    double read_burst_tokens = 30000;
    double write_burst_tokens = 10000;

    /// Express: disable partition scaling and use flat bucket-level limits.
    bool partitioned = true;
    double bucket_read_iops = 0;   ///< Only when !partitioned.
    double bucket_write_iops = 0;  ///< Only when !partitioned.

    // Partition warming (split) behaviour.
    double split_overload_utilization = 0.85;  ///< Of sustained capacity.
    SimDuration split_after_overload = Minutes(5.2);
    int max_partitions = 64;

    // Partition cooling (merge) behaviour. The cooling clock runs while the
    // load EWMA stays below a fraction of a single partition's capacity;
    // short measurement probes do not reset it (Fig. 13 could observe the
    // downscaling despite generating hourly/daily probe load).
    SimDuration merge_to_two_after_idle = Hours(26);
    SimDuration merge_to_one_after_idle = Hours(108);
    SimDuration cooling_ewma_tau = Minutes(30);
    double cooling_rate_threshold_fraction = 0.6;  ///< Of one partition.

    // Latency (Fig. 10) and data-plane streaming.
    LatencyProfile read_latency;
    LatencyProfile write_latency;
    double read_stream_rate = 62.0 * kMiB;   ///< Bytes/s per request.
    double write_stream_rate = 40.0 * kMiB;
    double stream_jitter_sigma = 0.25;
    int64_t min_fabric_bytes = 256 * kKiB;
    /// Service endpoint ceilings (S3's fleet is effectively unlimited at our
    /// scales; EFS/DynamoDB-style services reuse this class via options).
    double service_egress = 400.0 * kGiB;
    double service_ingress = 400.0 * kGiB;

    /// Latency of a throttle rejection (fail-fast SlowDown response).
    LatencyProfile throttle_latency;

    /// Maximum object size accepted by Put (DynamoDB: 400 KiB); 0 => none.
    int64_t max_object_bytes = 0;
    /// Initial burst tokens; -1 => start full (new DynamoDB tables start
    /// empty: burst accrues from *unused* capacity).
    double read_burst_initial = -1;
    double write_burst_initial = -1;

    /// Documented container-level quotas, for reporting next to measured
    /// values (Fig. 9); 0 => same as the enforced limits.
    double documented_read_iops = 0;
    double documented_write_iops = 0;

    Options();
  };

  /// S3 Standard defaults.
  static Options StandardOptions();
  /// S3 Express One Zone: no partition quota, 220K/42K IOPS, ~5 ms medians.
  static Options ExpressOptions();
  /// DynamoDB on-demand: 400 KiB items, new-table IOPS envelope, 5-minute
  /// burst credit accrual, ~380 / ~30 MiB/s service read/write ceilings.
  static Options DynamoDbOptions();
  /// EFS elastic throughput: no request fee, 20 / 5 GiB/s per-filesystem
  /// read/write ceilings, elevated synchronous write latency.
  static Options EfsOptions();

  ObjectStore(sim::SimEnvironment* env, const Options& options,
              uint64_t rng_stream = 1001);
  SKYRISE_DISALLOW_COPY_AND_ASSIGN(ObjectStore);

  const std::string& service_name() const override {
    return opt_.service_name;
  }

  void Get(const std::string& key, const ClientContext& ctx,
           GetCallback callback) override;
  void GetRange(const std::string& key, int64_t offset, int64_t length,
                const ClientContext& ctx, GetCallback callback) override;
  void Put(const std::string& key, Blob data, const ClientContext& ctx,
           PutCallback callback) override;

  [[nodiscard]] Status Insert(const std::string& key, Blob data) override;
  [[nodiscard]] Result<Blob> Peek(const std::string& key) const override;
  [[nodiscard]] Status Delete(const std::string& key) override;
  std::vector<ObjectInfo> List(const std::string& prefix) const override;
  bool Contains(const std::string& key) const override;

  /// Current number of prefix partitions (1 when !partitioned). Applies any
  /// pending cooling merges before answering.
  int partition_count();
  /// Sustained read IOPS capacity across all partitions.
  double ReadIopsCapacity() const;

  /// Forces the partition count (warm-bucket scenario setup).
  void SetPartitionCount(int count);

  /// Installs a fault injector: requests may fail with injected transient
  /// 500/503 errors before admission, and the data path may pick up
  /// network-blip latency. Pass nullptr to disable.
  void set_fault_injector(sim::FaultInjector* injector) {
    fault_injector_ = injector;
  }

  const Options& options() const { return opt_; }

 private:
  struct Partition {
    sim::TokenBucket read_bucket;
    sim::TokenBucket write_bucket;
    // Overload ("warming") tracking.
    int64_t arrivals_since_check = 0;
    SimTime last_check = 0;
    double overload_seconds = 0;
    Partition(const Options& o, SimTime now);
  };

  Partition& PartitionOf(const std::string& key);
  void NoteArrival(Partition* partition, bool is_read);
  void MaybeSplit(Partition* partition);
  /// Folds accumulated arrivals into the load EWMA and advances the cooling
  /// clock; applies due merges. Called lazily from the request path and from
  /// partition_count().
  void UpdateLoadEwma();
  void ApplyCooling();

  enum : uint32_t { kNoSlot = 0xffffffffu };

  /// An admitted request waiting for its first byte, its transfer and its
  /// callback. Slots are recycled through a free list and keep their key's
  /// capacity; the events on the way capture only (store, slot).
  struct Pending {
    bool is_put = false;
    std::string key;  ///< PUT: where the payload lands on completion.
    Blob payload;     ///< GET: the bytes delivered; PUT: the bytes stored.
    GetCallback get_cb;
    PutCallback put_cb;
    // The fabric route, when the payload streams through the network.
    net::Nic* nic = nullptr;
    net::FabricDriver* fabric = nullptr;
    net::VpcId vpc = net::kNoVpc;
    double rate = 0;
    uint32_t next_free = kNoSlot;
  };

  /// Takes a free slot. The table may grow, so a reference to a slot is
  /// never held across a call that can issue a request.
  uint32_t Open(bool is_put);
  /// Common read/write completion path: latency, then streaming (inline or
  /// through the fabric), then Complete.
  void Finish(uint32_t slot, const ClientContext& ctx);
  void StartTransfer(uint32_t slot);
  /// Stores a PUT's payload, frees the slot and runs the callback.
  void Complete(uint32_t slot);
  /// Delivers `error` after a sampled throttle-response latency.
  template <typename Callback>
  void Reject(Status error, Callback callback);

  sim::SimEnvironment* env_;
  Options opt_;
  Rng rng_;
  sim::FaultInjector* fault_injector_ = nullptr;
  /// By key; List sorts what it collects.
  std::unordered_map<std::string, Blob> objects_;
  std::vector<Pending> pending_;
  uint32_t free_pending_ = kNoSlot;
  std::vector<Partition> partitions_;
  sim::TokenBucket global_write_bucket_;  ///< Writes never scale (4.4.1).
  sim::TokenBucket express_read_bucket_;  ///< Only when !partitioned.
  net::UnlimitedNic service_nic_;

  // Warming/cooling state.
  SimTime last_split_ = 0;
  double load_ewma_ = 0;
  int64_t ewma_arrival_counter_ = 0;
  SimTime ewma_last_update_ = 0;
  SimTime cooling_since_ = 0;  ///< -1 while load is above the threshold.
};

}  // namespace skyrise::storage
