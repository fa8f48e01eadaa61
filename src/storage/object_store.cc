#include "storage/object_store.h"

#include <algorithm>
#include <utility>

#include "common/string_util.h"

namespace skyrise::storage {

ObjectStore::Options::Options() {
  // Fig. 10 S3 Standard shape: 27 ms median / 75 ms p95 reads with rare
  // multi-second outliers; writes at 40 ms median.
  read_latency = LatencyProfile::FromMedianP95(27, 75);
  read_latency.tail_probability = 2e-4;
  read_latency.tail_scale_ms = 300;
  read_latency.tail_alpha = 1.1;
  write_latency = LatencyProfile::FromMedianP95(40, 112);
  write_latency.tail_probability = 2e-4;
  write_latency.tail_scale_ms = 400;
  write_latency.tail_alpha = 1.1;
  throttle_latency = LatencyProfile::FromMedianP95(8, 20);
}

ObjectStore::Options ObjectStore::StandardOptions() { return Options(); }

ObjectStore::Options ObjectStore::ExpressOptions() {
  Options o;
  o.service_name = "s3express";
  o.partitioned = false;
  o.bucket_read_iops = 220000;
  o.bucket_write_iops = 42000;
  o.read_burst_tokens = 220000;  // ~1 s of headroom; effectively flat.
  o.write_burst_tokens = 42000;
  // Zonal deployment: ~5 ms medians with tight tails (Fig. 10).
  o.read_latency = LatencyProfile::FromMedianP95(4.8, 5.6);
  o.read_latency.tail_probability = 2e-5;
  o.read_latency.tail_scale_ms = 40;
  o.read_latency.tail_alpha = 1.5;
  o.write_latency = LatencyProfile::FromMedianP95(6.5, 8.5);
  o.write_latency.tail_probability = 2e-5;
  o.write_latency.tail_scale_ms = 50;
  o.write_latency.tail_alpha = 1.5;
  o.write_stream_rate = 55.0 * kMiB;
  o.stream_jitter_sigma = 0.1;
  o.throttle_latency = LatencyProfile::FromMedianP95(3, 6);
  return o;
}

ObjectStore::Options ObjectStore::DynamoDbOptions() {
  Options o;
  o.service_name = "dynamodb";
  o.partitioned = false;
  // Measured new-table envelope (Fig. 9): 16K read / 9.6K write IOPS,
  // slightly above the documented on-demand quotas.
  o.bucket_read_iops = 16000;
  o.bucket_write_iops = 9600;
  o.documented_read_iops = 12000;
  o.documented_write_iops = 4000;
  // "Burst throughput from up to 5 minutes of unused capacity" — the credit
  // pool starts empty on a fresh table and accrues while under-utilized.
  o.read_burst_tokens = 16000.0 * 300;
  o.write_burst_tokens = 9600.0 * 300;
  // Fresh tables hold only a fraction of a second of allowance; the burst
  // pool accrues while capacity goes unused.
  o.read_burst_initial = 4000;
  o.write_burst_initial = 2400;
  o.max_object_bytes = 400 * kKiB;
  // Fig. 10: slightly lower yet more variable latency than S3 Express.
  o.read_latency = LatencyProfile::FromMedianP95(4.0, 9.0);
  o.read_latency.tail_probability = 5e-5;
  o.read_latency.tail_scale_ms = 60;
  o.read_latency.tail_alpha = 1.3;
  o.write_latency = LatencyProfile::FromMedianP95(5.0, 11.5);
  o.write_latency.tail_probability = 5e-5;
  o.write_latency.tail_scale_ms = 70;
  o.write_latency.tail_alpha = 1.3;
  // Fig. 8: throughput saturates at ~380 MiB/s reads / ~30 MiB/s writes.
  o.service_egress = 380.0 * kMiB;
  o.service_ingress = 30.0 * kMiB;
  o.read_stream_rate = 200.0 * kMiB;  // Service ceiling binds, not streams.
  o.write_stream_rate = 30.0 * kMiB;
  o.stream_jitter_sigma = 0.2;
  o.min_fabric_bytes = 256 * kKiB;
  o.throttle_latency = LatencyProfile::FromMedianP95(2.5, 5);
  return o;
}

ObjectStore::Options ObjectStore::EfsOptions() {
  Options o;
  o.service_name = "efs";
  o.partitioned = false;
  // Fig. 9: measured IOPS miss the documented per-filesystem quotas by more
  // than an order of magnitude.
  o.bucket_read_iops = 22000;
  o.bucket_write_iops = 6000;
  o.documented_read_iops = 250000;
  o.documented_write_iops = 50000;
  o.read_burst_tokens = 22000;
  o.write_burst_tokens = 6000;
  // Fig. 10: reads as consistent as S3 Express; writes 2-3x slower
  // (synchronous durability).
  o.read_latency = LatencyProfile::FromMedianP95(4.5, 8.0);
  o.read_latency.tail_probability = 3e-5;
  o.read_latency.tail_scale_ms = 50;
  o.read_latency.tail_alpha = 1.4;
  o.write_latency = LatencyProfile::FromMedianP95(11.0, 26.0);
  o.write_latency.tail_probability = 3e-5;
  o.write_latency.tail_scale_ms = 120;
  o.write_latency.tail_alpha = 1.4;
  // Elastic-throughput quotas for one filesystem: 20 / 5 GiB/s (Fig. 8).
  o.service_egress = 20.0 * kGiB;
  o.service_ingress = 5.0 * kGiB;
  o.read_stream_rate = 12.0 * kMiB;
  o.write_stream_rate = 4.0 * kMiB;
  o.stream_jitter_sigma = 0.2;
  o.throttle_latency = LatencyProfile::FromMedianP95(4, 9);
  return o;
}

ObjectStore::Partition::Partition(const Options& o, SimTime now)
    : read_bucket(o.read_burst_tokens, o.partition_read_iops,
                  o.read_burst_tokens),
      write_bucket(o.write_burst_tokens, o.partition_write_iops,
                   o.write_burst_tokens),
      last_check(now) {
  read_bucket.SetTokens(o.read_burst_tokens, now);
  write_bucket.SetTokens(o.write_burst_tokens, now);
}

ObjectStore::ObjectStore(sim::SimEnvironment* env, const Options& options,
                         uint64_t rng_stream)
    : env_(env),
      opt_(options),
      rng_(env->ForkRng(rng_stream)),
      global_write_bucket_(
          opt_.write_burst_tokens,
          opt_.partitioned ? opt_.partition_write_iops : opt_.bucket_write_iops,
          opt_.write_burst_tokens),
      express_read_bucket_(opt_.read_burst_tokens, opt_.bucket_read_iops,
                           opt_.read_burst_tokens),
      service_nic_(opt_.service_ingress, opt_.service_egress) {
  partitions_.emplace_back(opt_, env_->now());
  if (opt_.read_burst_initial >= 0) {
    express_read_bucket_.SetTokens(opt_.read_burst_initial, env_->now());
  }
  if (opt_.write_burst_initial >= 0) {
    global_write_bucket_.SetTokens(opt_.write_burst_initial, env_->now());
  }
  ewma_last_update_ = env_->now();
  cooling_since_ = env_->now();
  service_nic_.set_name(opt_.service_name);
}

int ObjectStore::partition_count() {
  if (!opt_.partitioned) return 1;
  ApplyCooling();
  return static_cast<int>(partitions_.size());
}

double ObjectStore::ReadIopsCapacity() const {
  if (!opt_.partitioned) return opt_.bucket_read_iops;
  return opt_.partition_read_iops * static_cast<double>(partitions_.size());
}

void ObjectStore::SetPartitionCount(int count) {
  SKYRISE_CHECK(count >= 1 && count <= opt_.max_partitions);
  while (static_cast<int>(partitions_.size()) < count) {
    partitions_.emplace_back(opt_, env_->now());
  }
  while (static_cast<int>(partitions_.size()) > count) partitions_.pop_back();
}

namespace {
uint64_t HashKey(const std::string& key) {
  uint64_t h = 1469598103934665603ULL;  // FNV-1a.
  for (char c : key) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}
}  // namespace

ObjectStore::Partition& ObjectStore::PartitionOf(const std::string& key) {
  return partitions_[HashKey(key) % partitions_.size()];
}

void ObjectStore::UpdateLoadEwma() {
  const SimTime now = env_->now();
  const SimDuration dt = now - ewma_last_update_;
  if (dt < Seconds(5)) return;  // Fold in 5 s batches.
  const double rate =
      static_cast<double>(ewma_arrival_counter_) / ToSeconds(dt);
  ewma_arrival_counter_ = 0;
  const double w = std::exp(-ToSeconds(dt) / ToSeconds(opt_.cooling_ewma_tau));
  load_ewma_ = load_ewma_ * w + rate * (1.0 - w);
  ewma_last_update_ = now;
  const bool cooling = load_ewma_ < opt_.cooling_rate_threshold_fraction *
                                        opt_.partition_read_iops;
  if (cooling) {
    if (cooling_since_ < 0) cooling_since_ = now;
  } else {
    cooling_since_ = -1;
  }
}

void ObjectStore::ApplyCooling() {
  UpdateLoadEwma();
  if (cooling_since_ < 0 || partitions_.size() <= 1) return;
  const SimDuration idle = env_->now() - cooling_since_;
  if (idle >= opt_.merge_to_one_after_idle) {
    SetPartitionCount(1);
  } else if (idle >= opt_.merge_to_two_after_idle && partitions_.size() > 2) {
    SetPartitionCount(2);
  }
}

void ObjectStore::NoteArrival(Partition* partition, bool is_read) {
  if (!opt_.partitioned || !is_read) return;
  ++partition->arrivals_since_check;
  ++ewma_arrival_counter_;
  UpdateLoadEwma();
  const SimTime now = env_->now();
  const SimDuration elapsed = now - partition->last_check;
  if (elapsed < Seconds(10)) return;
  const double rate =
      static_cast<double>(partition->arrivals_since_check) / ToSeconds(elapsed);
  partition->arrivals_since_check = 0;
  partition->last_check = now;
  if (rate >= opt_.split_overload_utilization * opt_.partition_read_iops) {
    partition->overload_seconds += ToSeconds(elapsed);
  } else {
    partition->overload_seconds =
        std::max(0.0, partition->overload_seconds - ToSeconds(elapsed));
  }
  MaybeSplit(partition);
}

void ObjectStore::MaybeSplit(Partition* partition) {
  if (partition->overload_seconds < ToSeconds(opt_.split_after_overload)) {
    return;
  }
  // Splits are serialized bucket-wide: S3 "only allocates resources linearly
  // and with delay as a form of admission control" (Section 4.4.1).
  const SimTime now = env_->now();
  if (now - last_split_ < opt_.split_after_overload &&
      partitions_.size() > 1) {
    return;
  }
  if (static_cast<int>(partitions_.size()) >= opt_.max_partitions) return;
  partition->overload_seconds = 0;
  last_split_ = now;
  partitions_.emplace_back(opt_, now);
}

template <typename Callback>
void ObjectStore::Reject(Status error, Callback callback) {
  const SimDuration delay = SampleLatency(opt_.throttle_latency, &rng_);
  env_->Schedule(delay, [error = std::move(error),
                         callback = std::move(callback)] { callback(error); });
}

uint32_t ObjectStore::Open(bool is_put) {
  uint32_t slot = free_pending_;
  if (slot == kNoSlot) {
    slot = static_cast<uint32_t>(pending_.size());
    pending_.emplace_back();
  } else {
    free_pending_ = pending_[slot].next_free;
  }
  pending_[slot].is_put = is_put;
  return slot;
}

void ObjectStore::Finish(uint32_t slot, const ClientContext& ctx) {
  Pending& p = pending_[slot];
  SimDuration first_byte = SampleLatency(
      p.is_put ? opt_.write_latency : opt_.read_latency, &rng_);
  if (fault_injector_ != nullptr) {
    first_byte += fault_injector_->MaybeNetworkBlip();
  }
  const double rate =
      (p.is_put ? opt_.write_stream_rate : opt_.read_stream_rate) *
      rng_.Lognormal(0.0, opt_.stream_jitter_sigma);
  const int64_t bytes = p.payload.size();
  if (ctx.fabric != nullptr && ctx.nic != nullptr &&
      bytes >= opt_.min_fabric_bytes) {
    p.nic = ctx.nic;
    p.fabric = ctx.fabric;
    p.vpc = ctx.vpc;
    p.rate = rate;
    env_->Schedule(first_byte, [this, slot] { StartTransfer(slot); });
    return;
  }
  const SimDuration transfer = Seconds(static_cast<double>(bytes) / rate);
  env_->Schedule(first_byte + transfer, [this, slot] { Complete(slot); });
}

void ObjectStore::StartTransfer(uint32_t slot) {
  const Pending& p = pending_[slot];
  net::Fabric::TransferSpec spec;
  spec.src = p.is_put ? p.nic : &service_nic_;
  spec.dst = p.is_put ? &service_nic_ : p.nic;
  spec.flows = 1;
  spec.total_bytes = p.payload.size();
  spec.vpc = p.vpc;
  spec.rate_cap_bytes_per_sec = p.rate;
  spec.on_complete = [this, slot](net::TransferId) { Complete(slot); };
  p.fabric->StartTransfer(std::move(spec));
}

void ObjectStore::Complete(uint32_t slot) {
  Pending& p = pending_[slot];
  const bool is_put = p.is_put;
  Blob payload = std::exchange(p.payload, Blob());
  GetCallback get_cb = std::exchange(p.get_cb, nullptr);
  PutCallback put_cb = std::exchange(p.put_cb, nullptr);
  // The object becomes visible on completion (read-after-write consistency).
  if (is_put) objects_[p.key] = std::move(payload);
  // The callback may issue requests that take this slot or grow the table,
  // so the slot is freed before it runs.
  p.next_free = free_pending_;
  free_pending_ = slot;
  if (is_put) {
    put_cb(Status::OK());
  } else {
    get_cb(std::move(payload));
  }
}

void ObjectStore::Get(const std::string& key, const ClientContext& ctx,
                      GetCallback callback) {
  GetRange(key, 0, -1, ctx, std::move(callback));
}

void ObjectStore::GetRange(const std::string& key, int64_t offset,
                           int64_t length, const ClientContext& ctx,
                           GetCallback callback) {
  const SimTime now = env_->now();
  if (fault_injector_ != nullptr) {
    Status injected = fault_injector_->MaybeStorageError(/*is_write=*/false);
    if (!injected.ok()) {
      if (ctx.meter != nullptr) {
        const double usd = ctx.meter->RecordStorageRequest(
            opt_.service_name, /*is_write=*/false, 0, /*success=*/false);
        if (ctx.tracer != nullptr) ctx.tracer->AddCost(ctx.span, usd);
      }
      if (ctx.tracer != nullptr) {
        ctx.tracer->Instant("storage/" + opt_.service_name, "fault.injected",
                            "storage", ctx.span);
      }
      if (ctx.metrics != nullptr) {
        ctx.metrics->Add("storage." + opt_.service_name + ".faults_injected");
      }
      Reject(std::move(injected), std::move(callback));
      return;
    }
  }
  bool admitted;
  if (opt_.partitioned) {
    ApplyCooling();
    Partition& partition = PartitionOf(key);
    admitted = partition.read_bucket.TryConsume(1, now);
    NoteArrival(&partition, /*is_read=*/true);
  } else {
    admitted = express_read_bucket_.TryConsume(1, now);
  }
  auto it = objects_.find(key);
  const bool found = it != objects_.end();
  const int64_t size = found ? it->second.size() : 0;
  // A range that starts before the object or past its end is S3's 416
  // InvalidRange.
  const bool in_range = offset >= 0 && length >= -1 && offset <= size;
  const int64_t payload_size =
      !found || !in_range
          ? 0
          : (length < 0 ? size - offset : std::min(length, size - offset));
  if (ctx.meter != nullptr) {
    const double usd = ctx.meter->RecordStorageRequest(
        opt_.service_name, /*is_write=*/false, payload_size,
        admitted && found && in_range);
    if (ctx.tracer != nullptr) ctx.tracer->AddCost(ctx.span, usd);
  }
  if (!admitted) {
    if (ctx.tracer != nullptr) {
      ctx.tracer->Instant("storage/" + opt_.service_name, "throttle",
                          "storage", ctx.span);
    }
    Reject(Status::ResourceExhausted("503 SlowDown: " + key),
           std::move(callback));
    return;
  }
  if (!found) {
    Reject(Status::NotFound("NoSuchKey: " + key), std::move(callback));
    return;
  }
  if (!in_range) {
    Reject(Status::OutOfRange("InvalidRange: " + key), std::move(callback));
    return;
  }
  const uint32_t slot = Open(/*is_put=*/false);
  pending_[slot].payload =
      length < 0 && offset == 0
          ? it->second
          : it->second.Slice(offset, length < 0 ? size - offset : length);
  pending_[slot].get_cb = std::move(callback);
  Finish(slot, ctx);
}

void ObjectStore::Put(const std::string& key, Blob data,
                      const ClientContext& ctx, PutCallback callback) {
  const SimTime now = env_->now();
  if (fault_injector_ != nullptr) {
    Status injected = fault_injector_->MaybeStorageError(/*is_write=*/true);
    if (!injected.ok()) {
      if (ctx.meter != nullptr) {
        const double usd = ctx.meter->RecordStorageRequest(
            opt_.service_name, /*is_write=*/true, data.size(),
            /*success=*/false);
        if (ctx.tracer != nullptr) ctx.tracer->AddCost(ctx.span, usd);
      }
      if (ctx.tracer != nullptr) {
        ctx.tracer->Instant("storage/" + opt_.service_name, "fault.injected",
                            "storage", ctx.span);
      }
      if (ctx.metrics != nullptr) {
        ctx.metrics->Add("storage." + opt_.service_name + ".faults_injected");
      }
      Reject(std::move(injected), std::move(callback));
      return;
    }
  }
  if (opt_.max_object_bytes > 0 && data.size() > opt_.max_object_bytes) {
    // Size violations are rejected synchronously at request validation and
    // are not billed (the SDK refuses to send them).
    env_->Schedule(0, [error = Status::InvalidArgument(StrFormat(
                           "item too large: %s", key.c_str())),
                       callback = std::move(callback)] { callback(error); });
    return;
  }
  const bool admitted = global_write_bucket_.TryConsume(1, now);
  if (ctx.meter != nullptr) {
    const double usd = ctx.meter->RecordStorageRequest(
        opt_.service_name, /*is_write=*/true, data.size(), admitted);
    if (ctx.tracer != nullptr) ctx.tracer->AddCost(ctx.span, usd);
  }
  if (!admitted) {
    if (ctx.tracer != nullptr) {
      ctx.tracer->Instant("storage/" + opt_.service_name, "throttle",
                          "storage", ctx.span);
    }
    Reject(Status::ResourceExhausted("503 SlowDown: " + key),
           std::move(callback));
    return;
  }
  const uint32_t slot = Open(/*is_put=*/true);
  Pending& pending = pending_[slot];
  pending.key = key;
  pending.payload = std::move(data);
  pending.put_cb = std::move(callback);
  Finish(slot, ctx);
}

Status ObjectStore::Insert(const std::string& key, Blob data) {
  objects_[key] = std::move(data);
  return Status::OK();
}

Result<Blob> ObjectStore::Peek(const std::string& key) const {
  auto it = objects_.find(key);
  if (it == objects_.end()) return Status::NotFound("NoSuchKey: " + key);
  return it->second;
}

Status ObjectStore::Delete(const std::string& key) {
  objects_.erase(key);
  return Status::OK();
}

std::vector<ObjectInfo> ObjectStore::List(const std::string& prefix) const {
  std::vector<ObjectInfo> out;
  // skyrise-check: allow(unordered-iteration) — sorted by key below.
  for (const auto& [key, blob] : objects_) {
    if (StartsWith(key, prefix)) out.push_back(ObjectInfo{key, blob.size()});
  }
  std::sort(out.begin(), out.end(),
            [](const ObjectInfo& a, const ObjectInfo& b) {
              return a.key < b.key;
            });
  return out;
}

bool ObjectStore::Contains(const std::string& key) const {
  return objects_.count(key) > 0;
}

}  // namespace skyrise::storage
