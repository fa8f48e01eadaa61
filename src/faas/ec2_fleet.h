#pragma once

#include <deque>
#include <memory>
#include <vector>

#include "faas/lifecycle.h"
#include "net/instance_specs.h"
#include "pricing/cost_meter.h"

/// \file ec2_fleet.h
/// IaaS deployment: a provisioned cluster of EC2 VMs running function
/// binaries through a shim layer that resembles the Lambda execution
/// environment (Section 3.1). Invocations are queued and distributed across
/// the available worker slots; there are no coldstarts, but capacity is
/// fixed and billed for the full fleet lifetime. Executions settle through
/// the same lifecycle as Lambda's (lifecycle.h).
///
/// Emits the shim lifecycle (queueing, execution, fleet lifetime) as spans
/// on track "ec2" and mirrors Stats onto "ec2.*" counters. The fleet's
/// lifetime bill is attributed to the fleet span at Stop(); an injected
/// worker-process crash reclaims the slot like any other settle.

namespace skyrise::faas {

class Ec2Fleet : public LifecyclePlatform {
 public:
  struct Options {
    std::string instance_type = "c6g.xlarge";
    int instance_count = 1;
    /// Worker slots per instance (a 4-vCPU worker on a 4-vCPU instance -> 1).
    int slots_per_instance = 1;
    /// VM boot+bootstrap time when not pre-provisioned.
    SimDuration provision_time = Seconds(45);
    bool pre_provisioned = true;
    bool reserved_pricing = false;
    uint64_t rng_stream = 3501;
  };

  /// errors, timeouts and crashes (worker-process crashes) come from
  /// ExecutionStats.
  struct Stats : ExecutionStats {
    int64_t invocations = 0;
  };

  Ec2Fleet(sim::SimEnvironment* env, net::FabricDriver* fabric,
           FunctionRegistry* registry, const Options& options);
  SKYRISE_DISALLOW_COPY_AND_ASSIGN(Ec2Fleet);

  /// Boots the fleet; `on_ready` fires when all instances are up (instantly
  /// for pre-provisioned fleets).
  void Start(std::function<void()> on_ready);

  /// Stops the fleet and bills its lifetime.
  void Stop();

  /// Shim invocation: runs on a free slot or queues until one frees up.
  void Invoke(const std::string& function, Json payload,
              ResponseCallback callback) override;

  int free_slots() const { return free_slots_; }
  int queued() const { return static_cast<int>(queue_.size()); }
  int total_slots() const {
    return opt_.instance_count * opt_.slots_per_instance;
  }
  pricing::CostMeter* meter() { return &meter_; }
  bool running() const { return running_; }
  const Stats& stats() const { return stats_; }

 private:
  struct Pending {
    std::shared_ptr<Invocation> call;
    obs::SpanId queued_span = obs::kNoSpan;
    SimTime enqueued_at = 0;
  };

  void Dispatch(Pending pending);
  void MaybeDispatch();
  /// Frees the slot and dispatches the next queued call.
  void Release(Invocation& call, SimDuration duration, bool keep) override;

  Options opt_;
  Rng rng_;
  obs::SpanId fleet_span_ = obs::kNoSpan;
  Stats stats_;
  std::vector<std::unique_ptr<net::Ec2Nic>> nics_;
  int free_slots_ = 0;
  std::deque<Pending> queue_;
  bool running_ = false;
  SimTime started_at_ = 0;
  pricing::CostMeter meter_;
  int next_slot_rr_ = 0;
};

}  // namespace skyrise::faas
