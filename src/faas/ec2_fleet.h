#pragma once

#include <deque>
#include <memory>
#include <vector>

#include "faas/function.h"
#include "net/instance_specs.h"
#include "pricing/cost_meter.h"
#include "sim/fault_injector.h"

/// \file ec2_fleet.h
/// IaaS deployment: a provisioned cluster of EC2 VMs running function
/// binaries through a shim layer that resembles the Lambda execution
/// environment (Section 3.1). Invocations are queued and distributed across
/// the available worker slots; there are no coldstarts, but capacity is
/// fixed and billed for the full fleet lifetime.

namespace skyrise::faas {

class Ec2Fleet : public ComputePlatform {
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

  struct Stats {
    int64_t invocations = 0;
    int64_t errors = 0;
    int64_t timeouts = 0;  ///< Executions killed at FunctionConfig::timeout.
    int64_t crashes = 0;   ///< Injected worker-process crashes.
  };

  Ec2Fleet(sim::SimEnvironment* env, net::FabricDriver* fabric,
           FunctionRegistry* registry, const Options& options);
  SKYRISE_DISALLOW_COPY_AND_ASSIGN(Ec2Fleet);

  const std::string& platform_name() const override { return name_; }

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

  /// Installs a fault injector: worker processes may crash mid-execution
  /// (the slot is reclaimed either way). Pass nullptr to disable.
  void set_fault_injector(sim::FaultInjector* injector) {
    fault_injector_ = injector;
  }

  /// Emits the shim lifecycle (queueing, execution, fleet lifetime) as spans
  /// on track "ec2" and mirrors Stats onto "ec2.*" counters. The fleet's
  /// lifetime bill is attributed to the fleet span at Stop().
  void set_observer(obs::Tracer* tracer, obs::MetricsRegistry* metrics) override {
    tracer_ = tracer;
    metrics_ = metrics;
  }

 private:
  struct Pending {
    std::string function;
    Json payload;
    ResponseCallback callback;
    obs::SpanId invoke_span = obs::kNoSpan;
    obs::SpanId queued_span = obs::kNoSpan;
    SimTime enqueued_at = 0;
  };

  void Dispatch(Pending pending);
  void MaybeDispatch();

  sim::SimEnvironment* env_;
  net::FabricDriver* fabric_;
  FunctionRegistry* registry_;
  Options opt_;
  Rng rng_;
  sim::FaultInjector* fault_injector_ = nullptr;
  obs::Tracer* tracer_ = nullptr;
  obs::MetricsRegistry* metrics_ = nullptr;
  obs::SpanId fleet_span_ = obs::kNoSpan;
  Stats stats_;
  std::string name_ = "ec2";
  std::vector<std::unique_ptr<net::Ec2Nic>> nics_;
  std::vector<int> slot_instance_;  ///< Round-robin slot -> instance NIC.
  int free_slots_ = 0;
  std::deque<Pending> queue_;
  bool running_ = false;
  SimTime started_at_ = 0;
  pricing::CostMeter meter_;
  int next_slot_rr_ = 0;
};

}  // namespace skyrise::faas
