#pragma once

#include <deque>
#include <map>
#include <memory>
#include <vector>

#include "faas/lifecycle.h"
#include "pricing/cost_meter.h"
#include "storage/latency_model.h"

/// \file lambda_platform.h
/// AWS Lambda platform simulator following the Fig. 1 architecture:
///
///   request -> frontend (routing latency)
///           -> admission (account concurrency quota)
///           -> burst/ramp scaling (3,000 burst + 500/min)
///           -> assignment (warm sandbox lookup)
///           -> placement (coldstart: sandbox creation + binary download +
///              runtime init, scaled by binary size)
///           -> execution in a sandbox owning a LambdaNic (lifecycle.h)
///
/// Warm sandboxes are reaped after a sampled idle lifetime; their NICs keep
/// their (idle-refilled) burst budgets across invocations.

namespace skyrise::faas {

/// Emits the invocation lifecycle (frontend routing, throttles, warm
/// dispatch / coldstart, execution, sandbox reaping) as spans on track
/// "lambda" and mirrors Stats onto "lambda.*" counters.
class LambdaPlatform : public LifecyclePlatform {
 public:
  struct Options {
    int account_concurrency = 1000;  ///< Paper's quota raise: 10,000.
    int burst_concurrency = 3000;
    double scale_rate_per_minute = 500;

    // Coldstart model (the blue path in Fig. 1).
    SimDuration coldstart_base = Millis(140);  ///< Sandbox creation.
    double binary_init_rate = 40.0 * kMiB;     ///< Download+init bytes/s.
    SimDuration runtime_init = Millis(45);
    double coldstart_sigma = 0.35;  ///< Lognormal multiplier spread.
    /// Rare placement stragglers (multi-second coldstarts).
    double coldstart_straggler_probability = 0.004;
    double coldstart_straggler_scale_ms = 1500;
    double coldstart_straggler_alpha = 1.6;

    // Warm path and routing.
    storage::LatencyProfile frontend_latency;   ///< Per-hop routing.
    storage::LatencyProfile warm_overhead;      ///< Sandbox dispatch.

    // Sandbox idle lifetime before reaping (minutes-scale, heavy spread).
    SimDuration idle_lifetime_median = Minutes(7);
    double idle_lifetime_sigma = 0.5;

    /// Regional contention multiplier on coldstart/ramp (Table 5: the EU
    /// region starts large clusters ~1.5x slower).
    double region_contention = 1.0;

    uint64_t rng_stream = 3001;

    Options();
  };

  /// errors, timeouts and crashes (function crashes / sandbox kills) come
  /// from ExecutionStats.
  struct Stats : ExecutionStats {
    int64_t invocations = 0;
    int64_t cold_starts = 0;
    int64_t warm_starts = 0;
    int64_t throttles = 0;
    int64_t reaped_sandboxes = 0;
    // Fleet accounting (serving scenarios share one fleet across tenants).
    int64_t sandboxes_created = 0;  ///< Coldstarts + prewarms.
    int64_t active_peak = 0;        ///< Max concurrent executions observed.
    int64_t warm_pool_peak = 0;     ///< Max idle warm sandboxes observed.
  };

  LambdaPlatform(sim::SimEnvironment* env, net::FabricDriver* fabric,
                 FunctionRegistry* registry, const Options& options);
  SKYRISE_DISALLOW_COPY_AND_ASSIGN(LambdaPlatform);

  /// Synchronous (request/response) invocation.
  void Invoke(const std::string& function, Json payload,
              ResponseCallback callback) override;

  int active_executions() const { return active_; }
  int WarmSandboxCount(const std::string& function) const;
  const Stats& stats() const { return stats_; }
  pricing::CostMeter* meter() { return &meter_; }
  const Options& options() const { return opt_; }

  /// Pre-warms `count` sandboxes (used by warm-start experiment setups).
  void Prewarm(const std::string& function, int count);

 private:
  /// Admits the call past the frontend: quota, scaling, then a warm sandbox
  /// or a coldstart.
  void Admit(const std::shared_ptr<Invocation>& call);
  /// Runs the call in its sandbox.
  void Run(const std::shared_ptr<Invocation>& call, bool cold);
  /// Bills the execution and keeps its sandbox warm or lets it die.
  void Release(Invocation& call, SimDuration duration, bool keep) override;
  void ReleaseSandbox(const std::string& function,
                      std::shared_ptr<Sandbox> sandbox);
  /// A new execution environment, counted in sandboxes_created.
  std::shared_ptr<Sandbox> NewSandbox();
  SimDuration SampleColdstart(const FunctionConfig& config);
  int CurrentScaleLimit();

  Options opt_;
  Rng rng_;
  std::map<std::string, std::deque<std::shared_ptr<Sandbox>>> warm_pool_;
  int active_ = 0;
  int warm_total_ = 0;
  SimTime ramp_start_ = -1;
  uint64_t next_sandbox_id_ = 1;
  Stats stats_;
  pricing::CostMeter meter_;
};

}  // namespace skyrise::faas
