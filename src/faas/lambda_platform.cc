#include "faas/lambda_platform.h"

#include <algorithm>

namespace skyrise::faas {

/// A Lambda execution environment: a NIC and the warm pool's bookkeeping.
struct Sandbox {
  std::unique_ptr<net::LambdaNic> nic;
  sim::EventId reap_event = sim::kInvalidEventId;
  uint64_t id = 0;
  /// Executions served over this sandbox's lifetime; recorded to the
  /// "lambda.sandbox_uses" histogram at reap time, so warm-pool reuse
  /// across interleaved queries/tenants is measurable.
  int64_t uses = 0;
};

LambdaPlatform::Options::Options() {
  frontend_latency = storage::LatencyProfile::FromMedianP95(3.0, 7.0);
  warm_overhead = storage::LatencyProfile::FromMedianP95(6.0, 14.0);
}

LambdaPlatform::LambdaPlatform(sim::SimEnvironment* env,
                               net::FabricDriver* fabric,
                               FunctionRegistry* registry,
                               const Options& options)
    : LifecyclePlatform(env, fabric, registry, "lambda",
                        "function crashed (injected): ", "throttle", &stats_),
      opt_(options),
      rng_(env->ForkRng(options.rng_stream)) {}

int LambdaPlatform::WarmSandboxCount(const std::string& function) const {
  auto it = warm_pool_.find(function);
  return it == warm_pool_.end() ? 0 : static_cast<int>(it->second.size());
}

int LambdaPlatform::CurrentScaleLimit() {
  // Concurrency may jump to the burst limit instantly, then the platform
  // scales tenant slots at `scale_rate_per_minute`. Regional contention slows
  // the ramp.
  int limit = opt_.burst_concurrency;
  if (ramp_start_ >= 0) {
    const double minutes = ToSeconds(env_->now() - ramp_start_) / 60.0;
    limit += static_cast<int>(opt_.scale_rate_per_minute * minutes /
                              opt_.region_contention);
  }
  return std::min(limit, opt_.account_concurrency);
}

void LambdaPlatform::Invoke(const std::string& function, Json payload,
                            ResponseCallback callback) {
  std::shared_ptr<Invocation> call =
      Open(function, std::move(payload), std::move(callback));
  SimDuration frontend = storage::SampleLatency(opt_.frontend_latency, &rng_);
  if (fault_injector_ != nullptr) {
    frontend += fault_injector_->MaybeInvokeDelay();
  }
  obs::SpanId frontend_span = obs::kNoSpan;
  if (tracer_ != nullptr) {
    frontend_span =
        tracer_->Begin("lambda", "frontend", "faas", call->invoke_span);
  }
  env_->Schedule(frontend, [this, call = std::move(call), frontend_span] {
    if (tracer_ != nullptr) tracer_->End(frontend_span);
    Admit(call);
  });
}

void LambdaPlatform::Admit(const std::shared_ptr<Invocation>& call) {
  Count(&stats_.invocations, ".invocations");
  // Admission: account-level concurrent execution quota.
  auto entry = registry_->Find(call->function);
  if (!entry.ok()) {
    Count(&stats_.errors, ".errors");
    Answer(*call, entry.status());
    return;
  }
  if (active_ >= opt_.account_concurrency) {
    Count(&stats_.throttles, ".throttles");
    if (tracer_ != nullptr) {
      tracer_->Instant("lambda", "throttle.concurrency", "faas",
                       call->invoke_span);
    }
    Answer(*call, Status::ResourceExhausted(
                      "429 TooManyRequestsException: account concurrency"));
    return;
  }
  // Burst/ramp scaling: beyond the initial burst, capacity grows at a
  // fixed rate per minute.
  if (active_ >= opt_.burst_concurrency && ramp_start_ < 0) {
    ramp_start_ = env_->now();
  }
  if (active_ >= CurrentScaleLimit()) {
    Count(&stats_.throttles, ".throttles");
    if (tracer_ != nullptr) {
      tracer_->Instant("lambda", "throttle.scaling", "faas",
                       call->invoke_span);
    }
    Answer(*call, Status::ResourceExhausted(
                      "429 TooManyRequestsException: scaling rate"));
    return;
  }
  call->entry = std::move(entry).ValueUnsafe();
  ++active_;
  if (active_ > stats_.active_peak) {
    stats_.active_peak = active_;
    if (metrics_ != nullptr) metrics_->Max("lambda.active_peak", active_);
  }

  // Assignment: look for a warm sandbox.
  auto& pool = warm_pool_[call->function];
  if (!pool.empty()) {
    call->sandbox = std::move(pool.front());
    pool.pop_front();
    --warm_total_;
    env_->Cancel(call->sandbox->reap_event);
    Count(&stats_.warm_starts, ".warm_starts");
    const SimDuration dispatch =
        storage::SampleLatency(opt_.warm_overhead, &rng_);
    obs::SpanId warm_span = obs::kNoSpan;
    if (tracer_ != nullptr) {
      warm_span =
          tracer_->Begin("lambda", "warm dispatch", "faas", call->invoke_span);
    }
    env_->Schedule(dispatch, [this, call, warm_span] {
      if (tracer_ != nullptr) tracer_->End(warm_span);
      Run(call, /*cold=*/false);
    });
    return;
  }

  // Placement: create a new execution environment (coldstart).
  Count(&stats_.cold_starts, ".cold_starts");
  call->sandbox = NewSandbox();
  const SimDuration cold = SampleColdstart(call->entry.config);
  if (metrics_ != nullptr) {
    metrics_->Record("lambda.coldstart_ms", ToMillis(cold));
  }
  obs::SpanId cold_span = obs::kNoSpan;
  if (tracer_ != nullptr) {
    cold_span = tracer_->Begin("lambda", "coldstart", "faas",
                               call->invoke_span);
    tracer_->SetArg(cold_span, "binary_bytes",
                    Json(call->entry.config.binary_size_bytes));
  }
  env_->Schedule(cold, [this, call, cold_span] {
    if (tracer_ != nullptr) tracer_->End(cold_span);
    Run(call, /*cold=*/true);
  });
}

void LambdaPlatform::Run(const std::shared_ptr<Invocation>& call, bool cold) {
  ++call->sandbox->uses;
  Execute(call, call->sandbox->nic.get(), cold);
}

SimDuration LambdaPlatform::SampleColdstart(const FunctionConfig& config) {
  double ms = ToMillis(opt_.coldstart_base) +
              ToMillis(opt_.runtime_init) +
              static_cast<double>(config.binary_size_bytes) /
                  opt_.binary_init_rate * 1000.0;
  ms *= rng_.Lognormal(0.0, opt_.coldstart_sigma) * opt_.region_contention;
  if (rng_.Bernoulli(opt_.coldstart_straggler_probability)) {
    ms += rng_.Pareto(opt_.coldstart_straggler_scale_ms,
                      opt_.coldstart_straggler_alpha);
  }
  return Millis(ms);
}

void LambdaPlatform::Release(Invocation& call, SimDuration duration,
                             bool keep) {
  // Abnormal terminations (timeout, sandbox kill) tear the execution
  // environment down instead of returning it to the warm pool. The billed
  // invocation cost is attributed to the execution span.
  const double usd = meter_.RecordLambdaInvocation(
      call.entry.config.memory_gib(), std::max<SimDuration>(duration, 1));
  if (tracer_ != nullptr) tracer_->AddCost(call.exec_span, usd);
  --active_;
  if (keep) {
    call.sandbox->nic->NotifyIdle();
    ReleaseSandbox(call.entry.config.name, call.sandbox);
  }
}

void LambdaPlatform::ReleaseSandbox(const std::string& function,
                                    std::shared_ptr<Sandbox> sandbox) {
  const uint64_t id = sandbox->id;
  const double lifetime_ms =
      ToMillis(opt_.idle_lifetime_median) *
      rng_.Lognormal(0.0, opt_.idle_lifetime_sigma);
  // A mutable copy of the name keeps the closure nothrow-movable, so the
  // kernel stores it inline instead of on the heap.
  sandbox->reap_event = env_->Schedule(
      Millis(lifetime_ms), [this, function = function, id] {
        auto& pool = warm_pool_[function];
        for (auto it = pool.begin(); it != pool.end(); ++it) {
          if ((*it)->id == id) {
            const int64_t uses = (*it)->uses;
            pool.erase(it);
            --warm_total_;
            ++stats_.reaped_sandboxes;
            if (metrics_ != nullptr) {
              metrics_->Add("lambda.reaped_sandboxes");
              // Reuse distribution: how many executions this environment
              // served before going idle long enough to be reclaimed.
              metrics_->Record("lambda.sandbox_uses",
                               static_cast<double>(uses));
            }
            if (tracer_ != nullptr) {
              tracer_->Instant("lambda", "sandbox.reap", "faas");
            }
            return;
          }
        }
      });
  warm_pool_[function].push_back(std::move(sandbox));
  ++warm_total_;
  if (warm_total_ > stats_.warm_pool_peak) {
    stats_.warm_pool_peak = warm_total_;
    if (metrics_ != nullptr) {
      metrics_->Max("lambda.warm_pool_peak", warm_total_);
    }
  }
}

std::shared_ptr<Sandbox> LambdaPlatform::NewSandbox() {
  ++stats_.sandboxes_created;
  auto sandbox = std::make_shared<Sandbox>();
  sandbox->nic = std::make_unique<net::LambdaNic>();
  sandbox->id = next_sandbox_id_++;
  return sandbox;
}

void LambdaPlatform::Prewarm(const std::string& function, int count) {
  for (int i = 0; i < count; ++i) ReleaseSandbox(function, NewSandbox());
}

}  // namespace skyrise::faas
