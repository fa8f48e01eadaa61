#include "faas/lambda_platform.h"

#include <algorithm>

#include "common/deadline.h"

namespace skyrise::faas {

LambdaPlatform::Options::Options() {
  frontend_latency = storage::LatencyProfile::FromMedianP95(3.0, 7.0);
  warm_overhead = storage::LatencyProfile::FromMedianP95(6.0, 14.0);
}

LambdaPlatform::LambdaPlatform(sim::SimEnvironment* env,
                               net::FabricDriver* fabric,
                               FunctionRegistry* registry,
                               const Options& options)
    : env_(env),
      fabric_(fabric),
      registry_(registry),
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
  DoInvoke(function, std::move(payload), std::move(callback), 0);
}

void LambdaPlatform::InvokeAsync(const std::string& function, Json payload,
                                 ResponseCallback callback) {
  // Events are polled from queues by the polling service and invoked by
  // proxy, adding latency to the invocation path.
  DoInvoke(function, std::move(payload), std::move(callback),
           opt_.async_poll_latency);
}

void LambdaPlatform::DoInvoke(const std::string& function, Json payload,
                              ResponseCallback callback,
                              SimDuration extra_latency) {
  obs::SpanId invoke_span = obs::kNoSpan;
  if (tracer_ != nullptr) {
    invoke_span = tracer_->Begin("lambda", "invoke " + function, "faas",
                                 payload.GetInt("trace_parent", obs::kNoSpan));
    // The invoke span closes when the caller's response callback fires, with
    // an outcome derived from the final status.
    auto inner = std::make_shared<ResponseCallback>(std::move(callback));
    callback = [this, invoke_span, inner](Result<Json> result) {
      const char* outcome = "ok";
      if (!result.ok()) {
        const Status& st = result.status();
        outcome = st.IsResourceExhausted() ? "throttle"
                  : st.IsDeadlineExceeded() ? "timeout"
                                            : "error";
      }
      tracer_->EndWith(invoke_span, outcome);
      (*inner)(std::move(result));
    };
  }
  SimDuration frontend =
      storage::SampleLatency(opt_.frontend_latency, &rng_) + extra_latency;
  if (fault_injector_ != nullptr) {
    frontend += fault_injector_->MaybeInvokeDelay();
  }
  obs::SpanId frontend_span = obs::kNoSpan;
  if (tracer_ != nullptr) {
    frontend_span = tracer_->Begin("lambda", "frontend", "faas", invoke_span);
  }
  env_->Schedule(frontend, [this, function, invoke_span, frontend_span,
                            payload = std::move(payload),
                            callback = std::move(callback)]() mutable {
    if (tracer_ != nullptr) tracer_->End(frontend_span);
    ++stats_.invocations;
    if (metrics_ != nullptr) metrics_->Add("lambda.invocations");
    // Admission: account-level concurrent execution quota.
    auto entry = registry_->Find(function);
    if (!entry.ok()) {
      ++stats_.errors;
      if (metrics_ != nullptr) metrics_->Add("lambda.errors");
      callback(entry.status());
      return;
    }
    if (active_ >= opt_.account_concurrency) {
      ++stats_.throttles;
      if (metrics_ != nullptr) metrics_->Add("lambda.throttles");
      if (tracer_ != nullptr) {
        tracer_->Instant("lambda", "throttle.concurrency", "faas",
                         invoke_span);
      }
      callback(Status::ResourceExhausted(
          "429 TooManyRequestsException: account concurrency"));
      return;
    }
    // Burst/ramp scaling: beyond the initial burst, capacity grows at a
    // fixed rate per minute.
    if (active_ >= opt_.burst_concurrency && ramp_start_ < 0) {
      ramp_start_ = env_->now();
    }
    if (active_ >= CurrentScaleLimit()) {
      ++stats_.throttles;
      if (metrics_ != nullptr) metrics_->Add("lambda.throttles");
      if (tracer_ != nullptr) {
        tracer_->Instant("lambda", "throttle.scaling", "faas", invoke_span);
      }
      callback(Status::ResourceExhausted(
          "429 TooManyRequestsException: scaling rate"));
      return;
    }
    ++active_;
    if (active_ > stats_.active_peak) {
      stats_.active_peak = active_;
      if (metrics_ != nullptr) metrics_->Max("lambda.active_peak", active_);
    }

    // Assignment: look for a warm sandbox.
    auto& pool = warm_pool_[function];
    if (!pool.empty()) {
      std::shared_ptr<Sandbox> sandbox = std::move(pool.front());
      pool.pop_front();
      --warm_total_;
      env_->Cancel(sandbox->reap_event);
      ++stats_.warm_starts;
      if (metrics_ != nullptr) metrics_->Add("lambda.warm_starts");
      const SimDuration dispatch =
          storage::SampleLatency(opt_.warm_overhead, &rng_);
      obs::SpanId warm_span = obs::kNoSpan;
      if (tracer_ != nullptr) {
        warm_span = tracer_->Begin("lambda", "warm dispatch", "faas",
                                   invoke_span);
      }
      env_->Schedule(dispatch, [this, invoke_span, warm_span,
                                entry = std::move(entry).ValueUnsafe(),
                                sandbox = std::move(sandbox),
                                payload = std::move(payload),
                                callback = std::move(callback)]() mutable {
        if (tracer_ != nullptr) tracer_->End(warm_span);
        Execute(entry, std::move(sandbox), std::move(payload), /*cold=*/false,
                invoke_span, std::move(callback));
      });
      return;
    }

    // Placement: create a new execution environment (coldstart).
    ++stats_.cold_starts;
    ++stats_.sandboxes_created;
    if (metrics_ != nullptr) metrics_->Add("lambda.cold_starts");
    auto sandbox = std::make_shared<Sandbox>();
    sandbox->nic = std::make_unique<net::LambdaNic>();
    sandbox->id = next_sandbox_id_++;
    const SimDuration cold = SampleColdstart(entry->config);
    if (metrics_ != nullptr) {
      metrics_->Record("lambda.coldstart_ms", ToMillis(cold));
    }
    obs::SpanId cold_span = obs::kNoSpan;
    if (tracer_ != nullptr) {
      cold_span = tracer_->Begin("lambda", "coldstart", "faas", invoke_span);
      tracer_->SetArg(cold_span, "binary_bytes",
                      Json(entry->config.binary_size_bytes));
    }
    env_->Schedule(cold, [this, invoke_span, cold_span,
                          entry = std::move(entry).ValueUnsafe(),
                          sandbox = std::move(sandbox),
                          payload = std::move(payload),
                          callback = std::move(callback)]() mutable {
      if (tracer_ != nullptr) tracer_->End(cold_span);
      Execute(entry, std::move(sandbox), std::move(payload), /*cold=*/true,
              invoke_span, std::move(callback));
    });
  });
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

void LambdaPlatform::Execute(const FunctionRegistry::Entry& entry,
                             std::shared_ptr<Sandbox> sandbox, Json payload,
                             bool cold, obs::SpanId invoke_span,
                             ResponseCallback callback) {
  // End-to-end deadline: a propagated "deadline_us" (absolute sim time)
  // clamps the configured function timeout to the query's remaining
  // lifetime, so an execution never outlives the query that invoked it.
  const Deadline deadline = Deadline::At(payload.GetInt("deadline_us", 0));
  auto ctx = std::make_shared<FunctionContext>(
      env_, sandbox->nic.get(), fabric_, std::move(payload), cold,
      entry.config);
  const SimTime exec_start = env_->now();
  const std::string function = entry.config.name;
  ++sandbox->uses;
  obs::SpanId exec_span = obs::kNoSpan;
  if (tracer_ != nullptr) {
    exec_span = tracer_->Begin("lambda", "exec " + function, "faas",
                               invoke_span);
    tracer_->SetArg(exec_span, "cold", Json(cold));
    tracer_->SetArg(exec_span, "memory_mib", Json(entry.config.memory_mib));
  }
  ctx->set_observability(tracer_, exec_span, metrics_);
  // The handler, the enforced timeout, and an injected crash race to settle
  // the execution; whichever claims the gate first wins, the others no-op.
  struct Gate {
    bool settled = false;
    sim::EventId timeout_event = sim::kInvalidEventId;
    sim::EventId crash_event = sim::kInvalidEventId;
  };
  auto gate = std::make_shared<Gate>();
  // Shared cleanup. Abnormal terminations (timeout, sandbox kill) tear the
  // execution environment down instead of returning it to the warm pool.
  // The billed invocation cost is attributed to the execution span; the
  // handler may keep running as a zombie after an abnormal settle, so its
  // child spans (on other tracks) can outlive this one.
  auto settle = [this, gate, exec_start, exec_span, function, sandbox,
                 config = entry.config](bool keep_sandbox,
                                        const char* outcome) {
    env_->Cancel(gate->timeout_event);
    env_->Cancel(gate->crash_event);
    const SimDuration duration = env_->now() - exec_start;
    const double usd = meter_.RecordLambdaInvocation(
        config.memory_gib(), std::max<SimDuration>(duration, 1));
    if (tracer_ != nullptr) {
      tracer_->AddCost(exec_span, usd);
      tracer_->EndWith(exec_span, outcome);
    }
    if (metrics_ != nullptr) {
      metrics_->Record("lambda.exec_ms", ToMillis(duration));
    }
    --active_;
    if (keep_sandbox) {
      sandbox->nic->NotifyIdle();
      ReleaseSandbox(function, sandbox);
    }
  };
  ctx->set_on_finish([gate, settle, callback](Json response) mutable {
    if (gate->settled) return;
    gate->settled = true;
    settle(/*keep_sandbox=*/true, "ok");
    callback(std::move(response));
  });
  ctx->set_on_finish_error(
      [this, gate, settle, callback](Status status) mutable {
        if (gate->settled) return;
        gate->settled = true;
        ++stats_.errors;
        if (metrics_ != nullptr) metrics_->Add("lambda.errors");
        settle(/*keep_sandbox=*/true, "error");
        callback(std::move(status));
      });
  SimDuration timeout = entry.config.timeout;
  bool deadline_clamped = false;
  if (deadline.bounded()) {
    const SimDuration remaining =
        std::max<SimDuration>(1, deadline.Remaining(env_->now()));
    if (timeout <= 0 || remaining < timeout) {
      timeout = remaining;
      deadline_clamped = true;
    }
  }
  if (timeout > 0) {
    gate->timeout_event = env_->Schedule(
        timeout,
        [this, gate, settle, callback, function, deadline_clamped] {
          if (gate->settled) return;
          gate->settled = true;
          ++stats_.timeouts;
          ++stats_.errors;
          if (metrics_ != nullptr) {
            metrics_->Add("lambda.timeouts");
            metrics_->Add("lambda.errors");
            if (deadline_clamped) metrics_->Add("lambda.deadline_kills");
          }
          settle(/*keep_sandbox=*/false, "timeout");
          callback(Status::DeadlineExceeded(
              (deadline_clamped ? "Query deadline exceeded in: "
                                : "Task timed out: ") +
              function));
        });
  }
  if (fault_injector_ != nullptr) {
    const auto crash = fault_injector_->SampleCrash(function);
    if (crash.crash) {
      gate->crash_event = env_->Schedule(
          crash.after,
          [this, gate, settle, callback, function,
           kill = crash.kill_sandbox] {
            if (gate->settled) return;
            gate->settled = true;
            ++stats_.crashes;
            ++stats_.errors;
            if (metrics_ != nullptr) {
              metrics_->Add("lambda.crashes");
              metrics_->Add("lambda.errors");
            }
            settle(/*keep_sandbox=*/!kill, "crash");
            callback(Status::IoError("function crashed (injected): " +
                                     function));
          });
    }
  }
  entry.handler(ctx);
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

void LambdaPlatform::Prewarm(const std::string& function, int count) {
  for (int i = 0; i < count; ++i) {
    ++stats_.sandboxes_created;
    auto sandbox = std::make_shared<Sandbox>();
    sandbox->nic = std::make_unique<net::LambdaNic>();
    sandbox->id = next_sandbox_id_++;
    ReleaseSandbox(function, std::move(sandbox));
  }
}

}  // namespace skyrise::faas
