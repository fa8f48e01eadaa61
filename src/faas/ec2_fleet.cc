#include "faas/ec2_fleet.h"

#include <algorithm>

#include "common/deadline.h"

namespace skyrise::faas {

Ec2Fleet::Ec2Fleet(sim::SimEnvironment* env, net::FabricDriver* fabric,
                   FunctionRegistry* registry, const Options& options)
    : env_(env),
      fabric_(fabric),
      registry_(registry),
      opt_(options),
      rng_(env->ForkRng(options.rng_stream)) {
  SKYRISE_CHECK(opt_.instance_count >= 1 && opt_.slots_per_instance >= 1);
  auto nic_options = net::MakeEc2NicOptions(opt_.instance_type);
  SKYRISE_CHECK_OK(nic_options.status());
  for (int i = 0; i < opt_.instance_count; ++i) {
    nics_.push_back(std::make_unique<net::Ec2Nic>(*nic_options));
  }
}

void Ec2Fleet::Start(std::function<void()> on_ready) {
  SKYRISE_CHECK(!running_);
  if (tracer_ != nullptr) {
    fleet_span_ = tracer_->Begin("ec2", "fleet " + opt_.instance_type, "faas");
    tracer_->SetArg(fleet_span_, "instances", Json(opt_.instance_count));
    tracer_->SetArg(fleet_span_, "slots", Json(total_slots()));
  }
  const SimDuration boot =
      opt_.pre_provisioned
          ? 0
          : static_cast<SimDuration>(
                static_cast<double>(opt_.provision_time) *
                rng_.Lognormal(0.0, 0.2));
  env_->Schedule(boot, [this, on_ready = std::move(on_ready)] {
    running_ = true;
    started_at_ = env_->now();
    free_slots_ = total_slots();
    if (on_ready) on_ready();
    MaybeDispatch();
  });
}

void Ec2Fleet::Stop() {
  if (!running_) return;
  running_ = false;
  const double usd = meter_.RecordEc2Usage(
      opt_.instance_type, (env_->now() - started_at_) * opt_.instance_count,
      opt_.reserved_pricing);
  if (tracer_ != nullptr) {
    tracer_->AddCost(fleet_span_, usd);
    tracer_->End(fleet_span_);
    fleet_span_ = obs::kNoSpan;
  }
}

void Ec2Fleet::Invoke(const std::string& function, Json payload,
                      ResponseCallback callback) {
  Pending pending;
  pending.function = function;
  pending.enqueued_at = env_->now();
  if (tracer_ != nullptr) {
    pending.invoke_span =
        tracer_->Begin("ec2", "invoke " + function, "faas",
                       payload.GetInt("trace_parent", obs::kNoSpan));
    pending.queued_span =
        tracer_->Begin("ec2", "queued", "faas", pending.invoke_span);
    auto inner = std::make_shared<ResponseCallback>(std::move(callback));
    const obs::SpanId invoke_span = pending.invoke_span;
    callback = [this, invoke_span, inner](Result<Json> result) {
      const char* outcome = "ok";
      if (!result.ok()) {
        outcome = result.status().IsDeadlineExceeded() ? "timeout" : "error";
      }
      tracer_->EndWith(invoke_span, outcome);
      (*inner)(std::move(result));
    };
  }
  pending.payload = std::move(payload);
  pending.callback = std::move(callback);
  queue_.push_back(std::move(pending));
  MaybeDispatch();
}

void Ec2Fleet::MaybeDispatch() {
  while (running_ && free_slots_ > 0 && !queue_.empty()) {
    Pending pending = std::move(queue_.front());
    queue_.pop_front();
    --free_slots_;
    Dispatch(std::move(pending));
  }
}

void Ec2Fleet::Dispatch(Pending pending) {
  if (tracer_ != nullptr) tracer_->End(pending.queued_span);
  if (metrics_ != nullptr) {
    metrics_->Record("ec2.queue_wait_ms",
                     ToMillis(env_->now() - pending.enqueued_at));
  }
  auto entry = registry_->Find(pending.function);
  if (!entry.ok()) {
    ++free_slots_;
    pending.callback(entry.status());
    return;
  }
  // Shim dispatch is local: sub-millisecond, no coldstart.
  const int instance = next_slot_rr_++ % static_cast<int>(nics_.size());
  env_->Schedule(Micros(300), [this, entry = std::move(entry).ValueUnsafe(),
                               instance,
                               pending = std::move(pending)]() mutable {
    ++stats_.invocations;
    if (metrics_ != nullptr) metrics_->Add("ec2.invocations");
    // See LambdaPlatform::Execute: a propagated "deadline_us" clamps the
    // configured timeout to the query's remaining lifetime.
    const Deadline deadline =
        Deadline::At(pending.payload.GetInt("deadline_us", 0));
    auto ctx = std::make_shared<FunctionContext>(
        env_, nics_[static_cast<size_t>(instance)].get(), fabric_,
        std::move(pending.payload), /*cold_start=*/false, entry.config);
    obs::SpanId exec_span = obs::kNoSpan;
    const SimTime exec_start = env_->now();
    if (tracer_ != nullptr) {
      exec_span = tracer_->Begin("ec2", "exec " + entry.config.name, "faas",
                                 pending.invoke_span);
      tracer_->SetArg(exec_span, "cold", Json(false));
      tracer_->SetArg(exec_span, "memory_mib", Json(entry.config.memory_mib));
    }
    ctx->set_observability(tracer_, exec_span, metrics_);
    auto callback =
        std::make_shared<ResponseCallback>(std::move(pending.callback));
    // The handler, the enforced timeout, and an injected crash race to
    // settle the slot; first one through the gate wins.
    struct Gate {
      bool settled = false;
      sim::EventId timeout_event = sim::kInvalidEventId;
      sim::EventId crash_event = sim::kInvalidEventId;
    };
    auto gate = std::make_shared<Gate>();
    auto settle = [this, gate, exec_span, exec_start](const char* outcome) {
      env_->Cancel(gate->timeout_event);
      env_->Cancel(gate->crash_event);
      if (tracer_ != nullptr) tracer_->EndWith(exec_span, outcome);
      if (metrics_ != nullptr) {
        metrics_->Record("ec2.exec_ms", ToMillis(env_->now() - exec_start));
      }
      ++free_slots_;
      MaybeDispatch();
    };
    ctx->set_on_finish([gate, settle, callback](Json response) {
      if (gate->settled) return;
      gate->settled = true;
      settle("ok");
      (*callback)(std::move(response));
    });
    ctx->set_on_finish_error([this, gate, settle, callback](Status status) {
      if (gate->settled) return;
      gate->settled = true;
      ++stats_.errors;
      if (metrics_ != nullptr) metrics_->Add("ec2.errors");
      settle("error");
      (*callback)(std::move(status));
    });
    const std::string function = entry.config.name;
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
              metrics_->Add("ec2.timeouts");
              metrics_->Add("ec2.errors");
              if (deadline_clamped) metrics_->Add("ec2.deadline_kills");
            }
            settle("timeout");
            (*callback)(Status::DeadlineExceeded(
                (deadline_clamped ? "Query deadline exceeded in: "
                                  : "Task timed out: ") +
                function));
          });
    }
    if (fault_injector_ != nullptr) {
      const auto crash = fault_injector_->SampleCrash(function);
      if (crash.crash) {
        gate->crash_event = env_->Schedule(
            crash.after, [this, gate, settle, callback, function] {
              if (gate->settled) return;
              gate->settled = true;
              ++stats_.crashes;
              ++stats_.errors;
              if (metrics_ != nullptr) {
                metrics_->Add("ec2.crashes");
                metrics_->Add("ec2.errors");
              }
              settle("crash");
              (*callback)(Status::IoError("worker crashed (injected): " +
                                          function));
            });
      }
    }
    entry.handler(ctx);
  });
}

}  // namespace skyrise::faas
