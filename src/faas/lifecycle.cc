#include "faas/lifecycle.h"

#include <algorithm>

#include "common/deadline.h"

namespace skyrise::faas {

std::shared_ptr<Invocation> LifecyclePlatform::Open(
    const std::string& function, Json payload, ResponseCallback callback) {
  auto call = std::make_shared<Invocation>();
  call->function = function;
  if (tracer_ != nullptr) {
    call->invoke_span =
        tracer_->Begin(name_, "invoke " + function, "faas",
                       payload.GetInt("trace_parent", obs::kNoSpan));
  }
  call->payload = std::move(payload);
  call->callback = std::move(callback);
  return call;
}

void LifecyclePlatform::Execute(const std::shared_ptr<Invocation>& call,
                                net::Nic* nic, bool cold) {
  const FunctionConfig& config = call->entry.config;
  // End-to-end deadline: a propagated "deadline_us" (absolute sim time)
  // clamps the configured function timeout to the query's remaining
  // lifetime, so an execution never outlives the query that invoked it.
  const Deadline deadline =
      Deadline::At(call->payload.GetInt("deadline_us", 0));
  auto ctx = std::make_shared<FunctionContext>(
      env_, nic, fabric_, std::move(call->payload), cold, config);
  call->exec_start = env_->now();
  if (tracer_ != nullptr) {
    call->exec_span = tracer_->Begin(name_, "exec " + config.name, "faas",
                                     call->invoke_span);
    tracer_->SetArg(call->exec_span, "cold", Json(cold));
    tracer_->SetArg(call->exec_span, "memory_mib", Json(config.memory_mib));
  }
  ctx->set_observability(tracer_, call->exec_span, metrics_);
  // The handler, the enforced timeout, and an injected crash race to settle
  // the execution; whichever comes first wins, the others find it settled.
  ctx->set_on_finish([this, call](Json response) {
    if (!call->settled) Settle(*call, "ok", true, std::move(response));
  });
  ctx->set_on_finish_error([this, call](Status status) {
    if (!call->settled) Settle(*call, "error", true, std::move(status));
  });
  SimDuration timeout = config.timeout;
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
    call->timeout_event =
        env_->Schedule(timeout, [this, call, deadline_clamped] {
          if (call->settled) return;
          Count(&counts_->timeouts, ".timeouts");
          if (deadline_clamped && metrics_ != nullptr) {
            metrics_->Add(name_ + ".deadline_kills");
          }
          Settle(*call, "timeout", false,
                 Status::DeadlineExceeded(
                     (deadline_clamped ? "Query deadline exceeded in: "
                                       : "Task timed out: ") +
                     call->entry.config.name));
        });
  }
  if (fault_injector_ != nullptr) {
    const auto crash = fault_injector_->SampleCrash(config.name);
    if (crash.crash) {
      call->crash_event = env_->Schedule(
          crash.after, [this, call, kill = crash.kill_sandbox] {
            if (call->settled) return;
            Count(&counts_->crashes, ".crashes");
            Settle(*call, "crash", !kill,
                   Status::IoError(crashed_ + call->entry.config.name));
          });
    }
  }
  call->entry.handler(ctx);
}

void LifecyclePlatform::Settle(Invocation& call, const char* outcome,
                               bool keep, Result<Json> result) {
  call.settled = true;
  if (!result.ok()) Count(&counts_->errors, ".errors");
  env_->Cancel(call.timeout_event);
  env_->Cancel(call.crash_event);
  // The handler may keep running as a zombie after an abnormal settle, so
  // its child spans (on other tracks) can outlive this one.
  const SimDuration duration = env_->now() - call.exec_start;
  if (tracer_ != nullptr) tracer_->EndWith(call.exec_span, outcome);
  if (metrics_ != nullptr) {
    metrics_->Record(name_ + ".exec_ms", ToMillis(duration));
  }
  Release(call, duration, keep);
  Answer(call, std::move(result));
}

void LifecyclePlatform::Answer(Invocation& call, Result<Json> result) {
  if (tracer_ != nullptr) {
    const char* outcome = "ok";
    if (!result.ok()) {
      const Status& st = result.status();
      outcome = st.IsResourceExhausted() ? exhausted_
                : st.IsDeadlineExceeded() ? "timeout"
                                          : "error";
    }
    tracer_->EndWith(call.invoke_span, outcome);
  }
  call.callback(std::move(result));
}

void LifecyclePlatform::Count(int64_t* counter, const char* suffix) {
  ++*counter;
  if (metrics_ != nullptr) metrics_->Add(name_ + suffix);
}

}  // namespace skyrise::faas
