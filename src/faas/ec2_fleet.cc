#include "faas/ec2_fleet.h"

namespace skyrise::faas {

Ec2Fleet::Ec2Fleet(sim::SimEnvironment* env, net::FabricDriver* fabric,
                   FunctionRegistry* registry, const Options& options)
    : LifecyclePlatform(env, fabric, registry, "ec2",
                        "worker crashed (injected): ", "error", &stats_),
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
  pending.call = Open(function, std::move(payload), std::move(callback));
  pending.enqueued_at = env_->now();
  if (tracer_ != nullptr) {
    pending.queued_span =
        tracer_->Begin("ec2", "queued", "faas", pending.call->invoke_span);
  }
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
  auto entry = registry_->Find(pending.call->function);
  if (!entry.ok()) {
    ++free_slots_;
    Count(&stats_.invocations, ".invocations");
    Count(&stats_.errors, ".errors");
    Answer(*pending.call, entry.status());
    return;
  }
  pending.call->entry = std::move(entry).ValueUnsafe();
  // Shim dispatch is local: sub-millisecond, no coldstart.
  const int instance = next_slot_rr_++ % static_cast<int>(nics_.size());
  net::Nic* nic = nics_[static_cast<size_t>(instance)].get();
  env_->Schedule(Micros(300), [this, call = std::move(pending.call), nic] {
    Count(&stats_.invocations, ".invocations");
    Execute(call, nic, /*cold=*/false);
  });
}

void Ec2Fleet::Release(Invocation& /*call*/, SimDuration /*duration*/,
                       bool /*keep*/) {
  ++free_slots_;
  MaybeDispatch();
}

}  // namespace skyrise::faas
