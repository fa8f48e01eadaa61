#pragma once

#include <memory>
#include <string>

#include "faas/function.h"
#include "sim/fault_injector.h"

/// \file lifecycle.h
/// The execution lifecycle that the Lambda platform and the EC2 shim share,
/// so the paper's two deployments of one engine differ only in how a call
/// reaches a handler and what settling it frees.
///
///   Invoke -> [platform: routing, admission, queueing, placement]
///          -> Execute: context, exec span, timeout (clamped by the call's
///             "deadline_us"), injected crash, handler
///          -> the first of finish / finish-error / timeout / crash settles:
///             exec span, "<platform>.*" counters, [platform: Release]
///          -> Answer: invoke span, the caller's callback, exactly once

namespace skyrise::faas {

struct Sandbox;

/// One invocation, from Invoke until the caller is answered. Every event of
/// the invocation and its FunctionContext's finish hooks share it; it holds
/// no context, so it forms no cycle and dies with the last of them.
struct Invocation {
  std::string function;
  Json payload;  ///< Moved into the FunctionContext when execution starts.
  ResponseCallback callback;
  FunctionRegistry::Entry entry;     ///< Found at admission.
  std::shared_ptr<Sandbox> sandbox;  ///< Lambda's execution environment.
  obs::SpanId invoke_span = obs::kNoSpan;
  obs::SpanId exec_span = obs::kNoSpan;
  SimTime exec_start = 0;
  sim::EventId timeout_event = sim::kInvalidEventId;
  sim::EventId crash_event = sim::kInvalidEventId;
  bool settled = false;  ///< The handler, timeout or crash got there first.
};

/// The counters the lifecycle keeps; each platform's Stats extends them.
struct ExecutionStats {
  int64_t errors = 0;
  int64_t timeouts = 0;  ///< Executions killed at FunctionConfig::timeout.
  int64_t crashes = 0;   ///< Injected crashes.
};

/// A compute platform that runs its invocations through the lifecycle.
class LifecyclePlatform : public ComputePlatform {
 public:
  const std::string& platform_name() const override { return name_; }

  /// Emits the lifecycle as spans on the platform's track and mirrors its
  /// Stats onto "<platform>.*" counters.
  void set_observer(obs::Tracer* tracer,
                    obs::MetricsRegistry* metrics) override {
    tracer_ = tracer;
    metrics_ = metrics;
  }

  /// Installs a fault injector: executions may crash mid-flight. Pass
  /// nullptr to disable.
  void set_fault_injector(sim::FaultInjector* injector) {
    fault_injector_ = injector;
  }

 protected:
  /// `name` is the span track and metric prefix; `crashed` prefixes an
  /// injected crash's message; `exhausted` is the invoke span's outcome for
  /// a ResourceExhausted answer. `counts` lies in the derived platform.
  LifecyclePlatform(sim::SimEnvironment* env, net::FabricDriver* fabric,
                    FunctionRegistry* registry, std::string name,
                    const char* crashed, const char* exhausted,
                    ExecutionStats* counts)
      : env_(env),
        fabric_(fabric),
        registry_(registry),
        name_(std::move(name)),
        crashed_(crashed),
        exhausted_(exhausted),
        counts_(counts) {}

  /// Makes the record and opens its invoke span.
  std::shared_ptr<Invocation> Open(const std::string& function, Json payload,
                                   ResponseCallback callback);

  /// Runs the admitted call's handler on `nic` and arms its timeout and
  /// injected crash.
  void Execute(const std::shared_ptr<Invocation>& call, net::Nic* nic,
               bool cold);

  /// Ends the invoke span and answers the caller.
  void Answer(Invocation& call, Result<Json> result);

  /// Adds one to `*counter` and to the "<platform><suffix>" metric.
  void Count(int64_t* counter, const char* suffix);

  /// The platform's part of settling: frees what the execution held.
  /// `keep` is false when the execution environment died with it.
  virtual void Release(Invocation& call, SimDuration duration, bool keep) = 0;

  sim::SimEnvironment* env_;
  net::FabricDriver* fabric_;
  FunctionRegistry* registry_;
  sim::FaultInjector* fault_injector_ = nullptr;
  obs::Tracer* tracer_ = nullptr;
  obs::MetricsRegistry* metrics_ = nullptr;

 private:
  /// Settles the call; the caller has checked that nothing settled it yet.
  void Settle(Invocation& call, const char* outcome, bool keep,
              Result<Json> result);

  std::string name_;
  const char* crashed_;
  const char* exhausted_;
  ExecutionStats* counts_;
};

}  // namespace skyrise::faas
