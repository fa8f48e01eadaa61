#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>

#include "common/json.h"
#include "common/units.h"
#include "net/fabric_driver.h"
#include "net/nic.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/environment.h"

/// \file function.h
/// Cloud function abstraction shared by the FaaS platform (Lambda) and the
/// IaaS shim (EC2): the paper deploys the *same* coordinator/worker binaries
/// on both. A handler is a C++ callback standing in for the function binary;
/// it drives simulated I/O through the context and must finish exactly once.

namespace skyrise::faas {

struct FunctionConfig {
  std::string name;
  double memory_mib = 1769;
  int64_t binary_size_bytes = 8 * kMiB;  ///< Paper keeps binaries < 10 MiB.
  SimDuration timeout = Minutes(15);

  /// Lambda grants one vCPU equivalent per 1,769 MiB of configured memory.
  int vcpus() const {
    return std::max(1, static_cast<int>(memory_mib / 1769.0 + 0.5));
  }
  double memory_gib() const { return memory_mib / 1024.0; }
};

class FunctionContext;
using FunctionHandler =
    std::function<void(const std::shared_ptr<FunctionContext>&)>;
using ResponseCallback = std::function<void(Result<Json>)>;

/// Execution-environment handle passed to a running function.
class FunctionContext : public std::enable_shared_from_this<FunctionContext> {
 public:
  FunctionContext(sim::SimEnvironment* env, net::Nic* nic,
                  net::FabricDriver* fabric, Json payload, bool cold_start,
                  const FunctionConfig& config)
      : env_(env),
        nic_(nic),
        fabric_(fabric),
        payload_(std::move(payload)),
        cold_start_(cold_start),
        config_(config) {}

  sim::SimEnvironment* env() const { return env_; }
  /// The sandbox/instance NIC; storage clients pass it in a ClientContext so
  /// large payloads stream through the function's network budget.
  net::Nic* nic() const { return nic_; }
  net::FabricDriver* fabric() const { return fabric_; }
  const Json& payload() const { return payload_; }
  bool cold_start() const { return cold_start_; }
  const FunctionConfig& config() const { return config_; }

  /// Models CPU work: schedules `then` after `cpu_time` of virtual time.
  void Compute(SimDuration cpu_time, std::function<void()> then) {
    env_->Schedule(cpu_time, std::move(then));
  }

  /// Completes the invocation successfully. Must be called exactly once.
  void Finish(Json response) {
    SKYRISE_CHECK(!finished_);
    finished_ = true;
    if (on_finish_) on_finish_(std::move(response));
  }

  /// Completes the invocation with an error.
  void FinishError(Status status) {
    SKYRISE_CHECK(!finished_);
    SKYRISE_CHECK(!status.ok());
    finished_ = true;
    if (on_finish_error_) on_finish_error_(std::move(status));
  }

  bool finished() const { return finished_; }

  // Wired by the platform before the handler runs.
  void set_on_finish(std::function<void(Json)> cb) {
    on_finish_ = std::move(cb);
  }
  void set_on_finish_error(std::function<void(Status)> cb) {
    on_finish_error_ = std::move(cb);
  }

  /// Observability hooks, wired by the platform before the handler runs.
  /// `span` is the execution span for this invocation; handlers open child
  /// spans under it and storage clients attribute request costs to it.
  /// All three may be null/kNoSpan when tracing is off.
  void set_observability(obs::Tracer* tracer, obs::SpanId span,
                         obs::MetricsRegistry* metrics) {
    tracer_ = tracer;
    span_ = span;
    metrics_ = metrics;
  }
  obs::Tracer* tracer() const { return tracer_; }
  obs::SpanId span() const { return span_; }
  obs::MetricsRegistry* metrics() const { return metrics_; }

 private:
  sim::SimEnvironment* env_;
  net::Nic* nic_;
  net::FabricDriver* fabric_;
  Json payload_;
  bool cold_start_;
  FunctionConfig config_;
  bool finished_ = false;
  std::function<void(Json)> on_finish_;
  std::function<void(Status)> on_finish_error_;
  obs::Tracer* tracer_ = nullptr;
  obs::SpanId span_ = obs::kNoSpan;
  obs::MetricsRegistry* metrics_ = nullptr;
};

/// Uploaded function binaries: name -> (config, handler). Shared between the
/// FaaS platform and the EC2 shim so both run identical "binaries".
class FunctionRegistry {
 public:
  [[nodiscard]] Status Register(const FunctionConfig& config, FunctionHandler handler) {
    if (functions_.count(config.name) > 0) {
      return Status::AlreadyExists("function exists: " + config.name);
    }
    functions_[config.name] = {config, std::move(handler)};
    return Status::OK();
  }

  struct Entry {
    FunctionConfig config;
    FunctionHandler handler;
  };

  [[nodiscard]] Result<Entry> Find(const std::string& name) const {
    auto it = functions_.find(name);
    if (it == functions_.end()) {
      return Status::NotFound("no such function: " + name);
    }
    return it->second;
  }

 private:
  std::map<std::string, Entry> functions_;
};

/// Compute platforms (FaaS or IaaS shim) expose the same invocation API, so
/// the engine's coordinator is deployment-agnostic (Fig. 4).
class ComputePlatform {
 public:
  virtual ~ComputePlatform() = default;
  virtual void Invoke(const std::string& function, Json payload,
                      ResponseCallback callback) = 0;
  virtual const std::string& platform_name() const = 0;

  /// Attaches a span/metric sink for the invocation lifecycle. Callers may
  /// carry a parent span into Invoke via `payload["trace_parent"]`.
  virtual void set_observer(obs::Tracer* /*tracer*/,
                            obs::MetricsRegistry* /*metrics*/) {}
};

}  // namespace skyrise::faas
