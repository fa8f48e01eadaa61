#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "faas/function.h"
#include "faas/lambda_platform.h"
#include "host_trace.h"
#include "storage/object_store.h"

/// \file wrappers.h
/// Forwarding wrappers around the public interfaces the benchmark wires into
/// the simulator: the storage service, the compute platform and the engine's
/// registered function handlers. Each wrapper opens a host-time scope around
/// the call and around the completion callback it hands back, and counts the
/// work that crosses it. They forward arguments unchanged and schedule
/// nothing, so a wrapped run fires exactly the events an unwrapped run does.

namespace hostbench {

namespace sky = skyrise;

struct StoreCounters {
  int64_t calls = 0;
  int64_t completions = 0;
  int64_t failed = 0;  ///< Completions with an error status (per attempt).
  int64_t read_bytes = 0;
  int64_t write_bytes = 0;
  int64_t transfers = 0;       ///< Completed requests that streamed through
  int64_t transfer_bytes = 0;  ///< the fluid network fabric.
  int64_t scan_bytes = 0;      ///< Read from `tables/` objects.
  int64_t shuffle_bytes = 0;   ///< Written to `shuffle/` objects.
};

class TimedStore : public sky::storage::StorageService {
 public:
  /// `completion_layer` names the code the store's completions run into:
  /// the benchmark's RetryClient (kStorageRetry) or the engine
  /// (kEngineCallback).
  TimedStore(sky::storage::ObjectStore* inner, HostTrace* trace,
             Layer completion_layer)
      : inner_(inner), trace_(trace), completion_layer_(completion_layer) {}

  const std::string& service_name() const override {
    return inner_->service_name();
  }
  void Get(const std::string& key, const sky::storage::ClientContext& ctx,
           sky::storage::GetCallback callback) override;
  void GetRange(const std::string& key, int64_t offset, int64_t length,
                const sky::storage::ClientContext& ctx,
                sky::storage::GetCallback callback) override;
  void Put(const std::string& key, sky::storage::Blob data,
           const sky::storage::ClientContext& ctx,
           sky::storage::PutCallback callback) override;

  [[nodiscard]] sky::Status Insert(const std::string& key,
                                   sky::storage::Blob data) override {
    return inner_->Insert(key, std::move(data));
  }
  [[nodiscard]] sky::Result<sky::storage::Blob> Peek(
      const std::string& key) const override {
    return inner_->Peek(key);
  }
  [[nodiscard]] sky::Status Delete(const std::string& key) override {
    return inner_->Delete(key);
  }
  std::vector<sky::storage::ObjectInfo> List(
      const std::string& prefix) const override {
    return inner_->List(prefix);
  }
  bool Contains(const std::string& key) const override {
    return inner_->Contains(key);
  }

  const StoreCounters& counters() const { return counters_; }

 private:
  sky::storage::GetCallback WrapRead(const std::string& key,
                                     const sky::storage::ClientContext& ctx,
                                     sky::storage::GetCallback callback,
                                     uint64_t id);

  sky::storage::ObjectStore* inner_;
  HostTrace* trace_;
  Layer completion_layer_;
  StoreCounters counters_;
};

struct PlatformCounters {
  int64_t invocations = 0;
  int64_t queries = 0;         ///< Coordinator invocations completed.
  int64_t batches = 0;          ///< Morsels reported by completed queries.
  int64_t handlers = 0;         ///< Handler runs of all three functions.
  int64_t worker_handlers = 0;  ///< Fragment executions (worker runs).
};

/// One query as the compute platform saw it: the simulated time the
/// coordinator was invoked and the time its response arrived.
struct QueryTiming {
  std::string query_id;
  sky::SimTime invoked = 0;
  sky::SimTime completed = 0;
  bool ok = false;
};

class TimedPlatform : public sky::faas::ComputePlatform {
 public:
  TimedPlatform(sky::faas::LambdaPlatform* inner,
                sky::sim::SimEnvironment* env, HostTrace* trace)
      : inner_(inner), env_(env), trace_(trace) {}

  void Invoke(const std::string& function, sky::Json payload,
              sky::faas::ResponseCallback callback) override;
  const std::string& platform_name() const override {
    return inner_->platform_name();
  }
  void set_observer(sky::obs::Tracer* tracer,
                    sky::obs::MetricsRegistry* metrics) override {
    inner_->set_observer(tracer, metrics);
  }

  /// Copies the engine's coordinator, worker and invoker functions from
  /// `deployed` into `target`, each handler wrapped in an engine scope.
  [[nodiscard]] sky::Status WrapHandlers(
      const sky::faas::FunctionRegistry& deployed,
      sky::faas::FunctionRegistry* target);

  const PlatformCounters& counters() const { return counters_; }
  /// Queries in completion order.
  const std::vector<QueryTiming>& queries() const { return queries_; }

 private:
  sky::faas::LambdaPlatform* inner_;
  sky::sim::SimEnvironment* env_;
  HostTrace* trace_;
  PlatformCounters counters_;
  std::vector<QueryTiming> queries_;
};

}  // namespace hostbench
