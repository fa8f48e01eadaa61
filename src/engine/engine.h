#pragma once

#include "engine/coordinator.h"
#include "engine/context.h"
#include "faas/ec2_fleet.h"
#include "faas/lambda_platform.h"

/// \file engine.h
/// Facade for the Skyrise serverless query engine (Fig. 4): deploys the
/// coordinator/worker/invoker function binaries into a registry shared by
/// the FaaS platform and the IaaS shim, and submits physical plans to either
/// deployment. The query plan and execution logic are identical across
/// deployments; only the invocation substrate differs.

namespace skyrise::engine {

struct QueryResponse {
  std::string result_key;
  double runtime_ms = 0;
  double cumulated_worker_ms = 0;
  int total_workers = 0;
  int peak_workers = 0;
  int64_t requests = 0;
  // Fault-tolerance counters (zero on a fault-free run).
  int worker_retries = 0;
  int speculative_launches = 0;
  int worker_errors = 0;
  // Streaming-execution memory profile: the largest resident footprint any
  // worker reported, the morsel count across all workers, and the smallest
  // Lambda memory configuration that covers the peak (the memory-config
  // recommendation fed into break-even analysis).
  int64_t peak_worker_memory_bytes = 0;
  int64_t total_batches = 0;
  int recommended_memory_mib = 0;
  // Overload-robustness counters (zero / absent unless a deadline or retry
  // budget was configured; see EngineContext).
  int degraded_stages = 0;        ///< Stages scheduled with reduced fan-out.
  double retry_budget_initial = 0;    ///< Pool size at query start.
  double retry_budget_remaining = 0;  ///< Tokens left at query end.
  int64_t retry_budget_acquired = 0;  ///< Retries granted across all layers.
  int64_t retry_budget_denied = 0;    ///< Retries refused (pool empty).
  Json raw;

  static QueryResponse FromJson(const Json& json);
};

class QueryEngine {
 public:
  explicit QueryEngine(EngineContext context) : context_(std::move(context)) {}
  SKYRISE_DISALLOW_COPY_AND_ASSIGN(QueryEngine);

  /// Registers the coordinator, worker, and invoker function binaries.
  /// Workers use the paper's 4-vCPU / 7,076 MiB configuration by default.
  [[nodiscard]] Status Deploy(faas::FunctionRegistry* registry,
                double worker_memory_mib = 7076);

  /// Submits `plan` to the coordinator on `platform` (Lambda or EC2 fleet).
  /// The response callback receives the coordinator's JSON response.
  void Run(faas::ComputePlatform* platform, const QueryPlan& plan,
           const std::string& query_id,
           std::function<void(Result<QueryResponse>)> callback,
           int partitions_per_worker = 0);

  EngineContext* context() { return &context_; }

  /// Decodes the final result object of a completed query into a chunk
  /// (control-plane read; for verification and result display).
  [[nodiscard]] Result<data::Chunk> FetchResult(const std::string& query_id) const;

 private:
  EngineContext context_;
};

}  // namespace skyrise::engine
