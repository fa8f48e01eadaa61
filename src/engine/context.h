#pragma once

#include <map>
#include <memory>
#include <string>

#include "common/circuit_breaker.h"
#include "common/deadline.h"
#include "common/retry_budget.h"
#include "datagen/dataset.h"
#include "engine/column_memo.h"
#include "engine/executor.h"
#include "faas/function.h"
#include "format/cof.h"
#include "pricing/cost_meter.h"
#include "storage/queue_service.h"
#include "storage/retry_client.h"
#include "storage/storage_service.h"

/// \file context.h
/// Shared wiring for the engine's function handlers: the simulation, table
/// and shuffle storage, the synthetic file catalog, the footer, column and
/// manifest memos, retry policy, and the platform workers run on. Queries
/// in flight together on one context interleave on the single-threaded
/// event loop; per-query state lives in `query_grants`, keyed by query id.

namespace skyrise::engine {

struct EngineContext {
  sim::SimEnvironment* env = nullptr;
  storage::StorageService* table_store = nullptr;
  storage::StorageService* shuffle_store = nullptr;
  format::SyntheticFileCatalog* catalog = nullptr;
  format::FooterMemo table_footers;  ///< Shuffle objects bypass it.
  /// Table column chunks by where their bytes lie. The worker still issues
  /// every ranged GET and charges every byte's decode; shuffle objects,
  /// ranges split at `range_chunk_bytes` and synthetic files bypass it.
  ColumnChunkMemo table_columns;
  /// Dataset manifests by their bytes. The coordinator still issues (and
  /// bills) every manifest GET; only the parse is shared.
  ParseMemo<datagen::DatasetInfo, datagen::ParseManifest> manifests;
  storage::QueueService* queue = nullptr;
  /// Platform worker invocations go to (set per run: Lambda or EC2 fleet).
  faas::ComputePlatform* worker_platform = nullptr;
  /// Experiment-wide request metering hook.
  pricing::CostMeter* meter = nullptr;

  CostModel cost_model;

  // Worker I/O policy.
  storage::RetryClient::Options retry;
  int64_t range_chunk_bytes = 8 * kMiB;

  // Worker execution policy: morsel size for the streaming operator chain.
  //   > 0  — re-slice decoded row groups into batches of this many rows;
  //   == 0 — natural morsels (one decoded row group each);
  //   < 0  — whole-fragment materialization (the pre-streaming semantics).
  // Results are bit-identical across settings; only peak memory and the
  // I/O-compute overlap change.
  int64_t morsel_rows = 4096;

  // Coordinator scheduling policy.
  int partitions_per_worker = 1;
  /// Memory configured for deployed workers (set by QueryEngine::Deploy);
  /// the coordinator's memory-aware partitions_per_worker default budgets
  /// worker inputs against a fraction of this allocation.
  int worker_memory_mib = 7076;
  int two_level_threshold = 256;      ///< Fan out via invoker functions.
  int invoker_fanout = 32;

  // Coordinator fault-tolerance policy. Worker outputs are deterministic
  // functions of their payload and shuffle writes are full-object replaces
  // under attempt-independent keys, so re-executed and speculative attempts
  // are idempotent: the coordinator keeps the first completion per fragment
  // and duplicates overwrite byte-identical objects.
  /// Total invocation attempts per fragment (first + retries + speculative)
  /// before the query fails.
  int worker_max_attempts = 4;
  /// Straggler speculation: a duplicate of a still-running fragment is
  /// launched once it has been in flight this long (builds on the size-based
  /// straggler timeouts the storage retry policy below applies per request).
  /// <= 0 disables speculation.
  SimDuration speculation_after = Seconds(10);
  /// Cadence of the coordinator's per-stage straggler sweep.
  SimDuration speculation_interval = Seconds(2);

  // Overload-robustness policy (all disabled by default; see DESIGN.md
  // "Overload & degradation model").
  /// End-to-end wall budget per query. QueryEngine::Run stamps the absolute
  /// expiry into the coordinator payload as "deadline_us"; the coordinator
  /// propagates it to every worker/invoker payload (where the platforms
  /// clamp execution timeouts against it) and into every storage
  /// ClientContext (where RetryClient clamps attempt timeouts and backoff).
  /// <= 0: unbounded.
  SimDuration query_deadline = 0;
  /// Per-query retry-token pool: every retry across layers (storage
  /// re-request, worker re-invocation, speculative duplicate) draws one
  /// token; storage successes refund `retry_budget_refund` tokens each. A
  /// pool drained below a quarter of its size degrades the coordinator's
  /// scan fan-out. <= 0: disabled (per-call max_attempts arithmetic alone,
  /// as before).
  double retry_budget_tokens = 0;
  double retry_budget_refund = 0.15;
  /// Per-service circuit breakers, owned by the testbed/harness (optional).
  /// `storage_breaker` is carried in worker/coordinator storage contexts;
  /// `invoke_breaker` gates the coordinator's worker-invocation path and is
  /// fed by worker-attempt outcomes.
  CircuitBreaker* storage_breaker = nullptr;
  CircuitBreaker* invoke_breaker = nullptr;

  // Live per-query state published by the coordinator, keyed by query id.
  // Multiple queries run interleaved on one context (the serving frontend
  // admits a whole tenant population against a shared deployment), so
  // workers look up the coordinator-granted budget/deadline for *their*
  // query by the query_id in their payload — the simulator's stand-in for
  // a budget grant travelling in-band. Entries exist only while the
  // owning coordinator task is live; a missing entry means the grant was
  // withdrawn (query finished/failed) and workers fall back to ungoverned
  // per-call retry arithmetic, matching zombie-execution semantics.
  struct QueryGrants {
    RetryBudget* retry_budget = nullptr;
    Deadline deadline;
    /// The coordinator's parse of the plan. A live worker takes its
    /// PipelineSpec from here instead of parsing its payload, and keeps
    /// the plan alive for as long as it runs; a worker without a grant
    /// parses the payload's copy of the pipeline, which is equal.
    std::shared_ptr<const QueryPlan> plan;
  };
  std::map<std::string, QueryGrants> query_grants;
  const QueryGrants* FindGrants(const std::string& query_id) const {
    auto it = query_grants.find(query_id);
    return it == query_grants.end() ? nullptr : &it->second;
  }

  EngineContext() {
    // Straggler re-triggering: generous size-based allowance so congested
    // (post-burst) scans do not spuriously time out, while first-byte
    // stragglers are retried.
    retry.request_timeout = Millis(600);
    retry.timeout_per_mib = Millis(400);
    retry.max_attempts = 16;  // Shuffle bursts ride out cold-bucket limits.
    retry.backoff_cap = Seconds(10);
  }
};

/// Well-known function names registered by the engine.
inline constexpr char kCoordinatorFunction[] = "skyrise-coordinator";
inline constexpr char kWorkerFunction[] = "skyrise-worker";
inline constexpr char kInvokerFunction[] = "skyrise-invoker";

}  // namespace skyrise::engine
